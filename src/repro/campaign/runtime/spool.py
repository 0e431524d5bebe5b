"""The dump spool — a content-addressed on-disk store for residue.

A long campaign scrapes one dump per victim; keeping them all resident
would grow memory linearly with campaign size.  The spool instead
files each :class:`~repro.attack.extraction.ScrapedDump` on disk the
moment step-4 analysis finishes, addressed by the dump's own SHA-256
(:attr:`ScrapedDump.sha256 <repro.attack.extraction.ScrapedDump.sha256>`),
and the worker drops its reference — peak resident dump memory is
bounded by one wave per board, regardless of how many victims the
campaign schedules.

Layout on disk::

    <root>/
      objects/<aa>/<sha256>.bin   raw dump bytes (aa = first digest byte)
      manifest.json               job_id -> digest map, written by the
                                  runtime when the campaign completes

Content addressing buys three operational properties:

- **deduplication** — identical residue (every all-zero dump a
  zero-on-free kernel yields, co-residents with identical heaps) is
  stored once fleet-wide;
- **idempotent writes** — re-running a board after a crash re-puts the
  same objects under the same names, so resume never corrupts or
  duplicates the store (writes go through a temp file + atomic
  ``os.replace``, safe under concurrent multiprocess workers);
- **verifiability** — any object can be checked against its own file
  name.

>>> import tempfile
>>> from repro.attack.extraction import ScrapedDump
>>> spool = DumpSpool(tempfile.mkdtemp() + "/spool")
>>> dump = ScrapedDump(pid=871, heap_start=0, data=b"residue",
...                    pages_read=1, pages_skipped=0, devmem_reads=1)
>>> entry = spool.put(dump)
>>> spool.read(entry.sha256)
b'residue'
>>> spool.put(dump).deduplicated  # identical residue is stored once
True
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.attack.extraction import ScrapedDump
from repro.errors import SpoolClosedError


@dataclass(frozen=True)
class SpoolEntry:
    """Receipt for one spooled dump."""

    sha256: str
    nbytes: int
    deduplicated: bool
    """True when an identical dump was already in the store."""


class MappedDump:
    """A read-only memory-mapped view of one spooled object.

    Obtained from :meth:`DumpSpool.open`.  ``data`` is the raw mmap
    (``b""`` for zero-length objects — empty files cannot be mapped),
    which every analysis path consumes zero-copy: carving, entropy and
    identification scan the page cache directly, never a slurped copy.

    The lifecycle is explicit: :meth:`close` (or the context manager)
    unmaps and closes the file descriptor, and any access afterwards
    raises :class:`~repro.errors.SpoolClosedError` instead of touching
    a stale mapping.  Closing while a live buffer export exists (e.g.
    a numpy array still aliasing the map) raises ``BufferError`` —
    drop the arrays first; the scan paths only hold views for the
    duration of a call.

    >>> with spool.open(digest) as mapped:          # doctest: +SKIP
    ...     regions = cartographer.map_dump(mapped.data)
    """

    def __init__(self, path: Path, sha256: str) -> None:
        self._sha256 = sha256
        self._closed = False
        size = path.stat().st_size
        if size == 0:
            self._file = None
            self._map: mmap.mmap | bytes = b""
        else:
            self._file = path.open("rb")
            self._map = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        self._nbytes = size

    @property
    def sha256(self) -> str:
        """The content digest this handle was opened under."""
        return self._sha256

    @property
    def nbytes(self) -> int:
        """Object size in bytes (valid even after close)."""
        return self._nbytes

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    @property
    def data(self) -> "mmap.mmap | bytes":
        """The mapped bytes, zero-copy; raises once closed."""
        if self._closed:
            raise SpoolClosedError(
                f"spool object {self._sha256[:12]}… was closed; "
                "re-open it via DumpSpool.open() before reading"
            )
        return self._map

    def to_dump(self, pid: int = -1, heap_start: int = 0) -> ScrapedDump:
        """Rehydrate the object as an mmap-backed :class:`ScrapedDump`.

        Extraction bookkeeping (page/read counters) is not stored in
        the spool, so those fields are zero; the analysis paths only
        touch ``data``.
        """
        return ScrapedDump(
            pid=pid,
            heap_start=heap_start,
            data=self.data,
            pages_read=0,
            pages_skipped=0,
            devmem_reads=0,
        )

    def close(self) -> None:
        """Unmap and release the file descriptor.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        try:
            if isinstance(self._map, mmap.mmap):
                self._map.close()
        finally:
            self._map = b""
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "MappedDump":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        # Last-resort cleanup; the explicit close()/with-block is the
        # contract (and what the fd-leak tests pin).
        try:
            self.close()
        except BufferError:  # pragma: no cover — exports still alive
            pass


class DumpSpool:
    """Content-addressed dump store rooted at one directory."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self._root = Path(root)
        (self._root / "objects").mkdir(parents=True, exist_ok=True)
        self._stats_lock = threading.Lock()
        self._put_hits = 0
        self._put_misses = 0

    @property
    def root(self) -> Path:
        """The spool's root directory."""
        return self._root

    @property
    def manifest_path(self) -> Path:
        """Where the runtime files the job → digest manifest."""
        return self._root / "manifest.json"

    def object_path(self, sha256: str) -> Path:
        """Where a digest's bytes live (whether or not they exist yet)."""
        return self._root / "objects" / sha256[:2] / f"{sha256}.bin"

    def put(self, dump: ScrapedDump) -> SpoolEntry:
        """File one dump's bytes; a no-op when the content is known.

        The write lands in a temp file first and is published with an
        atomic rename, so concurrent workers (threads or processes)
        racing on the same digest converge on one valid object.
        """
        return self._publish(dump.sha256, dump.data, dump.nbytes)

    def put_bytes(self, data: bytes) -> SpoolEntry:
        """File raw bytes under their own SHA-256.

        The transport-side twin of :meth:`put` — the distributed
        fabric receives dump payloads off the wire as plain bytes with
        no :class:`ScrapedDump` around them, hashes them itself, and
        files them here; the returned entry's digest is therefore
        always trustworthy regardless of what the sender claimed.
        """
        digest = hashlib.sha256(data).hexdigest()
        return self._publish(digest, data, len(data))

    def _publish(
        self, digest: str, data: "bytes | mmap.mmap", nbytes: int
    ) -> SpoolEntry:
        path = self.object_path(digest)
        if path.exists():
            with self._stats_lock:
                self._put_hits += 1
            return SpoolEntry(digest, nbytes, deduplicated=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Scratch name is unique per writer (pid *and* thread: an
        # in-process executor with several workers writes from several
        # threads of one pid),
        # so racing writers never share a temp file and both renames
        # publish identical content.
        scratch = path.parent / (
            f"{digest}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        scratch.write_bytes(data)
        os.replace(scratch, path)
        with self._stats_lock:
            self._put_misses += 1
        return SpoolEntry(digest, nbytes, deduplicated=False)

    def put_stats(self) -> dict:
        """Dedup telemetry for this handle's lifetime.

        ``hits`` counts puts satisfied by an already-filed object,
        ``misses`` counts fresh writes; ``hit_rate`` is hits over all
        puts (0.0 before the first put).  Feeds the analysis service's
        ``/stats`` surface — a high hit rate on an ingest daemon means
        clients keep re-uploading residue the store already holds.
        """
        with self._stats_lock:
            total = self._put_hits + self._put_misses
            return {
                "hits": self._put_hits,
                "misses": self._put_misses,
                "hit_rate": (self._put_hits / total) if total else 0.0,
            }

    def read(self, sha256: str) -> bytes:
        """The raw dump bytes filed under *sha256*, slurped into memory.

        Raises :class:`FileNotFoundError` for digests never spooled.
        For large objects prefer :meth:`open`, which maps the file
        instead of copying it.
        """
        return self.object_path(sha256).read_bytes()

    def open(self, sha256: str) -> MappedDump:
        """Memory-map the object filed under *sha256* — a zero-copy read.

        The returned :class:`MappedDump` exposes the object's bytes
        straight from the page cache; close it (or use it as a context
        manager) when done.  Because spool objects are immutable once
        published (content-addressed, atomic rename), a read-only map
        is always coherent.  Raises :class:`FileNotFoundError` for
        digests never spooled.
        """
        path = self.object_path(sha256)
        if not path.exists():
            raise FileNotFoundError(
                f"no spooled object {sha256} under {self._root}"
            )
        return MappedDump(path, sha256)

    def __contains__(self, sha256: str) -> bool:
        return self.object_path(sha256).exists()

    def digests(self) -> list[str]:
        """Every object in the store, sorted."""
        return sorted(
            path.stem
            for path in (self._root / "objects").glob("*/*.bin")
        )

    def total_bytes(self) -> int:
        """Bytes the store holds on disk (deduplicated)."""
        return sum(
            path.stat().st_size
            for path in (self._root / "objects").glob("*/*.bin")
        )

    # -- manifest ------------------------------------------------------------

    def write_manifest(self, records: list[dict]) -> Path:
        """Write the job → digest manifest (one record per outcome).

        *records* is the runtime's deterministic view of which spooled
        object belongs to which ``(job_id, board, wave)``; orphaned
        objects from interrupted runs may exist on disk beyond it —
        harmless, and reclaimed the next time the digest recurs.
        """
        payload = {"format": 1, "dumps": records}
        self.manifest_path.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        return self.manifest_path

    def load_manifest(self) -> list[dict]:
        """The manifest's dump records ([] when never written)."""
        if not self.manifest_path.exists():
            return []
        return json.loads(self.manifest_path.read_text())["dumps"]
