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
      segments/<writer>.seg       append-only records, one file per writer
      objects/<aa>/<sha256>.bin   one file per object (the layout before
                                  segments; read, never written)
      manifest.json               job_id -> digest map, written by the
                                  runtime when the campaign completes

A *writer* is one :class:`DumpSpool` handle in one process: the
in-process executor's board thread(s) share the run directory's
handle, each multiprocess shard opens its own, and so do the fabric
coordinator and the analysis daemon.  Filing a dump is one append to
the writer's segment — a record of a magic tag, the 32-byte digest, a
little-endian u64 length, then the bytes — instead of a directory, a
temp file and a rename per object.

- **Deduplication** is exact within one writer: a handle never files
  the same digest twice (every all-zero dump a zero-on-free kernel
  yields is stored once per writer).  Two writers may each store a
  copy of the same bytes; :meth:`DumpSpool.digests`,
  :meth:`DumpSpool.total_bytes` and the manifest count it once.
- **Torn tails** — a record whose header or body runs past the end of
  its segment (a writer killed mid-append) is skipped, exactly as the
  journal skips a torn trailing line: its digest reads as missing, and
  a resumed board files it again.  A failed append retires the
  segment, so a writer never appends after its own torn record.
- **Verifiability** — every record carries its digest; any object can
  be checked against it.

Reads go through an in-memory index from digest to (segment, offset,
length), filled by the handle's own appends and, on a miss, by
scanning the record headers other writers appended since the last
scan.  Objects in the old per-file layout stay readable, so run
directories written before segments still resume.

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
import re
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

from repro.attack.extraction import ScrapedDump
from repro.errors import SpoolClosedError

_MAGIC = b"DSG1"
_HEADER = struct.Struct("<4s32sQ")
"""A record header: magic tag, raw SHA-256 digest, u64 body length."""

_DIGEST = re.compile(r"[0-9a-f]{64}")


def _check_digest(sha256: object) -> None:
    """Refuse anything but 64 lowercase hex characters.

    Digests arrive from clients of the fabric and the analysis daemon;
    refusing anything else here keeps a name like ``../../secret``
    from ever reaching a file path.
    """
    if not isinstance(sha256, str) or _DIGEST.fullmatch(sha256) is None:
        raise ValueError(f"not a SHA-256 hex digest: {sha256!r}")


@dataclass(frozen=True)
class SpoolEntry:
    """Receipt for one spooled dump."""

    sha256: str
    nbytes: int
    deduplicated: bool
    """True when the handle already held an identical dump — always so
    for one it filed itself."""


class MappedDump:
    """A read-only memory-mapped view of one spooled object.

    Obtained from :meth:`DumpSpool.open`.  ``data`` is a read-only
    ``memoryview`` slice of a mapping of the object's segment (``b""``
    for zero-length objects — there is nothing to map), which every
    analysis path consumes zero-copy: carving, entropy and
    identification scan the page cache directly, never a slurped copy.

    The lifecycle is explicit: :meth:`close` (or the context manager)
    releases the view and unmaps, and any access afterwards raises
    :class:`~repro.errors.SpoolClosedError` instead of touching a stale
    mapping.  Closing while a live buffer export exists (e.g. a numpy
    array still aliasing the view) raises ``BufferError`` and leaves
    the handle open — drop the arrays first; the scan paths only hold
    views for the duration of a call.

    >>> with spool.open(digest) as mapped:          # doctest: +SKIP
    ...     regions = cartographer.map_dump(mapped.data)
    """

    def __init__(
        self, path: Path, offset: int, nbytes: int, sha256: str
    ) -> None:
        self._sha256 = sha256
        self._nbytes = nbytes
        self._closed = False
        self._map: mmap.mmap | None = None
        self._view: memoryview | bytes = b""
        if nbytes:
            # The mapping must start on an allocation boundary; the
            # view skips the few bytes before the object.
            self._skip = offset % mmap.ALLOCATIONGRANULARITY
            with path.open("rb") as file:
                self._map = mmap.mmap(
                    file.fileno(),
                    self._skip + nbytes,
                    access=mmap.ACCESS_READ,
                    offset=offset - self._skip,
                )
            self._view = memoryview(self._map)[self._skip :]

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
    def data(self) -> "memoryview | bytes":
        """The mapped bytes, zero-copy and read-only; raises once closed."""
        if self._closed:
            raise SpoolClosedError(
                f"spool object {self._sha256[:12]}… was closed; "
                "re-open it via DumpSpool.open() before reading"
            )
        return self._view

    def to_dump(self, pid: int = -1, heap_start: int = 0) -> ScrapedDump:
        """Rehydrate the object as a mapping-backed :class:`ScrapedDump`.

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
        """Release the view, unmap, and close the descriptor.  Idempotent."""
        if self._closed:
            return
        if self._map is not None:
            self._view.release()
            try:
                self._map.close()
            except BufferError:
                # An export of the mapping is still alive: stay open.
                self._view = memoryview(self._map)[self._skip :]
                raise
        self._closed = True
        self._map = None
        self._view = b""

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
    """Content-addressed dump store rooted at one directory.

    One handle is one writer: it appends to its own segment file, and
    one lock lets threads share it.  A handle used after ``fork``
    starts a segment of its own in the child.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self._root = Path(root)
        self._root.mkdir(parents=True, exist_ok=True)
        self._segments = self._root / "segments"
        self._lock = threading.Lock()
        self._index: dict[str, tuple[Path, int, int]] = {}
        self._scanned: dict[Path, int] = {}
        self._segment: Path | None = None
        self._writer_pid = 0
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

    def put(self, dump: ScrapedDump) -> SpoolEntry:
        """File one dump's bytes; a no-op when this writer holds them.

        A new object is one append to the writer's segment; the file is
        opened for just that write, so no descriptor outlives the call.
        Threads sharing the handle serialize on its lock.
        """
        return self._store(dump.sha256, dump.data, dump.nbytes)

    def put_bytes(
        self, data: bytes, verified_sha256: str | None = None
    ) -> SpoolEntry:
        """File raw bytes under their own SHA-256.

        The transport-side twin of :meth:`put` — the distributed
        fabric and the analysis daemon receive dump payloads off the
        wire as plain bytes with no :class:`ScrapedDump` around them
        and file them here.  *verified_sha256*, when given, must be the
        digest computed from *data* itself — the one
        :func:`repro.wire.decode_dump` returns, never a sender's claim
        — and is filed under as is, so an upload is hashed once.
        Without it the spool hashes *data* here.
        """
        if verified_sha256 is None:
            verified_sha256 = hashlib.sha256(data).hexdigest()
        return self._store(verified_sha256, data, len(data))

    def _store(self, digest: str, data, nbytes: int) -> SpoolEntry:
        with self._lock:
            if digest in self._index:
                self._put_hits += 1
                return SpoolEntry(digest, nbytes, deduplicated=True)
            self._append(digest, data, nbytes)
            self._put_misses += 1
        return SpoolEntry(digest, nbytes, deduplicated=False)

    def _append(self, digest: str, data, nbytes: int) -> None:
        """Append one record to this writer's segment (lock held)."""
        if self._segment is None or self._writer_pid != os.getpid():
            self._segments.mkdir(exist_ok=True)
            self._writer_pid = os.getpid()
            self._segment = self._segments / (
                f"{self._writer_pid}-{os.urandom(4).hex()}.seg"
            )
        segment = self._segment
        fd = os.open(
            segment,
            os.O_WRONLY | os.O_APPEND | os.O_CREAT | os.O_CLOEXEC,
            0o644,
        )
        try:
            start = os.lseek(fd, 0, os.SEEK_END)
            for chunk in (
                _HEADER.pack(_MAGIC, bytes.fromhex(digest), nbytes),
                data,
            ):
                view = memoryview(chunk)
                while view:
                    view = view[os.write(fd, view) :]
        except BaseException:
            # The record may be torn; never append after it.
            self._segment = None
            raise
        finally:
            os.close(fd)
        self._index[digest] = (segment, start + _HEADER.size, nbytes)

    def put_stats(self) -> dict:
        """Dedup telemetry for this handle's lifetime.

        ``hits`` counts puts satisfied by an already-filed object,
        ``misses`` counts fresh writes; ``hit_rate`` is hits over all
        puts (0.0 before the first put).  Feeds the analysis service's
        ``/stats`` surface — a high hit rate on an ingest daemon means
        clients keep re-uploading residue the store already holds.
        """
        with self._lock:
            total = self._put_hits + self._put_misses
            return {
                "hits": self._put_hits,
                "misses": self._put_misses,
                "hit_rate": (self._put_hits / total) if total else 0.0,
            }

    # -- reads ---------------------------------------------------------------

    def _legacy_path(self, sha256: str) -> Path:
        return self._root / "objects" / sha256[:2] / f"{sha256}.bin"

    def _refresh(self) -> None:
        """Index every complete record appended since the last scan."""
        with self._lock:
            for segment in sorted(self._segments.glob("*.seg")):
                offset = self._scanned.get(segment, 0)
                with segment.open("rb") as file:
                    size = os.fstat(file.fileno()).st_size
                    while offset + _HEADER.size <= size:
                        file.seek(offset)
                        magic, raw, length = _HEADER.unpack(
                            file.read(_HEADER.size)
                        )
                        end = offset + _HEADER.size + length
                        if magic != _MAGIC or end > size:
                            break  # a torn tail (or no record at all)
                        self._index.setdefault(
                            raw.hex(), (segment, offset + _HEADER.size, length)
                        )
                        offset = end
                self._scanned[segment] = offset

    def _locate(self, sha256: str) -> tuple[Path, int, int]:
        """(file, offset, length) of an object; rescans on a miss."""
        _check_digest(sha256)
        location = self._index.get(sha256)
        if location is None:
            legacy = self._legacy_path(sha256)
            if legacy.is_file():
                return legacy, 0, legacy.stat().st_size
            self._refresh()
            location = self._index.get(sha256)
            if location is None:
                raise FileNotFoundError(
                    f"no spooled object {sha256} under {self._root}"
                )
        return location

    def read(self, sha256: str) -> bytes:
        """The raw dump bytes filed under *sha256*, slurped into memory.

        Raises :class:`ValueError` for anything but a 64-character
        lowercase hex digest and :class:`FileNotFoundError` for digests
        never spooled.  For large objects prefer :meth:`open`, which
        maps the object instead of copying it.
        """
        path, offset, length = self._locate(sha256)
        with path.open("rb") as file:
            file.seek(offset)
            return file.read(length)

    def open(self, sha256: str) -> MappedDump:
        """Memory-map the object filed under *sha256* — a zero-copy read.

        Maps the object's stretch of its segment read-only; the
        returned :class:`MappedDump`'s ``data`` is a ``memoryview``
        slice of that mapping, straight from the page cache.  Close it
        (or use it as a context manager) when done.  Records are never
        rewritten once appended, so a read-only map is always coherent.
        Raises :class:`ValueError` for a malformed digest and
        :class:`FileNotFoundError` for digests never spooled.
        """
        path, offset, length = self._locate(sha256)
        return MappedDump(path, offset, length, sha256)

    def __contains__(self, sha256: str) -> bool:
        try:
            self._locate(sha256)
        except FileNotFoundError:
            return False
        return True

    def _sizes(self) -> dict[str, int]:
        """Every stored digest's size, each digest once."""
        self._refresh()
        with self._lock:
            sizes = {
                digest: length
                for digest, (_, _, length) in self._index.items()
            }
        for path in (self._root / "objects").glob("*/*.bin"):
            sizes.setdefault(path.stem, path.stat().st_size)
        return sizes

    def digests(self) -> list[str]:
        """Every object in the store, sorted, each digest once."""
        return sorted(self._sizes())

    def total_bytes(self) -> int:
        """Bytes of the distinct objects in the store."""
        return sum(self._sizes().values())

    # -- manifest ------------------------------------------------------------

    def write_manifest(self, records: list[dict]) -> Path:
        """Write the job → digest manifest (one record per outcome).

        *records* is the runtime's deterministic view of which spooled
        object belongs to which ``(job_id, board, wave)``; orphaned
        objects from interrupted runs may exist on disk beyond it —
        harmless: the manifest names only what the report cites.
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
