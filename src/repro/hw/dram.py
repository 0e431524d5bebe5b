"""The FPGA board's local DRAM.

This is the security-critical device of the paper: the PS DDR4 on the
ZCU104 retains whatever a process wrote until some other agent
overwrites it.  The model is a sparse page store — reads of untouched
pages return the configured power-up fill, a written page gets its own
buffer on first write, and a scrubbed page shares one immutable page of
its pattern until it is written (copy-on-write).  Nothing in this class
ever clears memory on its own; scrubbing is an explicit operation that
only the OS-level defenses (and the anonymous-page zeroing of a fresh
mapping) invoke.

Keeping the store sparse lets us model the full 2 GiB device of the
ZCU104 without allocating 2 GiB of host memory, and sharing scrubbed
pages keeps a freshly mapped but untouched heap from costing a host
page per frame.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import DramAddressError

PAGE_SIZE = 4096


@lru_cache(maxsize=256)
def _solid_page(pattern: int) -> bytes:
    """The one shared, immutable page of *pattern* (a byte) scrubs point at."""
    return bytes([pattern]) * PAGE_SIZE


class PowerUpFill(enum.Enum):
    """What an untouched DRAM page reads as after power-up.

    Real DDR4 powers up to effectively random values; ``ZEROS`` is the
    convenient default for tests, ``PSEUDO_RANDOM`` is deterministic
    per-page noise for experiments where distinguishing residue from
    power-up state matters.
    """

    ZEROS = "zeros"
    PSEUDO_RANDOM = "pseudo_random"


@dataclass
class DramStats:
    """Access counters, used by the throughput benchmarks."""

    bytes_read: int = 0
    bytes_written: int = 0
    pages_scrubbed: int = 0
    read_operations: int = 0
    write_operations: int = 0

    def reset(self) -> None:
        """Zero every counter (used between benchmark phases)."""
        self.bytes_read = 0
        self.bytes_written = 0
        self.pages_scrubbed = 0
        self.read_operations = 0
        self.write_operations = 0


@dataclass
class DramDevice:
    """Sparse byte-addressable DRAM of a given capacity.

    Addresses here are *device offsets* (0 .. capacity-1); the SoC bus
    maps global physical addresses onto them.
    """

    capacity: int
    fill: PowerUpFill = PowerUpFill.ZEROS
    fill_seed: int = 0
    _pages: dict[int, bytes | bytearray] = field(default_factory=dict, repr=False)
    """Touched pages: a private ``bytearray`` once written, else the
    shared ``bytes`` page of the pattern it was last scrubbed with."""
    stats: DramStats = field(default_factory=DramStats, repr=False)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"capacity must be positive, got {self.capacity}")
        if self.capacity % PAGE_SIZE:
            raise ValueError(
                f"capacity {self.capacity:#x} is not a multiple of the "
                f"page size {PAGE_SIZE:#x}"
            )

    # -- internal helpers ------------------------------------------------

    def _check_range(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.capacity:
            raise DramAddressError(offset, self.capacity)

    def _powerup_page(self, page_index: int) -> bytes:
        if self.fill is PowerUpFill.ZEROS:
            return b"\x00" * PAGE_SIZE
        # Deterministic per-page noise: expand a short digest to a page.
        out = bytearray()
        counter = 0
        seed = f"{self.fill_seed}:{page_index}".encode()
        while len(out) < PAGE_SIZE:
            out += hashlib.sha256(seed + counter.to_bytes(4, "little")).digest()
            counter += 1
        return bytes(out[:PAGE_SIZE])

    def _page_for_read(self, page_index: int) -> bytes | bytearray:
        page = self._pages.get(page_index)
        if page is not None:
            return page
        return self._powerup_page(page_index)

    def _page_for_write(self, page_index: int) -> bytearray:
        page = self._pages.get(page_index)
        if page is None:
            page = bytearray(self._powerup_page(page_index))
            self._pages[page_index] = page
        elif isinstance(page, bytes):
            # A scrubbed page shares its pattern page with every other
            # frame scrubbed alike: copy it before the first write.
            page = bytearray(page)
            self._pages[page_index] = page
        return page

    # -- byte access -----------------------------------------------------

    def read(self, offset: int, length: int) -> bytes:
        """Read *length* bytes starting at device offset *offset*."""
        self._check_range(offset, length)
        self.stats.bytes_read += length
        self.stats.read_operations += 1
        out = bytearray()
        remaining = length
        cursor = offset
        while remaining > 0:
            page_index, in_page = divmod(cursor, PAGE_SIZE)
            take = min(remaining, PAGE_SIZE - in_page)
            out += self._page_for_read(page_index)[in_page : in_page + take]
            cursor += take
            remaining -= take
        return bytes(out)

    def read_into(self, offset: int, out: memoryview) -> None:
        """Read ``len(out)`` bytes at *offset* directly into *out*.

        The zero-copy twin of :meth:`read`: page slices are copied
        straight into the caller's buffer (a pooled extraction buffer
        in the campaign hot path) without materializing intermediate
        ``bytes`` chunks or a join copy.  Stats count it exactly like
        one :meth:`read` of the same length.
        """
        length = len(out)
        self._check_range(offset, length)
        self.stats.bytes_read += length
        self.stats.read_operations += 1
        cursor = offset
        position = 0
        while position < length:
            page_index, in_page = divmod(cursor, PAGE_SIZE)
            take = min(length - position, PAGE_SIZE - in_page)
            page = self._page_for_read(page_index)
            out[position : position + take] = memoryview(page)[
                in_page : in_page + take
            ]
            cursor += take
            position += take

    def write(self, offset: int, data: bytes) -> None:
        """Write *data* starting at device offset *offset*."""
        self._check_range(offset, len(data))
        self.stats.bytes_written += len(data)
        self.stats.write_operations += 1
        cursor = offset
        position = 0
        while position < len(data):
            page_index, in_page = divmod(cursor, PAGE_SIZE)
            take = min(len(data) - position, PAGE_SIZE - in_page)
            page = self._page_for_write(page_index)
            page[in_page : in_page + take] = data[position : position + take]
            cursor += take
            position += take

    # -- word access (devmem granularity) ----------------------------------

    def read_word(self, offset: int, word_size: int = 4) -> int:
        """Read one little-endian word, the granularity ``devmem`` uses."""
        return int.from_bytes(self.read(offset, word_size), "little")

    def write_word(self, offset: int, value: int, word_size: int = 4) -> None:
        """Write one little-endian word."""
        if value < 0 or value >= 1 << (word_size * 8):
            raise ValueError(f"value {value:#x} does not fit in {word_size} bytes")
        self.write(offset, value.to_bytes(word_size, "little"))

    # -- scrubbing (defense hook only) -------------------------------------

    def scrub_pages(self, frames: list[int], pattern: int = 0x00) -> None:
        """Overwrite every page in *frames* with *pattern* bytes.

        This is the primitive the zero-on-free defense uses.  The
        insecure default kernel never calls it on a freed frame — that
        absence *is* the paper's vulnerability.  Every index is checked
        before any page changes; each scrubbed page then points at one
        shared page of the pattern, copied on its next write.
        """
        if not frames:
            return
        if min(frames) < 0 or max(frames) >= self.page_count:
            wild = next(
                index for index in frames if not 0 <= index < self.page_count
            )
            raise DramAddressError(wild * PAGE_SIZE, self.capacity)
        self._pages.update(dict.fromkeys(frames, _solid_page(pattern & 0xFF)))
        self.stats.pages_scrubbed += len(frames)

    def scrub_page(self, page_index: int, pattern: int = 0x00) -> None:
        """Overwrite one page with *pattern* bytes (see :meth:`scrub_pages`)."""
        self.scrub_pages([page_index], pattern)

    def scrub_range(self, offset: int, length: int, pattern: int = 0x00) -> None:
        """Overwrite a byte range (page-unaligned edges handled)."""
        self._check_range(offset, length)
        self.write(offset, bytes([pattern & 0xFF]) * length)
        self.stats.pages_scrubbed += (length + PAGE_SIZE - 1) // PAGE_SIZE

    # -- inspection --------------------------------------------------------

    @property
    def page_count(self) -> int:
        """Total number of pages the device holds."""
        return self.capacity // PAGE_SIZE

    @property
    def touched_pages(self) -> int:
        """Number of pages ever written (materialized in the sparse store)."""
        return len(self._pages)

    def is_page_touched(self, page_index: int) -> bool:
        """Whether *page_index* has ever been written."""
        return page_index in self._pages
