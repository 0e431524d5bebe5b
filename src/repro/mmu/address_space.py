"""Per-process virtual address spaces: VMAs, brk, virtual I/O.

The layout mirrors 48-bit aarch64 PetaLinux, which is why the figures
this package regenerates show the same shapes as the paper's: the heap
lives in the ``0xaaaa_...`` range (paper Fig. 7) and mmap'd device
regions near ``0xffff_...``.

Pages are mapped eagerly when a VMA is created or the heap grows —
demand paging would add machinery without changing anything the attack
observes (the victim touches its whole heap anyway, so by scrape time
every heap page is present and the pagemap walk succeeds for the full
range, as in the paper).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TranslationFault, VmaError
from repro.hw.dram import DramDevice
from repro.mmu.frame_alloc import FrameAllocator
from repro.mmu.paging import (
    PAGE_SHIFT,
    PAGE_SIZE,
    align_up,
    is_page_aligned,
    page_count,
    vpn_of,
)
from repro.mmu.pagetable import PageTable


class VmaKind(enum.Enum):
    """What a VMA holds; drives the name column of the maps file."""

    TEXT = "text"
    DATA = "data"
    HEAP = "heap"
    STACK = "stack"
    ANON = "anon"
    FILE = "file"
    DEVICE = "device"


@dataclass
class Vma:
    """One virtual memory area (half-open byte range, page aligned)."""

    start: int
    end: int
    perms: str
    kind: VmaKind
    name: str = ""
    file_offset: int = 0
    dev: str = "00:00"
    inode: int = 0

    def __post_init__(self) -> None:
        if not is_page_aligned(self.start) or not is_page_aligned(self.end):
            raise VmaError(
                f"VMA [{self.start:#x}, {self.end:#x}) is not page aligned"
            )
        if self.end <= self.start:
            raise VmaError(f"empty or inverted VMA [{self.start:#x}, {self.end:#x})")
        if len(self.perms) != 4 or any(c not in "rwxps-" for c in self.perms):
            raise VmaError(f"malformed perms {self.perms!r}")

    @property
    def length(self) -> int:
        """Size of the area in bytes."""
        return self.end - self.start

    def contains(self, address: int) -> bool:
        """Whether *address* falls inside the area."""
        return self.start <= address < self.end

    def overlaps(self, start: int, end: int) -> bool:
        """Whether the byte range [start, end) intersects this VMA."""
        return self.start < end and start < self.end

    def maps_line(self) -> str:
        """Render the area as one ``/proc/<pid>/maps`` line.

        Matches the kernel's ``show_map_vma`` format, e.g. (paper
        Fig. 7)::

            aaaaee775000-aaaaefd8a000 rw-p 00000000 00:00 0    [heap]
        """
        prefix = (
            f"{self.start:08x}-{self.end:08x} {self.perms} "
            f"{self.file_offset:08x} {self.dev} {self.inode}"
        )
        if not self.name:
            return prefix
        return f"{prefix:<73}{self.name}"


@dataclass
class AddressSpace:
    """Virtual memory of one process, backed by physical DRAM frames.

    ``allocator``/``owner`` obtain frames, ``memory`` is the DRAM
    device the frames live in (frame-space addresses, i.e. the
    device-offset space the page table translates into).
    """

    allocator: FrameAllocator
    memory: DramDevice
    owner: int | None = None
    page_table: PageTable = field(default_factory=PageTable)
    _vmas: list[Vma] = field(default_factory=list)
    _torn_down: bool = False

    # -- VMA management -----------------------------------------------------

    def vmas(self) -> list[Vma]:
        """All areas, ascending by start address."""
        return list(self._vmas)

    def find_vma(self, address: int) -> Vma | None:
        """The VMA containing *address*, if any."""
        for vma in self._vmas:
            if vma.contains(address):
                return vma
        return None

    def vma_by_name(self, name: str) -> Vma | None:
        """First VMA whose name column equals *name* (e.g. ``[heap]``)."""
        for vma in self._vmas:
            if vma.name == name:
                return vma
        return None

    def _check_no_overlap(self, start: int, end: int) -> None:
        for vma in self._vmas:
            if vma.overlaps(start, end):
                raise VmaError(
                    f"range [{start:#x}, {end:#x}) overlaps VMA "
                    f"[{vma.start:#x}, {vma.end:#x}) {vma.name!r}"
                )

    def _map_range(self, start: int, end: int, perms: str) -> None:
        frames = self.allocator.allocate(page_count(end - start), owner=self.owner)
        # Anonymous pages are zero-filled when handed to userspace, as on
        # any Linux.  The paper's residue lives in *freed* frames read
        # through /dev/mem — a path this zeroing does not touch.
        self.memory.scrub_pages(frames)
        self.page_table.map_range(vpn_of(start), frames, perms)

    def add_vma(
        self,
        start: int,
        length: int,
        perms: str,
        kind: VmaKind,
        name: str = "",
        file_offset: int = 0,
        dev: str = "00:00",
        inode: int = 0,
    ) -> Vma:
        """Create an area and eagerly back it with fresh frames."""
        if self._torn_down:
            raise VmaError("address space has been torn down")
        end = start + align_up(length)
        self._check_no_overlap(start, end)
        vma = Vma(start, end, perms, kind, name, file_offset, dev, inode)
        self._map_range(start, end, perms)
        self._vmas.append(vma)
        self._vmas.sort(key=lambda area: area.start)
        return vma

    def remove_vma(self, vma: Vma) -> list[int]:
        """Unmap an area; returns the frames that backed it (not freed).

        The caller (the kernel) decides what happens to the frames —
        that decision point is where the sanitize-on-free policy lives.
        """
        if vma not in self._vmas:
            raise VmaError(f"VMA {vma.name!r} not part of this address space")
        frames = self.page_table.unmap_range(
            vpn_of(vma.start), page_count(vma.length)
        )
        self._vmas.remove(vma)
        return frames

    # -- heap (brk) ----------------------------------------------------------

    def heap(self) -> Vma | None:
        """The ``[heap]`` area, if the process has one."""
        for vma in self._vmas:
            if vma.kind is VmaKind.HEAP:
                return vma
        return None

    def create_heap(self, start: int, initial_length: int = PAGE_SIZE) -> Vma:
        """Create the heap area at *start* (one per address space)."""
        if self.heap() is not None:
            raise VmaError("address space already has a heap")
        return self.add_vma(
            start, initial_length, "rw-p", VmaKind.HEAP, name="[heap]"
        )

    def brk(self, new_end: int) -> Vma:
        """Grow (or keep) the heap so it ends at or beyond *new_end*.

        Models the kernel's ``brk`` syscall for the grow direction the
        victim application uses; shrinking is intentionally not
        supported (glibc malloc on the board never trims the main
        arena during the victim's run).
        """
        heap = self.heap()
        if heap is None:
            raise VmaError("no heap to grow; call create_heap first")
        aligned_end = align_up(new_end)
        if aligned_end <= heap.end:
            return heap
        self._check_no_overlap(heap.end, aligned_end)
        self._map_range(heap.end, aligned_end, heap.perms)
        heap.end = aligned_end
        return heap

    # -- virtual memory I/O ----------------------------------------------------

    def translate(self, virtual_address: int) -> int:
        """Virtual address → frame-space (DRAM device offset) address."""
        return self.page_table.translate(virtual_address)

    def _walk(self, virtual_address: int, length: int):
        """Yield (frame_space_address, chunk_length) page by page."""
        cursor = virtual_address
        remaining = length
        while remaining > 0:
            frame_space = self.page_table.translate(cursor)
            in_page = cursor & (PAGE_SIZE - 1)
            take = min(remaining, PAGE_SIZE - in_page)
            yield frame_space, take
            cursor += take
            remaining -= take

    def read_virtual(self, virtual_address: int, length: int) -> bytes:
        """Read *length* bytes at a virtual address (page-wise gather)."""
        out = bytearray()
        for frame_space, take in self._walk(virtual_address, length):
            out += self.memory.read(frame_space, take)
        return bytes(out)

    def write_virtual(self, virtual_address: int, data: bytes) -> None:
        """Write *data* at a virtual address (page-wise scatter)."""
        position = 0
        for frame_space, take in self._walk(virtual_address, len(data)):
            self.memory.write(frame_space, data[position : position + take])
            position += take

    def physical_segments(self, virtual_address: int, length: int) -> list[tuple[int, int]]:
        """Coalesced (frame_space_address, length) list covering a VA range.

        This is the scatter-gather list the DPU DMA uses, and also what
        the attack effectively rebuilds from the pagemap.
        """
        segments: list[tuple[int, int]] = []
        for frame_space, take in self._walk(virtual_address, length):
            if segments and segments[-1][0] + segments[-1][1] == frame_space:
                segments[-1] = (segments[-1][0], segments[-1][1] + take)
            else:
                segments.append((frame_space, take))
        return segments

    # -- teardown ---------------------------------------------------------------

    def teardown(self) -> list[int]:
        """Unmap everything; returns all frames in VPN order (not freed).

        After teardown the address space is dead: any further mapping
        or I/O raises.  The kernel passes the returned frames through
        its sanitizer policy and then to the allocator's free list.
        """
        frames = []
        for vma in list(self._vmas):
            frames.extend(self.remove_vma(vma))
        self._torn_down = True
        return frames

    @property
    def torn_down(self) -> bool:
        """Whether :meth:`teardown` has run."""
        return self._torn_down

    # -- rendering ----------------------------------------------------------------

    def render_maps(self) -> str:
        """The full ``/proc/<pid>/maps`` content for this address space."""
        return "\n".join(vma.maps_line() for vma in self._vmas)

    def resident_bytes(self) -> int:
        """Total mapped bytes (RSS — everything is resident here)."""
        return len(self.page_table) * PAGE_SIZE
