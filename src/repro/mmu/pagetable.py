"""Per-process page tables.

A flat VPN → (frame, perms) map stands in for the ARMv8 four-level
walk; the translation *result* (which frame backs which virtual page,
with what permissions) is identical, and that result is all the pagemap
file and the attack consume.  Whole VMAs map and unmap as ranges; a
:class:`PageTableEntry` is built only when one page is asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from repro.errors import TranslationFault
from repro.mmu.paging import PAGE_SHIFT, page_offset, vpn_of


@dataclass(frozen=True)
class PageTableEntry:
    """One mapping: virtual page -> physical frame with permissions."""

    frame: int
    readable: bool = True
    writable: bool = True
    executable: bool = False

    def perms(self) -> str:
        """Render as the maps-file style triple, e.g. ``rw-``."""
        return (
            ("r" if self.readable else "-")
            + ("w" if self.writable else "-")
            + ("x" if self.executable else "-")
        )


def _entry(mapping: tuple[int, str]) -> PageTableEntry:
    frame, perms = mapping
    return PageTableEntry(frame, perms[0] == "r", perms[1] == "w", perms[2] == "x")


class PageTable:
    """Mutable VPN → (frame, ``rwx`` perms) mapping for one process."""

    def __init__(self) -> None:
        self._entries: dict[int, tuple[int, str]] = {}

    def map_page(self, vpn: int, entry: PageTableEntry) -> None:
        """Install a mapping; remapping an already-mapped VPN is an error."""
        self.map_range(vpn, [entry.frame], entry.perms())

    def map_range(self, first_vpn: int, frames: list[int], perms: str) -> None:
        """Map ``len(frames)`` consecutive VPNs from *first_vpn* onto *frames*.

        *perms* is the ``rwx`` triple every page gets (e.g. ``rw-``).
        Raises ``ValueError``, mapping nothing, when any VPN in the
        range is already mapped.
        """
        vpns = range(first_vpn, first_vpn + len(frames))
        if not self._entries.keys().isdisjoint(vpns):
            mapped = next(vpn for vpn in vpns if vpn in self._entries)
            raise ValueError(f"VPN {mapped:#x} is already mapped")
        self._entries.update(zip(vpns, zip(frames, repeat(perms[:3]))))

    def unmap_page(self, vpn: int) -> PageTableEntry:
        """Remove and return the mapping for *vpn*."""
        try:
            return _entry(self._entries.pop(vpn))
        except KeyError:
            raise TranslationFault(vpn << PAGE_SHIFT) from None

    def unmap_range(self, first_vpn: int, count: int) -> list[int]:
        """Remove *count* consecutive mappings; returns their frames.

        Raises :class:`~repro.errors.TranslationFault`, unmapping
        nothing, when any VPN in the range is unmapped.
        """
        vpns = range(first_vpn, first_vpn + count)
        entries = self._entries
        if not all(map(entries.__contains__, vpns)):
            unmapped = next(vpn for vpn in vpns if vpn not in entries)
            raise TranslationFault(unmapped << PAGE_SHIFT)
        return [frame for frame, _ in map(entries.pop, vpns)]

    def lookup(self, vpn: int) -> PageTableEntry | None:
        """The PTE for *vpn*, or ``None`` when unmapped."""
        mapping = self._entries.get(vpn)
        return None if mapping is None else _entry(mapping)

    def translate(self, virtual_address: int) -> int:
        """Translate a virtual address to a physical frame-space address.

        Returns ``frame * PAGE_SIZE + page_offset`` — the *DRAM frame
        address*; the SoC address map turns frames into global physical
        addresses.  Raises :class:`~repro.errors.TranslationFault` for
        unmapped addresses.
        """
        mapping = self._entries.get(vpn_of(virtual_address))
        if mapping is None:
            raise TranslationFault(virtual_address)
        return (mapping[0] << PAGE_SHIFT) | page_offset(virtual_address)

    def mapped_vpns(self) -> list[int]:
        """All mapped VPNs, ascending."""
        return sorted(self._entries)

    def frames(self) -> list[int]:
        """All backing frames, in VPN order."""
        return [self._entries[vpn][0] for vpn in self.mapped_vpns()]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries
