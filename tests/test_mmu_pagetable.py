"""Unit tests for per-process page tables."""

import pytest

from repro.errors import TranslationFault
from repro.mmu.pagetable import PageTable, PageTableEntry


@pytest.fixture
def table() -> PageTable:
    return PageTable()


class TestMapping:
    def test_map_and_lookup(self, table):
        table.map_page(0x100, PageTableEntry(frame=5))
        entry = table.lookup(0x100)
        assert entry is not None
        assert entry.frame == 5

    def test_lookup_unmapped_is_none(self, table):
        assert table.lookup(0x100) is None

    def test_remap_rejected(self, table):
        table.map_page(0x100, PageTableEntry(frame=5))
        with pytest.raises(ValueError):
            table.map_page(0x100, PageTableEntry(frame=6))

    def test_unmap_returns_entry(self, table):
        table.map_page(0x100, PageTableEntry(frame=5))
        assert table.unmap_page(0x100).frame == 5
        assert table.lookup(0x100) is None

    def test_unmap_unmapped_faults(self, table):
        with pytest.raises(TranslationFault):
            table.unmap_page(0x100)

    def test_contains_and_len(self, table):
        table.map_page(1, PageTableEntry(frame=0))
        table.map_page(2, PageTableEntry(frame=1))
        assert 1 in table
        assert 3 not in table
        assert len(table) == 2


class TestRanges:
    def test_map_range_maps_consecutive_vpns(self, table):
        table.map_range(0x10, [7, 3, 9], "r-x")
        assert [table.translate(vpn << 12) >> 12 for vpn in (0x10, 0x11, 0x12)] == [
            7, 3, 9,
        ]
        assert table.lookup(0x11) == PageTableEntry(
            frame=3, writable=False, executable=True
        )

    def test_map_range_onto_mapped_vpn_maps_nothing(self, table):
        table.map_page(0x12, PageTableEntry(frame=5))
        with pytest.raises(ValueError):
            table.map_range(0x10, [1, 2, 3, 4], "rw-")
        assert table.mapped_vpns() == [0x12]
        assert table.frames() == [5]

    def test_unmap_range_returns_frames_in_vpn_order(self, table):
        table.map_range(0x20, [4, 8, 2], "rw-p")
        assert table.unmap_range(0x20, 3) == [4, 8, 2]
        assert len(table) == 0

    def test_unmap_range_with_a_hole_unmaps_nothing(self, table):
        table.map_range(0x20, [4, 8], "rw-")
        with pytest.raises(TranslationFault) as excinfo:
            table.unmap_range(0x20, 3)
        assert excinfo.value.virtual_address == 0x22 << 12
        assert table.frames() == [4, 8]


class TestTranslate:
    def test_preserves_page_offset(self, table):
        table.map_page(0xAAAA_EE77_5, PageTableEntry(frame=0x60025))
        physical = table.translate(0xAAAA_EE77_5123)
        assert physical == (0x60025 << 12) | 0x123

    def test_unmapped_address_faults(self, table):
        with pytest.raises(TranslationFault) as excinfo:
            table.translate(0xDEAD_B000)
        assert excinfo.value.virtual_address == 0xDEAD_B000

    def test_adjacent_vpns_can_map_scattered_frames(self, table):
        table.map_page(10, PageTableEntry(frame=99))
        table.map_page(11, PageTableEntry(frame=3))
        assert table.translate(10 << 12) == 99 << 12
        assert table.translate(11 << 12) == 3 << 12


class TestInventory:
    def test_mapped_vpns_sorted(self, table):
        table.map_page(30, PageTableEntry(frame=1))
        table.map_page(10, PageTableEntry(frame=2))
        table.map_page(20, PageTableEntry(frame=3))
        assert table.mapped_vpns() == [10, 20, 30]

    def test_frames_in_vpn_order(self, table):
        table.map_page(30, PageTableEntry(frame=1))
        table.map_page(10, PageTableEntry(frame=2))
        assert table.frames() == [2, 1]


class TestPerms:
    def test_perms_rendering(self):
        assert PageTableEntry(frame=0).perms() == "rw-"
        assert PageTableEntry(frame=0, writable=False, executable=True).perms() == "r-x"
        assert PageTableEntry(
            frame=0, readable=False, writable=False
        ).perms() == "---"
