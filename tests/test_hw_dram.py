"""Unit tests for the DRAM device — residue retention is the paper's core."""

import pytest

from repro.errors import DramAddressError
from repro.hw.dram import PAGE_SIZE, DramDevice, PowerUpFill


@pytest.fixture
def dram() -> DramDevice:
    return DramDevice(capacity=64 * PAGE_SIZE)


class TestConstruction:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DramDevice(capacity=0)

    def test_capacity_must_be_page_multiple(self):
        with pytest.raises(ValueError):
            DramDevice(capacity=PAGE_SIZE + 1)

    def test_page_count(self, dram):
        assert dram.page_count == 64


class TestReadWrite:
    def test_write_then_read(self, dram):
        dram.write(100, b"secret")
        assert dram.read(100, 6) == b"secret"

    def test_read_untouched_is_powerup_fill(self, dram):
        assert dram.read(0, 16) == b"\x00" * 16

    def test_write_across_page_boundary(self, dram):
        payload = bytes(range(200)) * 50
        dram.write(PAGE_SIZE - 100, payload)
        assert dram.read(PAGE_SIZE - 100, len(payload)) == payload

    def test_read_across_page_boundary(self, dram):
        dram.write(PAGE_SIZE - 2, b"abcd")
        assert dram.read(PAGE_SIZE - 2, 4) == b"abcd"

    def test_out_of_range_read_rejected(self, dram):
        with pytest.raises(DramAddressError):
            dram.read(dram.capacity - 1, 2)

    def test_out_of_range_write_rejected(self, dram):
        with pytest.raises(DramAddressError):
            dram.write(dram.capacity, b"x")

    def test_negative_offset_rejected(self, dram):
        with pytest.raises(DramAddressError):
            dram.read(-1, 1)

    def test_zero_length_read(self, dram):
        assert dram.read(0, 0) == b""


class TestWords:
    def test_word_roundtrip(self, dram):
        dram.write_word(256, 0xF7F5F8FD)
        assert dram.read_word(256) == 0xF7F5F8FD

    def test_word_is_little_endian(self, dram):
        dram.write(0, b"\xfd\xf8\xf5\xf7")
        assert dram.read_word(0) == 0xF7F5F8FD

    def test_word64(self, dram):
        dram.write_word(8, 0x1122334455667788, word_size=8)
        assert dram.read_word(8, word_size=8) == 0x1122334455667788

    def test_word_value_too_large_rejected(self, dram):
        with pytest.raises(ValueError):
            dram.write_word(0, 1 << 32)


class TestResidueRetention:
    """The security property under test: nothing clears on its own."""

    def test_data_survives_many_unrelated_operations(self, dram):
        dram.write(0, b"victim data")
        for page in range(8, 32):
            dram.write(page * PAGE_SIZE, b"other tenant")
        assert dram.read(0, 11) == b"victim data"

    def test_scrub_is_the_only_way_to_clear(self, dram):
        dram.write(PAGE_SIZE, b"residue")
        dram.scrub_page(1)
        assert dram.read(PAGE_SIZE, 7) == b"\x00" * 7

    def test_scrub_pattern(self, dram):
        dram.scrub_page(2, pattern=0xA5)
        assert dram.read(2 * PAGE_SIZE, 4) == b"\xa5" * 4

    def test_scrub_only_affects_target_page(self, dram):
        dram.write(0, b"keep")
        dram.scrub_page(1)
        assert dram.read(0, 4) == b"keep"

    def test_scrub_range_unaligned(self, dram):
        dram.write(100, b"\xff" * 300)
        dram.scrub_range(150, 100)
        assert dram.read(100, 50) == b"\xff" * 50
        assert dram.read(150, 100) == b"\x00" * 100
        assert dram.read(250, 150) == b"\xff" * 150

    def test_scrub_bad_page_rejected(self, dram):
        with pytest.raises(DramAddressError):
            dram.scrub_page(64)


class TestCopyOnWriteScrub:
    def test_write_to_one_scrubbed_page_leaves_the_others(self, dram):
        dram.scrub_pages([1, 2, 3])
        dram.write(2 * PAGE_SIZE + 10, b"victim")
        assert dram.read(2 * PAGE_SIZE + 10, 6) == b"victim"
        for page in (1, 3):
            assert dram.read(page * PAGE_SIZE, PAGE_SIZE) == b"\x00" * PAGE_SIZE

    def test_later_scrub_reads_as_its_pattern(self, dram):
        dram.scrub_pages([4, 5], pattern=0xA5)
        dram.write(4 * PAGE_SIZE, b"residue")
        dram.scrub_pages([4, 6], pattern=0xA5)
        for page in (4, 5, 6):
            assert dram.read(page * PAGE_SIZE, PAGE_SIZE) == b"\xa5" * PAGE_SIZE
        dram.write(6 * PAGE_SIZE, b"x")
        assert dram.read(4 * PAGE_SIZE, 1) == b"\xa5"

    def test_pseudo_random_fill_scrubbed_versus_untouched(self):
        dram = DramDevice(capacity=4 * PAGE_SIZE, fill=PowerUpFill.PSEUDO_RANDOM)
        noise = dram.read(1 * PAGE_SIZE, PAGE_SIZE)
        dram.scrub_pages([0, 2], pattern=0x3C)
        assert dram.read(0, PAGE_SIZE) == b"\x3c" * PAGE_SIZE
        assert dram.read(2 * PAGE_SIZE, PAGE_SIZE) == b"\x3c" * PAGE_SIZE
        assert dram.read(1 * PAGE_SIZE, PAGE_SIZE) == noise
        assert len(set(noise)) > 1

    def test_counts_every_frame_named(self, dram):
        dram.scrub_pages([1, 2, 2])
        dram.scrub_pages([])
        assert dram.stats.pages_scrubbed == 3

    def test_out_of_range_frame_scrubs_nothing(self, dram):
        dram.write(PAGE_SIZE, b"residue")
        with pytest.raises(DramAddressError):
            dram.scrub_pages([1, 64])
        with pytest.raises(DramAddressError):
            dram.scrub_pages([-1, 1])
        assert dram.read(PAGE_SIZE, 7) == b"residue"
        assert dram.stats.pages_scrubbed == 0


class TestPowerUpFill:
    def test_pseudo_random_fill_is_deterministic(self):
        first = DramDevice(capacity=4 * PAGE_SIZE, fill=PowerUpFill.PSEUDO_RANDOM)
        second = DramDevice(capacity=4 * PAGE_SIZE, fill=PowerUpFill.PSEUDO_RANDOM)
        assert first.read(0, 64) == second.read(0, 64)

    def test_pseudo_random_differs_per_page(self):
        dram = DramDevice(capacity=4 * PAGE_SIZE, fill=PowerUpFill.PSEUDO_RANDOM)
        assert dram.read(0, 32) != dram.read(PAGE_SIZE, 32)

    def test_pseudo_random_differs_by_seed(self):
        first = DramDevice(
            capacity=PAGE_SIZE, fill=PowerUpFill.PSEUDO_RANDOM, fill_seed=1
        )
        second = DramDevice(
            capacity=PAGE_SIZE, fill=PowerUpFill.PSEUDO_RANDOM, fill_seed=2
        )
        assert first.read(0, 32) != second.read(0, 32)

    def test_write_preserves_surrounding_powerup_bytes(self):
        dram = DramDevice(capacity=PAGE_SIZE, fill=PowerUpFill.PSEUDO_RANDOM)
        before = dram.read(0, 64)
        dram.write(16, b"XX")
        after = dram.read(0, 64)
        assert after[:16] == before[:16]
        assert after[16:18] == b"XX"
        assert after[18:] == before[18:]


class TestStats:
    def test_counters_accumulate(self, dram):
        dram.write(0, b"abcd")
        dram.read(0, 4)
        dram.read(0, 4)
        assert dram.stats.bytes_written == 4
        assert dram.stats.bytes_read == 8
        assert dram.stats.read_operations == 2
        assert dram.stats.write_operations == 1

    def test_touched_pages(self, dram):
        assert dram.touched_pages == 0
        dram.write(0, b"x")
        dram.write(5 * PAGE_SIZE, b"y")
        assert dram.touched_pages == 2
        assert dram.is_page_touched(5)
        assert not dram.is_page_touched(6)

    def test_stats_reset(self, dram):
        dram.write(0, b"x")
        dram.stats.reset()
        assert dram.stats.bytes_written == 0
