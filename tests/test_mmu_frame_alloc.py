"""Unit tests for the frame allocator — determinism and residue exposure."""

import tracemalloc

import pytest

from repro.errors import OutOfMemoryError
from repro.mmu.frame_alloc import FrameAllocator, ReusePolicy


@pytest.fixture
def allocator() -> FrameAllocator:
    return FrameAllocator(total_frames=64)


class TestConstruction:
    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            FrameAllocator(total_frames=0)

    def test_base_frame_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FrameAllocator(total_frames=8, base_frame=8)

    def test_base_frame_reserves_low_frames(self):
        allocator = FrameAllocator(total_frames=64, base_frame=16)
        assert allocator.allocate(1) == [16]
        assert allocator.free_frames() == 47


class TestAllocation:
    def test_first_allocations_ascend(self, allocator):
        assert allocator.allocate(3) == [0, 1, 2]
        assert allocator.allocate(2) == [3, 4]

    def test_deterministic_across_instances(self):
        first = FrameAllocator(total_frames=64)
        second = FrameAllocator(total_frames=64)
        for _ in range(5):
            assert first.allocate(3) == second.allocate(3)

    def test_owner_recorded(self, allocator):
        frames = allocator.allocate(2, owner=42)
        for frame in frames:
            assert allocator.owner_of(frame) == 42
            assert allocator.is_allocated(frame)

    def test_zero_count_rejected(self, allocator):
        with pytest.raises(ValueError):
            allocator.allocate(0)

    def test_oom_raises_without_partial_allocation(self, allocator):
        allocator.allocate(60)
        free_before = allocator.free_frames()
        with pytest.raises(OutOfMemoryError):
            allocator.allocate(10)
        assert allocator.free_frames() == free_before

    def test_counters(self, allocator):
        allocator.allocate(4)
        frames = allocator.allocate(2)
        allocator.free(frames)
        assert allocator.stats.frames_allocated == 6
        assert allocator.stats.frames_freed == 2
        assert allocator.allocated_frames() == 4


class TestFree:
    def test_free_returns_to_pool(self, allocator):
        frames = allocator.allocate(4, owner=1)
        allocator.free(frames)
        for frame in frames:
            assert allocator.is_free(frame)
            assert allocator.owner_of(frame) is None

    def test_last_owner_survives_free(self, allocator):
        frames = allocator.allocate(2, owner=7)
        allocator.free(frames)
        assert allocator.last_owner_of(frames[0]) == 7

    def test_double_free_rejected(self, allocator):
        frames = allocator.allocate(2)
        allocator.free(frames)
        with pytest.raises(ValueError):
            allocator.free(frames)

    def test_wild_free_rejected(self, allocator):
        with pytest.raises(ValueError):
            allocator.free([63])

    def test_wild_free_is_atomic(self, allocator):
        frames = allocator.allocate(2)
        with pytest.raises(ValueError):
            allocator.free(frames + [63])
        # The valid frames must not have been freed by the failed call.
        assert allocator.is_allocated(frames[0])

    def test_repeated_frame_free_is_atomic(self, allocator):
        frames = allocator.allocate(51)
        free_before = allocator.free_frames()
        with pytest.raises(ValueError):
            allocator.free([frames[0], frames[0]])
        assert allocator.is_allocated(frames[0])
        assert not allocator.is_free(frames[0])
        assert allocator.free_frames() == free_before
        assert allocator.stats.frees == 0
        allocator.free(frames)
        assert allocator.free_frames() == 64


class TestReusePolicies:
    def test_lifo_reuses_most_recently_freed_first(self):
        allocator = FrameAllocator(total_frames=64, policy=ReusePolicy.LIFO)
        first = allocator.allocate(3)
        allocator.free(first)
        assert allocator.allocate(1) == [first[-1]]

    def test_fifo_reuses_oldest_freed_first(self):
        allocator = FrameAllocator(total_frames=64, policy=ReusePolicy.FIFO)
        first = allocator.allocate(3)
        allocator.free(first)
        assert allocator.allocate(1) == [first[0]]

    def test_freed_frames_preferred_over_fresh(self, allocator):
        frames = allocator.allocate(2)
        allocator.free(frames)
        reused = allocator.allocate(2)
        assert set(reused) == set(frames)

    def test_random_policy_is_seed_deterministic(self):
        def sequence(seed: int) -> list[int]:
            allocator = FrameAllocator(
                total_frames=64, policy=ReusePolicy.RANDOM, seed=seed
            )
            frames = allocator.allocate(16)
            allocator.free(frames)
            return allocator.allocate(16)

        assert sequence(1) == sequence(1)

    def test_random_policy_randomizes_first_allocation(self):
        """Physical ASLR: even a pristine board's first allocation is
        unpredictable — this is what defeats profiled-PA replay."""
        allocator = FrameAllocator(
            total_frames=256, policy=ReusePolicy.RANDOM, seed=3
        )
        frames = allocator.allocate(16)
        assert frames != list(range(16))
        assert len(set(frames)) == 16

    def test_random_policy_differs_across_seeds(self):
        first = FrameAllocator(
            total_frames=256, policy=ReusePolicy.RANDOM, seed=1
        ).allocate(32)
        second = FrameAllocator(
            total_frames=256, policy=ReusePolicy.RANDOM, seed=2
        ).allocate(32)
        assert first != second

    def test_random_policy_never_double_allocates(self):
        allocator = FrameAllocator(
            total_frames=64, policy=ReusePolicy.RANDOM, seed=3
        )
        first = allocator.allocate(30)
        second = allocator.allocate(30)
        assert not set(first) & set(second)

    def test_random_policy_boot_materializes_no_frame_range(self):
        """Physical ASLR pools a ZCU102's 655,360 user frames without
        building a list or a set of them."""
        tracemalloc.start()
        try:
            FrameAllocator(
                total_frames=1 << 20,
                base_frame=0x60000,
                policy=ReusePolicy.RANDOM,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_policy_property(self):
        allocator = FrameAllocator(total_frames=8, policy=ReusePolicy.FIFO)
        assert allocator.policy is ReusePolicy.FIFO


class TestResidueExposure:
    """The attack-relevant behaviour: freed frames keep identity."""

    def test_victim_frames_stay_free_until_reused(self, allocator):
        victim_frames = allocator.allocate(8, owner=100)
        allocator.free(victim_frames)
        # A smaller later allocation leaves some victim frames free.
        allocator.allocate(3, owner=200)
        surviving = [f for f in victim_frames if allocator.is_free(f)]
        assert len(surviving) == 5

    def test_reuse_reassigns_last_owner(self, allocator):
        victim_frames = allocator.allocate(4, owner=100)
        allocator.free(victim_frames)
        reused = allocator.allocate(4, owner=200)
        for frame in reused:
            assert allocator.last_owner_of(frame) == 200
