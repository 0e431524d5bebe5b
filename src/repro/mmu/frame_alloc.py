"""The physical frame allocator.

Two of its properties carry the paper's findings:

1. **Frames are never cleared here.**  ``free()`` just returns the frame
   to the free pool; the bytes the owning process wrote stay in DRAM.
   Sanitization, when enabled, is a kernel policy layered on top
   (:mod:`repro.petalinux.sanitizer`).
2. **Allocation order is deterministic** by default (ascending
   first-fit with LIFO reuse), which is what lets the attacker's
   offline profiling predict physical layout run after run — the
   paper's third PetaLinux finding ("no randomization in physical page
   layout").  The ``RANDOM`` policy is the physical-ASLR defense knob.

The allocator also remembers, for every frame, the pid that last held
it.  That bookkeeping is *diagnostic only* (used by the evaluation
metrics to check ground truth); neither the kernel nor the attack read
it.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import OutOfMemoryError


class ReusePolicy(enum.Enum):
    """Order in which freed frames are handed back out."""

    LIFO = "lifo"
    FIFO = "fifo"
    RANDOM = "random"


@dataclass
class FrameAllocatorStats:
    """Counters used by the reuse-decay experiment."""

    allocations: int = 0
    frees: int = 0
    frames_allocated: int = 0
    frames_freed: int = 0


class _SparsePool:
    """Physical ASLR's swap-remove pool, storing only the positions changed.

    Position ``i`` of an untouched pool holds ``base + i``, so a fresh
    pool over a ZCU102's 655,360 user frames is a small dict rather than
    a list and a set of that size.  :meth:`take` makes the same
    ``randrange(len(pool))`` draws as a materialized list that
    swap-removes, and hands out the same frames
    (:class:`repro.analysis.reference.ReferenceFrameAllocator`).
    """

    __slots__ = ("_base", "_size", "_moved")

    def __init__(self, base: int, size: int) -> None:
        self._base = base
        self._size = size
        self._moved: dict[int, int] = {}

    def __len__(self) -> int:
        return self._size

    def extend(self, frames: list[int]) -> None:
        """Append *frames* at the pool's end, in order."""
        size = self._size
        self._moved.update(zip(range(size, size + len(frames)), frames))
        self._size = size + len(frames)

    def take(self, count: int, randrange: Callable[[int], int]) -> list[int]:
        """Draw *count* frames, swapping the last frame into each hole."""
        moved = self._moved
        base = self._base
        size = self._size
        frames = []
        for _ in range(count):
            index = randrange(size)
            size -= 1
            last = moved.pop(size, base + size)
            if index == size:
                frames.append(last)
            else:
                frames.append(moved.get(index, base + index))
                moved[index] = last
        self._size = size
        return frames


class FrameAllocator:
    """Allocates physical page frames from a contiguous frame range.

    ``base_frame`` reserves the low frames (kernel image, DMA pools) so
    user allocations land in the region the paper's devmem reads hit
    (PAs around 0x6... on the ZCU104 — well above the kernel).
    """

    def __init__(
        self,
        total_frames: int,
        base_frame: int = 0,
        policy: ReusePolicy = ReusePolicy.LIFO,
        seed: int = 0,
    ) -> None:
        if total_frames <= 0:
            raise ValueError(f"total_frames must be positive, got {total_frames}")
        if not 0 <= base_frame < total_frames:
            raise ValueError(
                f"base_frame {base_frame} outside [0, {total_frames})"
            )
        self._total_frames = total_frames
        self._base_frame = base_frame
        self._policy = policy
        self._rng = random.Random(seed)
        # Deterministic policies hand out never-used frames in ascending
        # order from this watermark; freed frames go to the reuse pool.
        # RANDOM models physical ASLR: placement must be unpredictable
        # for *first* allocations too, so the whole frame range starts
        # in the (randomly drawn-from) pool and the watermark is spent.
        # LIFO takes a slice off a list's end, FIFO pops a deque's
        # front and RANDOM swap-removes from a sparse pool.  Every frame
        # below the watermark is either owned or pooled.
        self._free_pool: "deque[int] | list[int] | _SparsePool"
        if policy is ReusePolicy.RANDOM:
            self._watermark = total_frames
            self._free_pool = _SparsePool(
                base_frame, total_frames - base_frame
            )
        else:
            self._watermark = base_frame
            self._free_pool = deque() if policy is ReusePolicy.FIFO else []
        self._owner: dict[int, int | None] = {}
        self._last_owner: dict[int, int] = {}
        self.stats = FrameAllocatorStats()

    # -- introspection -----------------------------------------------------

    @property
    def policy(self) -> ReusePolicy:
        """The configured reuse policy."""
        return self._policy

    @property
    def total_frames(self) -> int:
        """Size of the managed frame range (including reserved base)."""
        return self._total_frames

    def free_frames(self) -> int:
        """How many frames are currently allocatable."""
        return (self._total_frames - self._watermark) + len(self._free_pool)

    def allocated_frames(self) -> int:
        """How many frames are currently held by owners."""
        return len(self._owner)

    def owner_of(self, frame: int) -> int | None:
        """Current owner pid of *frame*, or ``None`` if free/never used."""
        return self._owner.get(frame)

    def last_owner_of(self, frame: int) -> int | None:
        """Pid that most recently held *frame* (diagnostic ground truth)."""
        return self._last_owner.get(frame)

    def is_allocated(self, frame: int) -> bool:
        """Whether *frame* is currently allocated."""
        return frame in self._owner

    # -- allocation --------------------------------------------------------

    def _take_from_pool(self, count: int) -> list[int]:
        """Remove *count* frames from the pool in the policy's order."""
        pool = self._free_pool
        if self._policy is ReusePolicy.LIFO:
            cut = len(pool) - count
            frames = pool[cut:]
            del pool[cut:]
            frames.reverse()
        elif self._policy is ReusePolicy.FIFO:
            frames = [pool.popleft() for _ in range(count)]
        else:
            frames = pool.take(count, self._rng.randrange)
        return frames

    def allocate(self, count: int, owner: int | None = None) -> list[int]:
        """Allocate *count* frames for *owner* (a pid, or None for kernel).

        Freed frames are preferred over never-used frames, because that
        is what exposes residue to reuse — and what the reuse-decay
        experiment measures.  The frames, and the state left behind,
        are those of *count* one-frame calls.  Raises
        :class:`~repro.errors.OutOfMemoryError` if the request cannot
        be satisfied (no partial allocation is left behind).
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        if count > self.free_frames():
            raise OutOfMemoryError(
                f"requested {count} frames, only {self.free_frames()} free"
            )
        frames = self._take_from_pool(min(count, len(self._free_pool)))
        fresh = count - len(frames)
        frames.extend(range(self._watermark, self._watermark + fresh))
        self._watermark += fresh
        self._owner.update(dict.fromkeys(frames, owner))
        if owner is not None:
            self._last_owner.update(dict.fromkeys(frames, owner))
        self.stats.allocations += 1
        self.stats.frames_allocated += count
        return frames

    def free(self, frames: list[int]) -> None:
        """Return *frames* to the pool.  Contents are NOT cleared.

        Raises ``ValueError`` on double-free, freeing an unallocated
        frame or naming a frame twice — those are simulation bugs, not
        modelled behaviour — before any frame is returned.
        """
        unique = set(frames)
        if len(unique) != len(frames) or not self._owner.keys() >= unique:
            seen: set[int] = set()
            for frame in frames:
                if frame not in self._owner:
                    raise ValueError(f"double free or wild free of frame {frame}")
                if frame in seen:
                    raise ValueError(f"frame {frame} freed twice in one call")
                seen.add(frame)
        for frame in frames:
            del self._owner[frame]
        self._free_pool.extend(frames)
        self.stats.frees += 1
        self.stats.frames_freed += len(frames)

    def is_free(self, frame: int) -> bool:
        """Whether *frame* is in the reuse pool (freed, residue intact)."""
        return (
            self._base_frame <= frame < self._watermark
            and frame not in self._owner
        )
