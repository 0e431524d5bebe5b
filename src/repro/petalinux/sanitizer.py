"""Memory-sanitization policies — the defense the paper finds missing.

The insecure default (:attr:`SanitizePolicy.NONE`) reproduces
PetaLinux's observed behaviour: frames freed at process exit keep their
contents.  The other policies implement the countermeasures the paper's
related-work section discusses:

- ``ZERO_ON_FREE`` — synchronous scrub at teardown (the RowClone /
  RowReset-style fix, applied per-page so it is safe for the
  non-contiguous allocations of a multi-tenant board).
- ``SCRUB_POOL`` — asynchronous background scrubbing: freed frames
  queue up and a scrubber daemon cleans a bounded number per scheduler
  tick.  This trades teardown latency for a *window of vulnerability*,
  which the defense benchmarks measure.

Usage — watch the scrub pool's window of vulnerability close:

>>> from repro.hw.dram import DramDevice, PAGE_SIZE
>>> from repro.petalinux.sanitizer import SanitizePolicy, Sanitizer
>>> dram = DramDevice(capacity=16 * PAGE_SIZE)
>>> dram.write(3 * PAGE_SIZE, b"private residue")
>>> sanitizer = Sanitizer(
...     dram, policy=SanitizePolicy.SCRUB_POOL, scrub_rate_per_tick=1
... )
>>> sanitizer.on_free([3, 4])                 # the process just exited
>>> sanitizer.pending
2
>>> dram.read(3 * PAGE_SIZE, 15)              # still scrapeable...
b'private residue'
>>> sanitizer.tick()                          # ...until the daemon runs
1
>>> dram.read(3 * PAGE_SIZE, 15)
b'\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00\\x00'
>>> sanitizer.drain()                         # close the window on demand
1
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from repro.hw.dram import DramDevice


class SanitizePolicy(enum.Enum):
    """What happens to a process's frames when it exits."""

    NONE = "none"
    ZERO_ON_FREE = "zero_on_free"
    SCRUB_POOL = "scrub_pool"


@dataclass
class SanitizerStats:
    """Counters for the defense-cost benchmarks."""

    frames_scrubbed_sync: int = 0
    frames_scrubbed_async: int = 0
    max_queue_depth: int = 0


@dataclass
class Sanitizer:
    """Applies a :class:`SanitizePolicy` to frames leaving a process."""

    dram: DramDevice
    policy: SanitizePolicy = SanitizePolicy.NONE
    scrub_rate_per_tick: int = 64
    pattern: int = 0x00
    _queue: deque[int] = field(default_factory=deque, repr=False)
    stats: SanitizerStats = field(default_factory=SanitizerStats, repr=False)

    def on_free(self, frames: list[int]) -> None:
        """Handle frames being released at process exit.

        Under ``NONE`` this does nothing at all — the residue stays.
        Under ``ZERO_ON_FREE`` every frame is scrubbed before the
        allocator sees it again.  Under ``SCRUB_POOL`` frames are
        queued for the background scrubber.
        """
        if self.policy is SanitizePolicy.NONE:
            return
        if self.policy is SanitizePolicy.ZERO_ON_FREE:
            self.dram.scrub_pages(frames, self.pattern)
            self.stats.frames_scrubbed_sync += len(frames)
            return
        self._queue.extend(frames)
        self.stats.max_queue_depth = max(self.stats.max_queue_depth, len(self._queue))

    def tick(self) -> int:
        """Run one scheduler tick of the background scrubber.

        Returns how many frames were scrubbed this tick.  A no-op for
        the synchronous policies.
        """
        if self.policy is not SanitizePolicy.SCRUB_POOL:
            return 0
        batch = min(self.scrub_rate_per_tick, len(self._queue))
        return self._scrub_queued([self._queue.popleft() for _ in range(batch)])

    @property
    def pending(self) -> int:
        """Frames still waiting for the background scrubber."""
        return len(self._queue)

    def drain(self) -> int:
        """Scrub everything still queued; returns the count.

        Used by experiments to close the vulnerability window on
        demand.
        """
        frames = list(self._queue)
        self._queue.clear()
        return self._scrub_queued(frames)

    def _scrub_queued(self, frames: list[int]) -> int:
        self.dram.scrub_pages(frames, self.pattern)
        self.stats.frames_scrubbed_async += len(frames)
        return len(frames)
