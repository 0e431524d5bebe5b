"""Retry and backoff — the self-healing toolkit.

Distributed campaigns fail in boring, recoverable ways: a connection
resets, a coordinator restarts, a link stalls past its timeout.  This
module is the policy layer every transport-level recovery in the
fabric routes through, built on three deliberate choices:

- **Determinism.**  A :class:`RetryPolicy`'s backoff schedule — delays,
  jitter included — is a pure function of ``(policy, attempt)``.  Two
  workers with the same policy and seed produce byte-identical
  schedules, and a test can assert the exact schedule without running
  a single sleep.
- **Injectable time.**  Every component takes a ``() -> float`` clock
  and a ``(seconds) -> None`` sleep.  Production uses
  ``time.monotonic`` / ``time.sleep``; tests use :class:`ManualClock`,
  whose :meth:`ManualClock.sleep` *advances* the clock instead of
  waiting, so retry and deadline behaviour is drilled exactly and
  instantly.
- **Bounded budgets.**  Retries are capped twice — by attempt count
  and by an optional wall-clock deadline budget — so a worker facing a
  dead coordinator gives up *deliberately*
  (:class:`~repro.errors.RetryExhaustedError`) instead of spinning
  forever or dying on the first blip.

>>> policy = RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.0)
>>> policy.schedule()
(1.0, 2.0, 4.0)
>>> clock = ManualClock()
>>> attempts = []
>>> policy.call(
...     lambda: attempts.append(len(attempts)) or 1 / 0,
...     retry_on=(ZeroDivisionError,),
...     clock=clock, sleep=clock.sleep, op="drill",
... )
Traceback (most recent call last):
    ...
repro.errors.RetryExhaustedError: drill: retry budget exhausted after 4 attempt(s) over 7.000s
>>> (len(attempts), clock())
(4, 7.0)
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import RetryExhaustedError

T = TypeVar("T")

_JITTER_STRIDE = 1_000_003
"""Prime mixing a policy's seed with the attempt number, so each
attempt's jitter draw is independent but fully determined."""


class ManualClock:
    """A hand-advanced monotonic clock for deterministic time drills.

    Anything in this package that takes a ``clock`` accepts one of
    these; tests *advance* it past deadlines instead of sleeping, so
    lease expiry and retry budgets are exact and instant.
    :meth:`sleep` advances the clock, which is what lets a whole retry
    schedule "run" in zero wall time.

    >>> clock = ManualClock()
    >>> clock()
    0.0
    >>> clock.advance(31.0)
    >>> clock.sleep(2.5)
    >>> clock()
    33.5
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> None:
        """Move time forward (never backward — the clock is monotonic)."""
        if seconds < 0:
            raise ValueError("a monotonic clock cannot run backwards")
        with self._lock:
            self._now += seconds

    def sleep(self, seconds: float) -> None:
        """The injectable sleep: advance instead of waiting."""
        self.advance(seconds)


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic exponential backoff with seeded jitter and budgets.

    The delay before retry attempt *n* (1-based) is
    ``min(base_delay * multiplier**(n-1), max_delay)``, spread by up to
    ``±jitter`` (a fraction) using a :class:`random.Random` seeded from
    ``(seed, n)`` — so the full schedule is a pure function of the
    policy and two policies with different seeds desynchronize their
    retry storms.

    Two independent caps bound every retried operation:

    - *max_attempts* — total tries (the first non-retry attempt
      included);
    - *deadline* — an optional per-op wall-clock budget in seconds;
      a retry whose backoff would overshoot it is not attempted.

    ``max_attempts=1`` is a legitimate policy: try once, never retry.

    >>> RetryPolicy(max_attempts=5, base_delay=0.5, jitter=0.0).schedule()
    (0.5, 1.0, 2.0, 4.0)
    >>> a = RetryPolicy(seed=1).schedule()
    >>> a == RetryPolicy(seed=1).schedule() != RetryPolicy(seed=2).schedule()
    True
    """

    max_attempts: int = 5
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 15.0
    deadline: float | None = None
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1.0, got {self.multiplier}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(
                f"jitter must be a fraction in [0, 1], got {self.jitter}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(
                f"deadline must be positive or None, got {self.deadline}"
            )

    def delay(self, attempt: int) -> float:
        """The backoff before retry *attempt* (1-based), jitter applied."""
        if attempt < 1:
            raise ValueError(f"attempt numbers are 1-based, got {attempt}")
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1),
            self.max_delay,
        )
        if not self.jitter or not raw:
            return raw
        rng = random.Random(self.seed * _JITTER_STRIDE + attempt)
        spread = raw * self.jitter
        return raw - spread + rng.random() * 2.0 * spread

    def schedule(self) -> tuple[float, ...]:
        """Every backoff delay the policy will ever use, in order.

        ``max_attempts - 1`` entries: there is no delay after the
        final attempt, only the exhaustion error.
        """
        return tuple(
            self.delay(attempt) for attempt in range(1, self.max_attempts)
        )

    def call(
        self,
        fn: Callable[[], T],
        *,
        retry_on: tuple[type[BaseException], ...],
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        op: str = "operation",
        on_retry: Callable[[int, BaseException], None] | None = None,
    ) -> T:
        """Run *fn* under this policy; return its result.

        Exceptions in *retry_on* trigger backoff-and-retry; anything
        else propagates immediately.  When the attempt cap is hit, or
        the next backoff would overshoot the deadline budget, the
        *final* failure is wrapped in
        :class:`~repro.errors.RetryExhaustedError` (chained as
        ``__cause__``).  *on_retry* fires before each backoff sleep
        with ``(attempt, exception)`` — the observability hook the
        fabric worker uses to count reconnects.
        """
        start = clock()
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except retry_on as exc:
                elapsed = clock() - start
                if attempt >= self.max_attempts:
                    raise RetryExhaustedError(op, attempt, elapsed) from exc
                pause = self.delay(attempt)
                if (
                    self.deadline is not None
                    and elapsed + pause > self.deadline
                ):
                    raise RetryExhaustedError(op, attempt, elapsed) from exc
                if on_retry is not None:
                    on_retry(attempt, exc)
                sleep(pause)
