"""Tests for the self-healing toolkit: retry policies.

Everything runs on :class:`ManualClock` — a full retry schedule
"sleeps" in zero wall time, so the backoff math and deadline budgets
are asserted exactly, not approximately.
"""

from __future__ import annotations

import pytest

from repro.errors import RetryExhaustedError
from repro.utils.resilience import ManualClock, RetryPolicy


class TestManualClock:
    def test_starts_where_told_and_only_runs_forward(self):
        clock = ManualClock(start=5.0)
        assert clock() == 5.0
        clock.advance(2.5)
        clock.sleep(1.5)
        assert clock() == 9.0
        with pytest.raises(ValueError):
            clock.advance(-0.1)


class TestRetryPolicy:
    def test_schedule_is_pure_exponential_without_jitter(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.5, multiplier=2.0,
            max_delay=3.0, jitter=0.0,
        )
        # 5 delays for 6 attempts (none after the final attempt),
        # capped at max_delay.
        assert policy.schedule() == (0.5, 1.0, 2.0, 3.0, 3.0)

    def test_jittered_schedule_is_deterministic_per_seed(self):
        one = RetryPolicy(seed=7).schedule()
        assert one == RetryPolicy(seed=7).schedule()
        assert one != RetryPolicy(seed=8).schedule()
        # Jitter spreads but never escapes its band.
        policy = RetryPolicy(
            max_attempts=10, base_delay=1.0, multiplier=1.0,
            max_delay=1.0, jitter=0.25, seed=3,
        )
        for delay in policy.schedule():
            assert 0.75 <= delay <= 1.25

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(deadline=0.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_call_returns_after_transient_failures(self):
        clock = ManualClock()
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, jitter=0.0)
        attempts = []

        def flaky():
            attempts.append(clock())
            if len(attempts) < 3:
                raise ConnectionError("blip")
            return "healed"

        result = policy.call(
            flaky, retry_on=(ConnectionError,),
            clock=clock, sleep=clock.sleep,
        )
        assert result == "healed"
        # Attempt 1 at t=0, retry after 1s, retry after 2s more.
        assert attempts == [0.0, 1.0, 3.0]

    def test_call_exhausts_attempt_cap_with_chained_cause(self):
        clock = ManualClock()
        policy = RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0)
        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(
                lambda: 1 / 0, retry_on=(ZeroDivisionError,),
                clock=clock, sleep=clock.sleep, op="drill",
            )
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.__cause__, ZeroDivisionError)
        assert "drill" in str(excinfo.value)
        assert clock() == 3.0  # 1.0 + 2.0; no sleep after the last try

    def test_call_respects_deadline_budget(self):
        clock = ManualClock()
        policy = RetryPolicy(
            max_attempts=50, base_delay=4.0, multiplier=1.0,
            max_delay=4.0, jitter=0.0, deadline=10.0,
        )
        attempts = []
        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(
                lambda: attempts.append(clock()) or 1 / 0,
                retry_on=(ZeroDivisionError,),
                clock=clock, sleep=clock.sleep,
            )
        # t=0 and t=4 run; t=8 runs (8 < 10); the retry at t=12 would
        # overshoot the budget so attempt 3 is the last.
        assert attempts == [0.0, 4.0, 8.0]
        assert excinfo.value.attempts == 3

    def test_call_never_swallows_foreign_exceptions(self):
        policy = RetryPolicy(max_attempts=5, jitter=0.0)
        with pytest.raises(KeyError):
            policy.call(
                lambda: {}["missing"], retry_on=(ConnectionError,),
                clock=ManualClock(), sleep=lambda _s: None,
            )

    def test_on_retry_hook_sees_each_backoff(self):
        clock = ManualClock()
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.0)
        seen = []
        with pytest.raises(RetryExhaustedError):
            policy.call(
                lambda: 1 / 0, retry_on=(ZeroDivisionError,),
                clock=clock, sleep=clock.sleep,
                on_retry=lambda attempt, exc: seen.append(
                    (attempt, type(exc).__name__)
                ),
            )
        # Fires before each backoff — not after the final attempt.
        assert seen == [
            (1, "ZeroDivisionError"),
            (2, "ZeroDivisionError"),
            (3, "ZeroDivisionError"),
        ]

    def test_single_attempt_policy_never_sleeps(self):
        clock = ManualClock()
        with pytest.raises(RetryExhaustedError):
            RetryPolicy(max_attempts=1).call(
                lambda: 1 / 0, retry_on=(ZeroDivisionError,),
                clock=clock, sleep=clock.sleep,
            )
        assert clock() == 0.0
