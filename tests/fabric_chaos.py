"""Fault-injection harness for the distributed campaign fabric.

Not a test module (no ``test_`` prefix — pytest never collects it):
this is the reusable chaos toolkit ``tests/test_fabric.py`` and any
future distributed drill builds on.  It scripts the failure modes a
real fleet produces — worker kills mid-wave, heartbeats that stop,
duplicate claims, replayed outcome streams, torn byte streams —
against a *real* in-process :class:`FabricCoordinator` with an
injected :class:`ManualClock`, so every drill is deterministic and
sleeps for nothing.

The core loop every drill shares:

1. compute the single-host reference report
   (:func:`reference_report_bytes` — an uninterrupted
   :class:`CampaignRuntime` run);
2. serve the same spec through a coordinator and throw
   :class:`ChaosWorker` s with :class:`FaultPlan` s at it;
3. :func:`drain` the campaign with well-behaved workers, advancing the
   manual clock past the lease TTL between rounds so abandoned leases
   expire and re-issue;
4. assert the fabric's ``report.json`` is **byte-identical** to the
   reference — the contract no crash choreography may bend.

Transport-level chaos rides the same loop through
:class:`~repro.campaign.runtime.netchaos.FlakyProxy` (re-exported here
with :class:`~repro.campaign.runtime.netchaos.ChaosScript`):
:func:`drain_through_proxy` drains with self-healing workers dialing
the proxy instead of the coordinator, and :func:`restart_coordinator`
kills a live coordinator and resumes the same run directory on the
same port — the coordinator-restart drill's core move.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from repro.campaign import (
    CampaignRuntime,
    CampaignSpec,
    prepare_offline_cached,
)
from repro.campaign.runtime.fabric import (
    FabricClient,
    FabricCoordinator,
    FabricWorker,
    ManualClock,
)
from repro.campaign.runtime.netchaos import ChaosScript, FlakyProxy
from repro.errors import FabricError, RetryExhaustedError
from repro.utils.resilience import RetryPolicy

__all__ = [
    "ChaosScript",
    "ChaosWorker",
    "FAST_RETRY",
    "FaultPlan",
    "FlakyProxy",
    "build_coordinator",
    "drain",
    "drain_through_proxy",
    "no_sleep",
    "reference_report_bytes",
    "restart_coordinator",
    "run_chaos_drill",
]

FAST_RETRY = RetryPolicy(
    max_attempts=8, base_delay=0.01, max_delay=0.05, jitter=0.0
)
"""Retry policy for drills: real retries, negligible wall-clock."""


def no_sleep(seconds: float) -> None:
    """A sleep that doesn't — drills drive time with manual clocks."""


@dataclass
class FaultPlan:
    """What goes wrong for one worker, and exactly when.

    All faults default off; a default :class:`FaultPlan` is a
    well-behaved worker.

    - *die_after_waves* — simulated worker death: stop everything
      after shipping N waves of the current board (``0`` dies
      mid-wave, after the wave's dumps uploaded but before its
      outcomes ship); the lease is left to expire.
    - *tear_stream_before_wave* — before shipping that wave index,
      write a truncated junk frame onto the wire and die: the
      coordinator sees a torn stream and drops the connection.
    - *duplicate_waves* — ship every wave twice (an at-least-once
      sender); the second copy must be rejected as duplicates.
    - *replay_on_reconnect* — after the last wave, open a *second*
      connection and re-send every wave already shipped (a worker
      that reconnected and replayed its send log), then complete the
      board on the original connection.
    - *abandon_before_complete* — ship every wave but never send
      ``board_complete`` and stop (a worker that partitioned at the
      last instant); the lease expires and the board re-runs.
    """

    die_after_waves: int | None = None
    tear_stream_before_wave: int | None = None
    duplicate_waves: bool = False
    replay_on_reconnect: bool = False
    abandon_before_complete: bool = False


class ChaosWorker(FabricWorker):
    """A :class:`FabricWorker` that executes a :class:`FaultPlan`.

    Heartbeats are disabled and ``poll_interval=None`` by default:
    drills drive time with the coordinator's :class:`ManualClock`, so
    a chaos worker drains what it can claim and returns.
    """

    def __init__(self, host: str, port: int, *, plan: FaultPlan, **kwargs):
        kwargs.setdefault("heartbeat", False)
        kwargs.setdefault("poll_interval", None)
        super().__init__(
            host, port, die_after_waves=plan.die_after_waves, **kwargs
        )
        self.plan = plan
        self.sent_log: list[dict] = []

    def _before_wave_send(self, client, token, board, wave, outcomes):
        if (
            self.plan.tear_stream_before_wave is not None
            and wave >= self.plan.tear_stream_before_wave
        ):
            # A frame that dies mid-line: valid JSON prefix, no
            # newline, then the connection drops with the worker.
            client.send_raw(b'{"op": "wave", "lease": "b0e1", "outco')
            client.close()
            raise _death()
        payload = {
            "lease": token,
            "wave": wave,
            "outcomes": [asdict(outcome) for outcome in outcomes],
        }
        self.sent_log.append(payload)
        if self.plan.duplicate_waves:
            # First copy ships here; the worker's own send right after
            # becomes the duplicate the coordinator must reject.
            client.request("wave", **payload)

    def _before_board_complete(self, client, token, board):
        if self.plan.replay_on_reconnect:
            with FabricClient(self._host, self._port) as second:
                for payload in self.sent_log:
                    response = second.request("wave", **payload)
                    assert response["accepted"] == 0, (
                        "a replayed wave must never re-journal outcomes"
                    )
        if self.plan.abandon_before_complete:
            raise _death()


def _death():
    from repro.campaign.runtime.fabric import _SimulatedWorkerDeath

    return _SimulatedWorkerDeath()


def reference_report_bytes(spec: CampaignSpec, workdir: Path) -> bytes:
    """The single-host, uninterrupted ``report.json`` for *spec*."""
    run_dir = Path(workdir) / "reference"
    runtime = CampaignRuntime(
        spec,
        run_dir,
        executor="inprocess",
        prep=prepare_offline_cached(spec),
    )
    runtime.run()
    return run_dir.joinpath("report.json").read_bytes()


def build_coordinator(
    spec: CampaignSpec,
    workdir: Path,
    *,
    lease_ttl: float = 30.0,
    defense_profile: str | None = None,
) -> tuple[FabricCoordinator, ManualClock]:
    """A serving coordinator on an ephemeral port, clock injected."""
    clock = ManualClock()
    coordinator = FabricCoordinator(
        spec,
        Path(workdir) / "fabric",
        lease_ttl=lease_ttl,
        clock=clock,
        prep=prepare_offline_cached(spec),
        defense_profile=defense_profile,
    )
    coordinator.serve()
    return coordinator, clock


def drain(
    coordinator: FabricCoordinator,
    clock: ManualClock,
    *,
    lease_ttl: float = 30.0,
    max_rounds: int = 10,
    concurrent: int = 1,
) -> list[dict]:
    """Finish a campaign with well-behaved workers, however wounded.

    Each round runs *concurrent* fresh workers (threads — real claim
    racing) until no lease is claimable, then advances the manual
    clock past the lease TTL so anything a dead worker still holds
    expires and re-issues.  Raises if the campaign won't converge in
    *max_rounds* — a drill that needs more has found a real bug.
    """
    host, port = coordinator.address
    stats: list[dict] = []
    rounds = 0
    while not coordinator.done:
        if rounds >= max_rounds:
            raise AssertionError(
                f"campaign failed to drain in {max_rounds} rounds: "
                f"{coordinator.status()}"
            )
        workers = [
            FabricWorker(
                host,
                port,
                worker_id=f"drain-r{rounds}w{index}",
                poll_interval=None,
                heartbeat=False,
            )
            for index in range(concurrent)
        ]
        results: list[dict] = [{} for _ in workers]

        def run(index: int, worker: FabricWorker) -> None:
            results[index] = worker.run()

        threads = [
            threading.Thread(target=run, args=(index, worker))
            for index, worker in enumerate(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats.extend(results)
        if not coordinator.done:
            clock.advance(lease_ttl + 1.0)
        rounds += 1
    return stats


def run_chaos_drill(
    spec: CampaignSpec,
    workdir: Path,
    plans: list[FaultPlan],
    *,
    lease_ttl: float = 30.0,
    drain_concurrent: int = 1,
) -> tuple[bytes, bytes, dict]:
    """One full drill: faulty workers, then drain, then compare.

    Runs one :class:`ChaosWorker` per plan (sequentially — each gets
    a chance to claim and corrupt), advances the clock between them so
    abandoned leases re-issue, drains with clean workers, and returns
    ``(fabric_report_bytes, reference_report_bytes, status)``.
    """
    workdir = Path(workdir)
    reference = reference_report_bytes(spec, workdir)
    coordinator, clock = build_coordinator(
        spec, workdir, lease_ttl=lease_ttl
    )
    try:
        host, port = coordinator.address
        for index, plan in enumerate(plans):
            ChaosWorker(
                host, port, plan=plan, worker_id=f"chaos{index}"
            ).run()
            if not coordinator.done:
                clock.advance(lease_ttl + 1.0)
        drain(
            coordinator,
            clock,
            lease_ttl=lease_ttl,
            concurrent=drain_concurrent,
        )
        coordinator.run_until_complete(timeout=60)
        status = coordinator.status()
        fabric = coordinator.run_dir.report_path.read_bytes()
    finally:
        coordinator.close()
    return fabric, reference, status


def restart_coordinator(
    coordinator: FabricCoordinator,
    *,
    lease_ttl: float = 30.0,
    clock: ManualClock | None = None,
) -> tuple[FabricCoordinator, ManualClock]:
    """Kill a live coordinator and resume its run on the *same* port.

    The restart drill in one move: captures the bound address, closes
    the server (every worker's next request now fails at the socket),
    reopens the same run directory via :meth:`FabricCoordinator.resume`
    with a fresh :class:`ManualClock` (restarts forget wall-clock
    state — that's the point), and serves on the identical
    ``host:port`` so already-configured workers and proxies reconnect
    without redirection.  ``leases.json`` epoch watermarks guarantee
    the resumed lease table never re-mints a fencing token.
    """
    host, port = coordinator.address
    coordinator.close()
    clock = clock or ManualClock()
    resumed = FabricCoordinator.resume(
        coordinator.run_dir.root,
        lease_ttl=lease_ttl,
        clock=clock,
        prep=prepare_offline_cached(coordinator.spec),
    )
    resumed.serve(host, port)
    return resumed, clock


def drain_through_proxy(
    coordinator: FabricCoordinator,
    clock: ManualClock,
    proxy: FlakyProxy,
    *,
    lease_ttl: float = 30.0,
    max_rounds: int = 12,
    concurrent: int = 1,
    retry_policy: RetryPolicy = FAST_RETRY,
    on_round: (
        "Callable[[int], FabricCoordinator | None] | None"
    ) = None,
) -> list[dict]:
    """:func:`drain`, but every worker dials the proxy's flaky wire.

    Workers are self-healing (``retry_policy`` retries, ``no_sleep``
    so backoff costs nothing) and a worker whose budget runs out mid-
    round is recorded, not fatal — its lease expires on the manual
    clock and the next round picks the board up.  *on_round* fires
    before each round with the round index; a drill that kills and
    resumes the coordinator mid-campaign returns the replacement from
    its hook (share the :class:`ManualClock` via
    ``restart_coordinator(..., clock=clock)`` so lease time stays
    continuous) and the drain tracks it.
    """
    stats: list[dict] = []
    rounds = 0
    while not coordinator.done:
        if rounds >= max_rounds:
            raise AssertionError(
                f"campaign failed to drain through the proxy in "
                f"{max_rounds} rounds: {coordinator.status()} "
                f"(proxy: {proxy.stats()})"
            )
        if on_round is not None:
            replacement = on_round(rounds)
            if replacement is not None:
                coordinator = replacement
        proxy_host, proxy_port = proxy.address
        workers = [
            FabricWorker(
                proxy_host,
                proxy_port,
                worker_id=f"proxy-r{rounds}w{index}",
                poll_interval=None,
                heartbeat=False,
                retry_policy=retry_policy,
                sleep=no_sleep,
            )
            for index in range(concurrent)
        ]
        results: list[dict] = [{} for _ in workers]

        def run(index: int, worker: FabricWorker) -> None:
            try:
                results[index] = worker.run()
            except (FabricError, RetryExhaustedError, OSError) as exc:
                results[index] = {"worker_error": repr(exc)}

        threads = [
            threading.Thread(target=run, args=(index, worker))
            for index, worker in enumerate(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats.extend(results)
        if not coordinator.done:
            clock.advance(lease_ttl + 1.0)
        rounds += 1
    # A worker the chaos beat never comes back.  One TTL of silence
    # settles it, so the coordinator's close() does not wait for it.
    clock.advance(lease_ttl)
    return stats
