"""The checkpointable campaign runtime — run, crash, resume, same report.

:class:`CampaignRuntime` wraps one campaign in a
:class:`~repro.campaign.runtime.checkpoint.RunDirectory`: every wave's
outcomes are journaled the moment they stream out of an executor,
every dump is spooled to disk before its outcome is reported, and a
:meth:`~CampaignRuntime.resume` after any interruption reuses
completed boards from the journal and re-runs the rest — producing a
``report.json`` byte-identical to an uninterrupted run's.

The determinism chain, end to end:

1. the spec fully determines the schedule
   (:func:`~repro.campaign.schedule.build_schedule` is seeded);
2. each board simulation is a pure function of ``(spec, board_index)``
   (:func:`~repro.campaign.fleet.provision_board`);
3. outcomes and reports record no host timing — the run's wall
   clock goes to ``telemetry.json`` only;
4. the final report sorts outcomes by ``job_id``.

So the canonical report is invariant across executors (in-process vs
processes), across interruption points, and across resumes — the
property the regression suite pins byte for byte.

``interrupt_after=N`` injects a crash once N outcomes have been
journaled — the operator's fire-drill knob (``repro campaign run
--interrupt-after N``) and the test suite's way of killing a campaign
after wave N without racing a real signal.

A runtime may also run a *hardened* fleet (``kernel_config=``, the
same provisioning hook the defense arena uses) and reuse offline prep
across runs (``prep=``); both are pure functions of their inputs, so
neither weakens the determinism chain — the fuzz harness in
:mod:`repro.fuzzlab` leans on exactly this to replay interrupted,
defended campaigns cheaply.
"""

from __future__ import annotations

import os
import threading
import time
from typing import TYPE_CHECKING

from repro.campaign.report import CampaignReport
from repro.campaign.runtime.checkpoint import JournalState, RunDirectory
from repro.campaign.runtime.executors import resolve_executor
from repro.campaign.schedule import CampaignSpec
from repro.campaign.worker import BoardEnd, VictimOutcome
from repro.errors import CampaignInterrupted

if TYPE_CHECKING:
    from repro.attack.identify import SignatureDatabase
    from repro.attack.profiling import ProfileStore
    from repro.petalinux.kernel import KernelConfig


class CampaignRuntime:
    """One checkpointable campaign bound to a run directory."""

    def __init__(
        self,
        spec: CampaignSpec,
        run_dir: "RunDirectory | str | os.PathLike[str]",
        *,
        executor: str = "auto",
        processes: int | None = None,
        interrupt_after: int | None = None,
        prep: "tuple[ProfileStore, SignatureDatabase] | None" = None,
        kernel_config: "KernelConfig | None" = None,
    ) -> None:
        if not isinstance(run_dir, RunDirectory):
            run_dir = RunDirectory.create(run_dir, spec)
        self._run_dir = run_dir
        self._spec = spec
        self._executor = executor
        self._processes = processes
        self._interrupt_after = interrupt_after
        self._prep = prep
        self._kernel_config = kernel_config

    @classmethod
    def resume(
        cls,
        run_dir: "str | os.PathLike[str]",
        *,
        executor: str = "auto",
        processes: int | None = None,
        interrupt_after: int | None = None,
        prep: "tuple[ProfileStore, SignatureDatabase] | None" = None,
        kernel_config: "KernelConfig | None" = None,
    ) -> "CampaignRuntime":
        """Reopen an interrupted run; the spec comes from ``spec.json``.

        The resumed run may use a different executor or process count
        than the original — placement never affects the canonical
        outcomes.  *prep* (offline profiles + signature database) may
        be passed to skip re-profiling; because offline prep is itself
        a pure function of the spec, a resumed run reprepping from
        scratch produces the identical report.  *kernel_config*, when
        the original run hardened its fleet, must be re-supplied by
        the caller — the defense is part of the simulated world, and a
        resume under a different kernel would (detectably) break the
        byte-identity contract.
        """
        directory = RunDirectory.open(run_dir)
        return cls(
            directory.load_spec(),
            directory,
            executor=executor,
            processes=processes,
            interrupt_after=interrupt_after,
            prep=prep,
            kernel_config=kernel_config,
        )

    @property
    def run_dir(self) -> RunDirectory:
        """The run's on-disk home."""
        return self._run_dir

    @property
    def spec(self) -> CampaignSpec:
        """The campaign being run."""
        return self._spec

    def run(self) -> CampaignReport:
        """Run (or continue) the campaign to completion.

        Boards whose ``board_complete`` marker is already journaled
        are reused verbatim; the rest run on the configured executor,
        journaling wave by wave.  Raises
        :class:`~repro.errors.CampaignInterrupted` at the configured
        fault-injection point, with everything so far safely on disk.
        """
        # Imported here: the engine imports this package for its
        # executor plumbing, so a module-level import would be cyclic.
        from repro.campaign.engine import prepare_offline

        started = time.perf_counter()
        spec = self._spec
        journal = self._run_dir.load_journal()
        pending = [
            index
            for index in range(spec.boards)
            if index not in journal.complete_boards
        ]
        reused = journal.reusable_outcomes()

        if self._prep is not None:
            profiles, database = self._prep
        else:
            profiles, database = prepare_offline(spec)
        executor = resolve_executor(
            spec, self._executor, processes=self._processes
        )

        fresh: list[VictimOutcome] = []
        interrupted = False
        lock = threading.Lock()

        def on_wave(
            board: int, wave: int, outcomes: list[VictimOutcome]
        ) -> None:
            nonlocal interrupted
            with lock:
                # Once interrupted, every board thread still running
                # stops at its next wave without journaling it, as a
                # crashed process would.
                if interrupted:
                    raise CampaignInterrupted(
                        str(self._run_dir.root), len(fresh)
                    )
                self._run_dir.append_wave(board, wave, outcomes)
                fresh.extend(outcomes)
                if (
                    self._interrupt_after is not None
                    and len(fresh) >= self._interrupt_after
                ):
                    interrupted = True
                    raise CampaignInterrupted(
                        str(self._run_dir.root), len(fresh)
                    )

        def on_board_complete(board: int, end: BoardEnd) -> None:
            with lock:
                self._run_dir.mark_board_complete(board)

        try:
            executor.run(
                spec,
                pending,
                profiles,
                database,
                kernel_config=self._kernel_config,
                spool=self._run_dir.spool,
                on_wave=on_wave,
                on_board_complete=on_board_complete,
            )
        except CampaignInterrupted:
            self._write_telemetry(
                started, executor.name, journal, reused, fresh, complete=False
            )
            raise

        report = self._run_dir.write_report(spec, reused + fresh)
        self._write_telemetry(
            started, executor.name, journal, reused, fresh, complete=True
        )
        return report

    # -- internals -----------------------------------------------------------

    def _write_telemetry(
        self,
        started: float,
        executor_name: str,
        journal: JournalState,
        reused: list[VictimOutcome],
        fresh: list[VictimOutcome],
        complete: bool,
    ) -> None:
        # The run holds every outcome it reused or journaled, so even an
        # interrupted run's telemetry says how much had leaked by the
        # time it stopped, without replaying the journal.
        outcomes = reused + fresh
        self._run_dir.write_telemetry(
            {
                "complete": complete,
                "executor": executor_name,
                "processes": self._processes,
                "wall_seconds": round(time.perf_counter() - started, 6),
                "boards_reused": sorted(journal.complete_boards),
                "outcomes_reused": len(reused),
                "outcomes_journaled_this_run": len(fresh),
                "victims_attacked": len(outcomes),
                "victims_leaked": sum(
                    outcome.succeeded for outcome in outcomes
                ),
                "spool_bytes": self._run_dir.spool.total_bytes(),
                "spool_objects": len(self._run_dir.spool.digests()),
            }
        )
