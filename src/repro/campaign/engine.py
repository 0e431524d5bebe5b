"""The campaign engine — offline prep once, then the fleet in parallel.

:func:`run_campaign` is the top-level entry point:

1. build the deterministic schedule from the spec;
2. run the adversary's offline prep **once** — profile the model mix
   on a reference board and mine one shared
   :class:`~repro.attack.identify.SignatureDatabase` (the paper's
   attacker preps on hardware they control; a fleet attacker preps
   once, not once per victim);
3. hand the fleet's boards to an executor from
   :mod:`repro.campaign.runtime.executors` — one worker thread sharing
   the prep by reference for small fleets, ``multiprocessing`` shard processes
   spreading boards across cores for large ones (``executor="auto"``
   picks; both stream outcomes back wave by wave and produce
   identical results);
4. collect every outcome into a
   :class:`~repro.campaign.report.CampaignReport`.

Two plain-data knobs let the :mod:`repro.defense` arena run the
identical campaign under different hardening profiles: *kernel_config*
boots every fleet board with an arbitrary
:class:`~repro.petalinux.kernel.KernelConfig` (provisioning time), and
*scrape_delay_ticks* lets that many scheduler ticks pass after each
wave's victims terminate and before extraction (process-teardown time
— where the asynchronous scrub daemon races the attacker's scrape).
Each board's end-of-run scrub counters come back through
*on_board_complete*, so a defended campaign runs on either executor.

For checkpointable runs — journal, dump spool, interrupt/resume — use
:class:`~repro.campaign.runtime.runner.CampaignRuntime`, which drives
these same executors under a run directory.

>>> from repro.campaign import CampaignSpec, run_campaign
>>> report = run_campaign(CampaignSpec(boards=4, victims=8, seed=7))
>>> print(report.render())                            # doctest: +SKIP
"""

from __future__ import annotations

import threading

from repro.attack.config import AttackConfig
from repro.attack.identify import SignatureDatabase
from repro.attack.profiling import ProfileStore
from repro.campaign.report import CampaignReport
from repro.campaign.runtime.executors import BoardSink, resolve_executor
from repro.campaign.runtime.spool import DumpSpool
from repro.campaign.schedule import CampaignSpec
from repro.campaign.worker import VictimOutcome
from repro.evaluation.scenarios import BoardSession
from repro.petalinux.kernel import KernelConfig


def prepare_offline(spec: CampaignSpec) -> tuple[ProfileStore, SignatureDatabase]:
    """The adversary's one-time prep: profiles + signature database.

    Runs on a dedicated reference board (the fleet never sees the
    marker images), covering every model in the campaign mix.  The
    profiler scrapes its own runs with coalesced reads whatever
    ``spec.coalesce_reads`` says: a profile records only offsets,
    sizes and strings, which every read mode gets byte-identical, and
    the spec's read mode governs how the fleet's victims are scraped.
    """
    reference = BoardSession.boot(input_hw=spec.input_hw)
    profiles = reference.profile(
        sorted(set(spec.model_mix)), config=AttackConfig(coalesce_reads=True)
    )
    return profiles, SignatureDatabase.from_profiles(profiles)


_PREP_CACHE: dict[
    tuple[tuple[str, ...], int], tuple[ProfileStore, SignatureDatabase]
] = {}
_PREP_CACHE_LOCK = threading.Lock()


def prepare_offline_cached(
    spec: CampaignSpec,
) -> tuple[ProfileStore, SignatureDatabase]:
    """:func:`prepare_offline`, memoized on what prep depends on.

    Offline prep is a pure function of the (deduplicated, sorted)
    model mix and the input resolution — nothing else in the spec
    reaches the reference board.  Harnesses that run many campaigns
    over overlapping mixes (the fuzz lab, the fabric's in-process
    drills, parameter sweeps) share one profile notebook per distinct
    key instead of re-profiling per campaign.  The cached objects are
    read-only in every consumer, so sharing by reference is safe.
    """
    key = (tuple(sorted(set(spec.model_mix))), spec.input_hw)
    with _PREP_CACHE_LOCK:
        cached = _PREP_CACHE.get(key)
    if cached is not None:
        return cached
    prepped = prepare_offline(spec)
    with _PREP_CACHE_LOCK:
        return _PREP_CACHE.setdefault(key, prepped)


def run_campaign(
    spec: CampaignSpec,
    profiles: ProfileStore | None = None,
    database: SignatureDatabase | None = None,
    *,
    kernel_config: KernelConfig | None = None,
    scrape_delay_ticks: int = 0,
    executor: str = "auto",
    processes: int | None = None,
    spool: DumpSpool | None = None,
    on_board_complete: BoardSink | None = None,
) -> CampaignReport:
    """Run one full fleet campaign and aggregate the results.

    Pass *profiles*/*database* to reuse prep across campaigns (e.g. a
    parameter sweep); by default :func:`prepare_offline` builds both.
    Offline prep always runs on a vulnerable reference board — only
    the fleet boots *kernel_config*, because the adversary preps on
    hardware they control while the defense protects the victims'
    boards.  *scrape_delay_ticks* (non-negative) ticks each board's
    kernel after every wave terminates; *on_board_complete* receives
    ``(board_index, end)`` with each board's
    :class:`~repro.campaign.worker.BoardEnd` counters.

    *executor* selects board placement: ``"inprocess"`` (the boards in
    turn on one worker thread),
    ``"multiprocess"`` (*processes* workers sharding the fleet), or
    ``"auto"``.  *spool* files every scraped dump in a
    content-addressed store as soon as it is analyzed, so only wave-
    local dumps are ever resident.
    """
    if scrape_delay_ticks < 0:
        raise ValueError(
            "scrape_delay_ticks must be non-negative, "
            f"got {scrape_delay_ticks}"
        )
    if profiles is None:
        prepped_profiles, prepped_database = prepare_offline(spec)
        profiles = prepped_profiles
        database = database or prepped_database
    elif database is None:
        database = SignatureDatabase.from_profiles(profiles)

    chosen = resolve_executor(spec, executor, processes=processes)
    outcomes: list[VictimOutcome] = []
    lock = threading.Lock()

    def on_wave(board: int, wave: int, batch: list[VictimOutcome]) -> None:
        del board, wave
        with lock:
            outcomes.extend(batch)

    chosen.run(
        spec,
        range(spec.boards),
        profiles,
        database,
        kernel_config=kernel_config,
        scrape_delay_ticks=scrape_delay_ticks,
        spool=spool,
        on_wave=on_wave,
        on_board_complete=on_board_complete or (lambda board, end: None),
    )
    outcomes.sort(key=lambda outcome: outcome.job_id)
    return CampaignReport(spec=spec, outcomes=outcomes)
