"""The fuzz runner — drive one scenario through the real attack stack.

:func:`build_world` is the heart of the fuzzlab: it takes one
:class:`~repro.fuzzlab.scenario.Scenario` and actually runs it —
no mocks, no shortcuts — collecting every artifact the oracles need:

1. one *uninterrupted* checkpointed campaign
   (:class:`~repro.campaign.runtime.runner.CampaignRuntime` under the
   scenario's executor and hardening profile), whose ``report.json``,
   journal, and dump spool become the reference world;
2. one *crashed* campaign (``interrupt_after`` at the scenario's
   chosen point) plus its resume — possibly on a different executor —
   for the byte-identity oracle;
3. a coalesce-flipped campaign (batched ⇄ word-at-a-time extraction)
   for the extraction-equivalence oracle;
4. a profile-vs-strengthened-profile campaign pair, run under the
   scenario's scrape delay and executor, for the monotonicity oracle,
   and the same pair again inside one inference memo, as a defense
   sweep runs it, for the memo-neutrality oracle;
5. fast-path region maps over spooled residue for the differential
   scan oracles, plus mmap-backed re-reads of the same spool objects
   (``DumpSpool.open``) for the backing-equivalence oracle;
6. a *distributed* run of the same spec — a
   :class:`~repro.campaign.runtime.fabric.FabricCoordinator` on an
   ephemeral socket leasing board shards to the scenario's worker
   count, with an optional scripted worker kill whose lease expires
   on an injected :class:`~repro.campaign.runtime.fabric.ManualClock`
   and re-issues, and optional *transport* chaos (a
   :class:`~repro.campaign.runtime.netchaos.FlakyProxy` injecting
   scripted connection drops and full partitions between workers and
   coordinator) — for the fabric-identity oracle.

Offline prep (profiling + signature mining) is cached per
``(model mix, input size)`` across scenarios — it is a pure function
of those inputs, and it dominates the cost of a small campaign.

:func:`run_fuzz` loops a :class:`ScenarioGenerator` over a budget and
folds every verdict into a :class:`FuzzReport` whose JSON is
byte-deterministic for a given ``(seed, budget, oracles)``.

**Planted faults.**  A fuzzer that never fires is indistinguishable
from a fuzzer that cannot fire.  :data:`PLANTED_FAULTS` corrupts a
*built* world in one precise way per fault name (a dropped region, a
flipped report byte, a tampered spool object, an inflated residue
count, a swallowed outcome, a skewed mmap probe, a drifted memoized
row) so the test suite can prove, end to end,
that each oracle detects its failure class, that the shrinker reduces
a failing scenario, and that ``repro fuzz replay`` reproduces it from
the serialized seed alone.
"""

from __future__ import annotations

import json
import random
import tempfile
import threading
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.attack.carving import DumpCartographer, Region, RegionKind
from repro.campaign.engine import prepare_offline_cached, run_campaign
from repro.campaign.report import CampaignReport
from repro.campaign.runtime.fabric import (
    FabricCoordinator,
    FabricWorker,
    ManualClock,
)
from repro.campaign.runtime.netchaos import ChaosScript, FlakyProxy
from repro.campaign.runtime.runner import CampaignRuntime
from repro.campaign.runtime.spool import DumpSpool
from repro.campaign.schedule import build_schedule
from repro.campaign.worker import BoardEnd
from repro.defense.arena import summarize_run
from repro.defense.profiles import DefenseConfig, defense_profile
from repro.errors import (
    CampaignInterrupted,
    EmptyMetricError,
    FabricError,
    RetryExhaustedError,
)
from repro.utils.resilience import RetryPolicy
from repro.evaluation.metrics import nonzero_bytes, window_hit_rate
from repro.fuzzlab.oracles import (
    WORLD_INTEGRITY,
    BackingArtifact,
    MonotonicityArtifact,
    ProfileRun,
    RegionMapArtifact,
    ScenarioWorld,
    Violation,
    check_world,
    oracle_names,
    strengthened_axis,
)
from repro.fuzzlab.scenario import (
    Scenario,
    ScenarioGenerator,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.vitis.memo import MODEL_MEMO, inference_memo

MAX_ANALYZED_DUMPS = 3
"""Spool objects the analysis oracles read back per scenario (the
reference implementations are deliberate per-byte loops)."""

def strengthen(profile: DefenseConfig) -> tuple[DefenseConfig, str]:
    """A strictly-no-weaker profile plus the axis that was tightened.

    - sanitize ``NONE``       -> compose in synchronous ``zero_on_free``;
    - ``SCRUB_POOL``          -> double the background daemon's rate;
    - already ``ZERO_ON_FREE``-> unchanged (residue is provably zero).
    """
    axis = strengthened_axis(profile.sanitize_policy)
    if axis == "zero_on_free":
        return profile.compose(defense_profile("zero_on_free")), axis
    if axis == "scrub_rate":
        stronger = replace(
            profile,
            name=f"{profile.name}@2x",
            scrub_rate_per_tick=profile.scrub_rate_per_tick * 2,
        )
        return stronger, axis
    return profile, axis


@dataclass(frozen=True)
class WorldEval:
    """Deterministic measurements of one scenario under one profile.

    The lightweight sibling of :func:`build_world`: a *single*
    in-process campaign under the scenario's scrape delay.  The
    explorer (:mod:`repro.explore`) scores genomes on these numbers and
    promises byte-identical frontiers per seed, so only simulated work
    is summarized here — never the host time a board end also records.
    """

    profile: str
    victims: int
    success_rate: float
    identification_rate: float
    image_recovery_rate: float
    window_hit_rate: float
    residue_bytes: int
    """Nonzero bytes recovered fleet-wide (the leakage axis)."""
    bytes_scraped: int
    frames_scrubbed_sync: int
    frames_scrubbed_async: int
    scrub_backlog: int


def evaluate_world(
    scenario: Scenario, defense: DefenseConfig | None = None
) -> WorldEval:
    """Run *scenario* once, in process, and measure what leaked.

    The fitness-evaluation hook the explorer drives: reuses the
    engine's offline-prep cache
    (:func:`~repro.campaign.engine.prepare_offline_cached`) and sums
    the boards' :class:`~repro.campaign.worker.BoardEnd` counters as
    the defense arena does, but skips everything
    :func:`build_world` builds for the oracles — no crash/resume
    drill, no fabric, no spool re-reads.  *defense* overrides the
    scenario's named profile with an explicit
    :class:`~repro.defense.profiles.DefenseConfig` (how the Pareto
    sweep walks configs that have no registry name).
    """
    spec = scenario.to_spec()
    profiles, database = prepare_offline_cached(spec)
    profile = (
        defense
        if defense is not None
        else defense_profile(scenario.defense_profile)
    )
    ends: list[BoardEnd] = []
    report = run_campaign(
        spec,
        profiles,
        database,
        kernel_config=profile.kernel_config(spec),
        scrape_delay_ticks=scenario.scrape_delay_ticks,
        executor="inprocess",
        on_board_complete=lambda board, end: ends.append(end),
    )
    outcomes = report.outcomes
    try:
        hit_rate = window_hit_rate([o.residue_nbytes for o in outcomes])
    except EmptyMetricError:
        hit_rate = 0.0
    return WorldEval(
        profile=profile.name,
        victims=report.victims,
        success_rate=report.success_rate,
        identification_rate=report.identification_rate,
        image_recovery_rate=report.image_recovery_rate,
        window_hit_rate=hit_rate,
        residue_bytes=sum(o.residue_nbytes for o in outcomes),
        bytes_scraped=sum(o.nbytes for o in outcomes),
        frames_scrubbed_sync=sum(o.frames_scrubbed_sync for o in outcomes),
        frames_scrubbed_async=sum(end.frames_scrubbed_async for end in ends),
        scrub_backlog=sum(end.scrub_backlog for end in ends),
    )


FABRIC_LEASE_TTL = 30.0
"""Lease TTL for fuzzed fabric drills.  Time is a :class:`ManualClock`
the drill advances explicitly, so the value only has to be something a
drill can jump past — no wall clock ever waits on it."""

_FABRIC_DRAIN_ROUNDS = 12
"""Claim/expire rounds a fabric drill may take before the runner calls
non-convergence a world-build crash (a real finding)."""

_FUZZ_RETRY_POLICY = RetryPolicy(
    max_attempts=4, base_delay=0.01, max_delay=0.05, jitter=0.0
)
"""Worker retry policy for fuzzed fabric drills: enough attempts to
ride out every scripted connection drop, with delays that cost nothing
because the injected sleep below is a no-op."""


def _no_sleep(seconds: float) -> None:
    """Injected worker sleep for drills — backoff without wall clock."""
    del seconds


def _fabric_run(
    scenario: Scenario, spec, workdir: Path, prep
) -> bytes:
    """Serve *spec* through the distributed fabric; return report bytes.

    Round one runs the scenario's scripted casualty (when
    ``fabric_kill_after_waves`` is set) alongside nothing — it dies,
    its lease is left held.  Every subsequent round advances the
    manual clock past the lease TTL (expiring whatever a dead worker
    still holds) and throws ``fabric_workers`` fresh threaded workers
    at the coordinator until the campaign converges.

    Transport chaos rides on top: when ``fabric_drop_after_ops`` or
    ``fabric_partition_ticks`` is set, every worker reaches the
    coordinator through a :class:`FlakyProxy` that cuts the wire on a
    request-ordinal schedule (workers reconnect and replay under
    :data:`_FUZZ_RETRY_POLICY`) and, for partition ticks, refuses all
    traffic for whole rounds — those rounds' workers exhaust their
    budgets and give up cleanly, their leases expire, and the healed
    rounds finish the campaign.  The ``fabric_identity`` oracle then
    holds the report to byte-identity regardless.
    """
    clock = ManualClock()
    coordinator = FabricCoordinator(
        spec,
        workdir,
        lease_ttl=FABRIC_LEASE_TTL,
        clock=clock,
        prep=prep,
        defense_profile=scenario.defense_profile,
    )
    host, port = coordinator.serve()
    chaotic = (
        scenario.fabric_drop_after_ops is not None
        or scenario.fabric_partition_ticks > 0
    )
    proxy: FlakyProxy | None = None
    if chaotic:
        step = scenario.fabric_drop_after_ops
        script = ChaosScript(
            drop_after_requests=(
                tuple(range(step, 5000, step)) if step else ()
            )
        )
        proxy = FlakyProxy((host, port), script=script)
        host, port = proxy.start()

    def worker(worker_id: str, die_after_waves: int | None = None):
        return FabricWorker(
            host,
            port,
            worker_id=worker_id,
            poll_interval=None,
            heartbeat=False,
            die_after_waves=die_after_waves,
            retry_policy=_FUZZ_RETRY_POLICY,
            sleep=_no_sleep,
        )

    def run_round(workers: "list[FabricWorker]") -> None:
        def run_one(target: FabricWorker) -> None:
            try:
                target.run()
            except (FabricError, RetryExhaustedError, OSError):
                # A worker beaten by the chaos (budget exhausted
                # mid-partition, proxy cut one drop too many) gives up
                # cleanly; its lease expires and the board re-issues.
                # Non-convergence is still caught by the round cap.
                pass

        threads = [
            threading.Thread(target=run_one, args=(target,))
            for target in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    try:
        if scenario.fabric_kill_after_waves is not None:
            run_round(
                [
                    worker(
                        "fuzz-casualty",
                        die_after_waves=scenario.fabric_kill_after_waves,
                    )
                ]
            )
        if proxy is not None and scenario.fabric_partition_ticks > 0:
            # The outage: whole rounds where nothing gets through.
            proxy.partition()
            for tick in range(scenario.fabric_partition_ticks):
                run_round(
                    [
                        worker(f"fuzz-part{tick}w{index}")
                        for index in range(scenario.fabric_workers)
                    ]
                )
                clock.advance(FABRIC_LEASE_TTL + 1.0)
            proxy.heal()
        rounds = 0
        while not coordinator.done:
            if rounds >= _FABRIC_DRAIN_ROUNDS:
                raise RuntimeError(
                    f"fabric drill failed to converge in "
                    f"{_FABRIC_DRAIN_ROUNDS} rounds: {coordinator.status()}"
                )
            if rounds or scenario.fabric_kill_after_waves is not None:
                clock.advance(FABRIC_LEASE_TTL + 1.0)
            run_round(
                [
                    worker(f"fuzz-r{rounds}w{index}")
                    for index in range(scenario.fabric_workers)
                ]
            )
            rounds += 1
        coordinator.run_until_complete(timeout=60)
        # A worker the chaos beat never comes back.  One TTL of silence
        # settles it, so close() below does not wait for it.
        clock.advance(FABRIC_LEASE_TTL)
        return coordinator.run_dir.report_path.read_bytes()
    finally:
        if proxy is not None:
            proxy.close()
        coordinator.close()


def build_world(scenario: Scenario, workdir: str | Path) -> ScenarioWorld:
    """Run *scenario* end to end and collect the oracle artifacts."""
    workdir = Path(workdir)
    spec = scenario.to_spec()
    profiles, database = prepare_offline_cached(spec)
    profile = defense_profile(scenario.defense_profile)
    kernel_config = profile.kernel_config(spec)
    prep = (profiles, database)

    # 1. The uninterrupted reference run, from a cold model memo; the
    # fabric run of step 6 finds it warm, so fabric identity also holds
    # memoized model work against this run.
    MODEL_MEMO.clear()
    full = CampaignRuntime(
        spec,
        workdir / "full",
        executor=scenario.executor,
        processes=scenario.processes,
        prep=prep,
        kernel_config=kernel_config,
    )
    baseline_report = full.run()
    baseline_bytes = full.run_dir.report_path.read_bytes()

    # 2. Crash at the scenario's interrupt point, then resume.
    crash = CampaignRuntime(
        spec,
        workdir / "crash",
        executor=scenario.executor,
        processes=scenario.processes,
        interrupt_after=scenario.interrupt_after,
        prep=prep,
        kernel_config=kernel_config,
    )
    try:
        crash.run()
        interrupted = False
    except CampaignInterrupted:
        interrupted = True
        CampaignRuntime.resume(
            workdir / "crash",
            executor=scenario.resume_executor,
            prep=prep,
            kernel_config=kernel_config,
        ).run()
    resumed_bytes = crash.run_dir.report_path.read_bytes()

    # 3. Flip the extraction mode; everything else identical.
    alt_report = run_campaign(
        replace(spec, coalesce_reads=not spec.coalesce_reads),
        profiles,
        database,
        kernel_config=kernel_config,
        executor="inprocess",
        spool=DumpSpool(workdir / "alt-spool"),
    )

    # 4. The monotonicity pair, under the scenario's scrape delay:
    # plain, then inside one inference memo, where the second profile
    # replays the first one's inferences.  Already-zeroing profiles
    # strengthen to themselves and simply run twice.
    stronger, axis = strengthen(profile)
    pair_spool = DumpSpool(workdir / "pair-spool")

    def run_pair() -> tuple[ProfileRun, ...]:
        runs = []
        for config in (profile, stronger):
            ends: list[BoardEnd] = []
            report = run_campaign(
                spec,
                profiles,
                database,
                kernel_config=config.kernel_config(spec),
                scrape_delay_ticks=scenario.scrape_delay_ticks,
                executor=scenario.executor,
                processes=scenario.processes,
                spool=pair_spool,
                on_board_complete=lambda board, end: ends.append(end),
            )
            runs.append(
                ProfileRun(
                    # The oracle compares no host-time column.
                    row=summarize_run(config, report, ends, None, 0.0),
                    outcomes=tuple(report.outcomes),
                )
            )
        return tuple(runs)

    pair_runs = run_pair()
    with inference_memo():
        memo_pair_runs = run_pair()

    # 5. Read residue back from the spool; map it with the fast paths.
    spool = full.run_dir.spool
    digests = spool.digests()
    rng = random.Random((spec.seed + 1) * 31 + scenario.scenario_id)
    selected = sorted(
        rng.sample(digests, min(MAX_ANALYZED_DUMPS, len(digests)))
    )
    dumps = [(digest, spool.read(digest)) for digest in selected]
    cartographer = DumpCartographer(window=scenario.carve_window)
    region_maps = [
        RegionMapArtifact(
            digest=digest,
            data=data[: scenario.analysis_cap],
            regions=tuple(
                cartographer.map_dump(data[: scenario.analysis_cap])
            ),
        )
        for digest, data in dumps
    ]
    # Re-read the same objects zero-copy and analyze straight off the
    # mapping; the backing_equivalence oracle holds these against the
    # slurped-bytes recompute.
    backings = []
    for digest, _ in dumps:
        with spool.open(digest) as mapped:
            backings.append(
                BackingArtifact(
                    digest=digest,
                    nbytes=mapped.nbytes,
                    nonzero=nonzero_bytes(mapped.data),
                    regions=tuple(cartographer.map_dump(mapped.data)),
                    matches=database.match(mapped.data),
                )
            )

    # 6. The same spec through the distributed fabric (coordinator +
    # fabric_workers threaded workers, optional scripted casualty), in
    # this process, whose model memo step 3 has warmed.
    fabric_bytes = _fabric_run(scenario, spec, workdir / "fabric", prep)

    world = ScenarioWorld(
        scenario=scenario,
        spec=spec,
        schedule=tuple(build_schedule(spec)),
        database=database,
        cartographer=cartographer,
        baseline_report=baseline_report,
        baseline_report_bytes=baseline_bytes,
        resumed_report_bytes=resumed_bytes,
        interrupted=interrupted,
        spool_digests=tuple(digests),
        manifest=tuple(spool.load_manifest()),
        dumps=dumps,
        region_maps=region_maps,
        backings=backings,
        alt_outcomes=tuple(alt_report.outcomes),
        monotonicity=MonotonicityArtifact(
            base_profile=profile.name,
            stronger_profile=stronger.name,
            stronger_axis=axis,
            base_outcomes=pair_runs[0].outcomes,
            stronger_outcomes=pair_runs[1].outcomes,
        ),
        fabric_report_bytes=fabric_bytes,
        pair_runs=pair_runs,
        memo_pair_runs=memo_pair_runs,
    )
    if scenario.planted_fault is not None:
        plant_fault(world, scenario.planted_fault)
    return world


# -- planted faults -----------------------------------------------------------


def _plant_map_tamper(world: ScenarioWorld) -> None:
    """Corrupt one region map so it no longer tiles its dump."""
    for index, artifact in enumerate(world.region_maps):
        regions = list(artifact.regions)
        if not regions:
            continue
        if len(regions) >= 2:
            del regions[len(regions) // 2]
        elif regions[0].length >= 2:
            first = regions[0]
            regions[0] = Region(first.start, first.end - 1, first.kind)
        else:
            regions.append(Region(1, 2, regions[0].kind))
        world.region_maps[index] = RegionMapArtifact(
            artifact.digest, artifact.data, tuple(regions)
        )
        return
    # No residue was spooled (e.g. a pinned-Xen fleet): forge a map
    # with a coverage gap over synthetic bytes.
    world.region_maps.append(
        RegionMapArtifact(
            digest="0" * 64,
            data=b"\x00" * 512,
            regions=(Region(0, 256, RegionKind.ZERO),),
        )
    )


def _plant_resume_tamper(world: ScenarioWorld) -> None:
    """Flip one byte of the resumed run's canonical report."""
    data = world.resumed_report_bytes
    if len(data) < 2:
        world.resumed_report_bytes = b"\x00"
        return
    world.resumed_report_bytes = (
        data[:-2] + bytes([data[-2] ^ 0xFF]) + data[-1:]
    )


def _plant_spool_tamper(world: ScenarioWorld) -> None:
    """Make one spool object's bytes disagree with its digest."""
    if world.dumps:
        digest, data = world.dumps[0]
        tampered = (
            data[:-1] + bytes([data[-1] ^ 0x5A]) if data else b"\x5a"
        )
        world.dumps[0] = (digest, tampered)
    else:
        world.dumps.append(("f" * 64, b"\x5a"))


def _plant_residue_tamper(world: ScenarioWorld) -> None:
    """Inflate a strengthened-profile outcome's leaked-byte count."""
    pair = world.monotonicity
    strong = list(pair.stronger_outcomes)
    base_total = sum(o.residue_nbytes for o in pair.base_outcomes)
    strong[0] = replace(
        strong[0], residue_nbytes=strong[0].residue_nbytes + base_total + 1
    )
    world.monotonicity = replace(
        pair, stronger_outcomes=tuple(strong)
    )


def _plant_report_tamper(world: ScenarioWorld) -> None:
    """Swallow the last outcome of the baseline report."""
    world.baseline_report.outcomes = world.baseline_report.outcomes[:-1]


def _plant_backing_tamper(world: ScenarioWorld) -> None:
    """Skew one mmap-side analysis result away from its bytes twin."""
    if world.backings:
        artifact = world.backings[0]
        world.backings[0] = replace(
            artifact, nonzero=artifact.nonzero + 1
        )
    else:
        # Nothing was spooled (e.g. a pinned-Xen fleet): forge a probe
        # for an object the bytes side never read.
        world.backings.append(
            BackingArtifact(
                digest="e" * 64,
                nbytes=16,
                nonzero=16,
                regions=(),
                matches={},
            )
        )


def _plant_fabric_lost_outcome(world: ScenarioWorld) -> None:
    """Swallow the last outcome of the fabric run's report.

    The exact corruption a broken coordinator produces: a worker's
    wave was acked but never journaled, so the distributed report is
    one outcome short of the single-host truth.
    """
    data = world.fabric_report_bytes
    if not data:
        world.fabric_report_bytes = b"{}"
        return
    report = CampaignReport.from_json(data.decode("utf-8"))
    report.outcomes = report.outcomes[:-1]
    world.fabric_report_bytes = (report.to_json() + "\n").encode("utf-8")


def _plant_memo_tamper(world: ScenarioWorld) -> None:
    """Skew the residue of the last row computed under the inference memo.

    What a memo returning a stale or foreign output would do: the
    sweep's numbers drift from the plain run's.
    """
    runs = list(world.memo_pair_runs)
    row = runs[-1].row
    runs[-1] = replace(
        runs[-1], row=replace(row, residue_bytes=row.residue_bytes + 1)
    )
    world.memo_pair_runs = tuple(runs)


PLANTED_FAULTS: dict[str, Callable[[ScenarioWorld], None]] = {
    "map-tamper": _plant_map_tamper,
    "resume-tamper": _plant_resume_tamper,
    "spool-tamper": _plant_spool_tamper,
    "residue-tamper": _plant_residue_tamper,
    "report-tamper": _plant_report_tamper,
    "backing-tamper": _plant_backing_tamper,
    "fabric-lost-outcome": _plant_fabric_lost_outcome,
    "memo-tamper": _plant_memo_tamper,
}
"""Deliberate world corruptions, each aimed at one oracle's failure
class.  Part of the public surface: a committed regression seed with a
``planted_fault`` must keep reproducing its violation forever."""


def plant_fault(world: ScenarioWorld, fault: str) -> None:
    """Apply the named corruption to a built world."""
    try:
        PLANTED_FAULTS[fault](world)
    except KeyError:
        raise ValueError(
            f"unknown planted fault {fault!r}; known: "
            f"{sorted(PLANTED_FAULTS)}"
        ) from None
    world.notes.append(f"planted fault: {fault}")


# -- verdicts and the fuzz loop -----------------------------------------------


@dataclass(frozen=True)
class ScenarioVerdict:
    """One scenario's oracle outcome."""

    scenario: Scenario
    oracles: tuple[str, ...]
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        """Whether every oracle held."""
        return not self.violations

    @property
    def violated_oracles(self) -> tuple[str, ...]:
        """Names of the oracles that fired, sorted and deduplicated."""
        return tuple(sorted({v.oracle for v in self.violations}))

    def to_dict(self) -> dict:
        """JSON-trivial form (deterministic for a fixed scenario)."""
        return {
            "scenario": scenario_to_dict(self.scenario),
            "oracles": list(self.oracles),
            "violations": [
                {"oracle": v.oracle, "message": v.message}
                for v in self.violations
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioVerdict":
        """Rebuild a verdict from :meth:`to_dict` output."""
        return cls(
            scenario=scenario_from_dict(payload["scenario"]),
            oracles=tuple(payload["oracles"]),
            violations=tuple(
                Violation(oracle=v["oracle"], message=v["message"])
                for v in payload["violations"]
            ),
        )


def _checked(
    scenario: Scenario, selected: tuple[str, ...], workdir: Path
) -> list[Violation]:
    """Build and check one world; a stack crash is itself a finding."""
    try:
        world = build_world(scenario, workdir)
        return check_world(world, selected)
    except Exception as error:  # noqa: BLE001 — crashes are fuzz findings
        # The workdir is a fresh temp path each run; scrub it from the
        # message so verdicts stay byte-deterministic.
        detail = str(error).replace(str(workdir), "<workdir>")
        return [
            Violation(
                oracle=WORLD_INTEGRITY,
                message=(
                    f"world build crashed: "
                    f"{type(error).__name__}: {detail}"
                ),
            )
        ]


def run_scenario(
    scenario: Scenario,
    oracles: tuple[str, ...] | None = None,
    workdir: str | Path | None = None,
) -> ScenarioVerdict:
    """Build *scenario*'s world and hold every requested oracle to it.

    Campaign artifacts land in *workdir* (kept for post-mortems) or a
    temporary directory cleaned up on return.  An exception escaping
    the attack stack itself comes back as a
    :data:`~repro.fuzzlab.oracles.WORLD_INTEGRITY` violation rather
    than propagating — a fuzzer that dies on the bug it just found
    cannot shrink it.
    """
    selected = oracle_names() if oracles is None else tuple(oracles)
    if workdir is not None:
        violations = _checked(scenario, selected, Path(workdir))
    else:
        with tempfile.TemporaryDirectory(prefix="fuzzlab-") as tmp:
            violations = _checked(scenario, selected, Path(tmp))
    return ScenarioVerdict(
        scenario=scenario,
        oracles=selected,
        violations=tuple(violations),
    )


@dataclass
class FuzzReport:
    """Everything one ``repro fuzz run`` concluded."""

    seed: int
    budget: int
    oracles: tuple[str, ...]
    verdicts: list[ScenarioVerdict]

    @property
    def ok(self) -> bool:
        """Whether the whole run came back green."""
        return all(verdict.ok for verdict in self.verdicts)

    def failures(self) -> list[ScenarioVerdict]:
        """Verdicts with at least one violation, in scenario order."""
        return [verdict for verdict in self.verdicts if not verdict.ok]

    def to_json(self) -> str:
        """Deterministic JSON: same seed+budget+oracles, same bytes."""
        return json.dumps(
            {
                "format": 1,
                "seed": self.seed,
                "budget": self.budget,
                "oracles": list(self.oracles),
                "verdicts": [verdict.to_dict() for verdict in self.verdicts],
            },
            indent=2,
            sort_keys=True,
        )

    def render(self) -> str:
        """The text summary ``repro fuzz run`` prints."""
        failures = self.failures()
        lines = [
            "=== Fuzzlab report ===",
            (
                f"seed {self.seed}, budget {self.budget}, "
                f"{len(self.oracles)} oracle(s): "
                f"{', '.join(self.oracles)}"
            ),
            (
                f"verdicts: {len(self.verdicts) - len(failures)} ok, "
                f"{len(failures)} violating"
            ),
        ]
        for verdict in failures:
            lines.append("")
            lines.append(f"FAIL {verdict.scenario.label()}")
            for violation in verdict.violations:
                lines.append(f"  [{violation.oracle}] {violation.message}")
        return "\n".join(lines)


ProgressFn = Callable[[ScenarioVerdict], None]


def run_fuzz(
    budget: int,
    seed: int = 0,
    oracles: tuple[str, ...] | None = None,
    on_verdict: ProgressFn | None = None,
) -> FuzzReport:
    """Fuzz *budget* scenarios from *seed*'s deterministic stream."""
    selected = oracle_names() if oracles is None else tuple(oracles)
    generator = ScenarioGenerator(seed)
    verdicts = []
    for scenario in generator.generate(budget):
        verdict = run_scenario(scenario, oracles=selected)
        verdicts.append(verdict)
        if on_verdict is not None:
            on_verdict(verdict)
    return FuzzReport(
        seed=seed, budget=budget, oracles=selected, verdicts=verdicts
    )
