"""Differential and invariant oracles over one fuzzed campaign world.

An oracle is a named pure function from a :class:`ScenarioWorld` — the
artifacts the runner collected while driving the real attack stack
through one :class:`~repro.fuzzlab.scenario.Scenario` — to a list of
human-readable violation messages.  Empty list = the invariant held.

The registry covers every cross-cutting contract the codebase claims:

``scan_equivalence``
    every fast path in :mod:`repro.analysis.scan` (region maps, window
    classification, entropy, printable fraction, nonzero counting, the
    Aho–Corasick signature matcher), the numpy marker-row search of
    :class:`~repro.utils.hexdump.HexDump` and the regex ``strings`` of
    :func:`~repro.utils.strings.extract_strings` is byte-/score-identical
    to its loop reference in :mod:`repro.analysis.reference`, on real
    scraped residue; each region map is also redrawn, and each dump's
    whole-buffer entropy, printable fraction and non-zero count
    recounted, by a scan core with tiny blocks, so the block and
    histogram boundaries a capped dump never reaches at the default
    sizes are crossed too;
``region_partition``
    a region map is a partition of the dump: starts at zero, covers
    every byte, no gaps, no overlaps, maximal runs, and the bisecting
    ``region_at`` agrees with the linear reference everywhere;
``resume_identity``
    a campaign crashed at an arbitrary journaled-outcome count and
    resumed (possibly on a different executor) writes a ``report.json``
    byte-identical to the uninterrupted run's;
``spool_integrity``
    every spooled dump reads back as bytes hashing to its own name,
    and the manifest/outcome digests all resolve in the store;
``defense_monotonicity``
    strictly strengthening a hardening profile never leaks more: a
    ``zero_on_free`` fleet leaks nothing, and doubling the scrub rate
    never increases surviving residue;
``report_consistency``
    outcomes are exactly the schedule (one per scheduled victim, with
    matching placement), the per-model and per-board breakdowns do not
    depend on outcome order and sum to the fleet totals, JSON
    round-trips losslessly, and the in-memory report matches the bytes
    the runtime persisted;
``extraction_equivalence``
    coalesced (batched) and word-at-a-time extraction scrape
    byte-identical residue and reach identical verdicts;
``backing_equivalence``
    re-reading a spooled object through an mmap backing
    (:meth:`DumpSpool.open <repro.campaign.runtime.spool.DumpSpool.open>`)
    yields region maps, nonzero counts, and signature scores identical
    to the slurped-bytes read of the same object;
``allocator_equivalence``
    the sparse physical-ASLR frame pool of
    :class:`~repro.mmu.frame_alloc.FrameAllocator` hands out, frees,
    reports and drains exactly what the materialized reference pool
    does, over a scenario-seeded alloc/free script per reuse policy,
    on each of the scenario's boards and on a small range the script
    drains;
``fabric_identity``
    the same spec served through the distributed fabric — a
    :class:`~repro.campaign.runtime.fabric.FabricCoordinator` leasing
    board shards to the scenario's worker count over a real socket,
    with an optional scripted mid-board worker kill and re-lease, and
    optional transport chaos (a
    :class:`~repro.campaign.runtime.netchaos.FlakyProxy` injecting
    scripted connection drops and full partitions) — writes a
    ``report.json`` byte-identical to the single-host run's;
``memo_neutrality``
    the per-sweep inference memo of :mod:`repro.vitis.memo` changes no
    result: the monotonicity pair gives identical defense rows (host
    time aside) and identical outcomes (spooled, so each dump digest
    pins the scraped bytes) with and without an inference memo shared
    across its two profiles.  The model memo's cold-versus-warm check
    is ``fabric_identity``'s: the reference run starts from a cleared
    model memo, and the threaded fabric run finds it warm.

Violation messages carry only deterministic facts (digests, job ids,
counts) — never wall-clock values or filesystem paths — so a fuzz
report is byte-stable for a given seed and budget.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.reference import (
    ReferenceFrameAllocator,
    reference_classify_window,
    reference_extract_strings,
    reference_map_dump,
    reference_marker_run_rows,
    reference_match,
    reference_nonzero_bytes,
    reference_printable_fraction,
    reference_region_at,
    reference_shannon_entropy,
)
from repro.analysis.scan import ScanCore
from repro.attack.carving import (
    DumpCartographer,
    Region,
    printable_fraction,
    shannon_entropy,
)
from repro.attack.identify import SignatureDatabase
from repro.campaign.report import CampaignReport
from repro.campaign.schedule import CampaignSpec, VictimJob, build_schedule
from repro.campaign.worker import VictimOutcome
from repro.defense.matrix import HOST_TIME_COLUMNS, DefenseRow
from repro.errors import OutOfMemoryError
from repro.evaluation.metrics import nonzero_bytes
from repro.hw.board import board_by_name
from repro.mmu.frame_alloc import FrameAllocator, ReusePolicy
from repro.mmu.paging import PAGE_SIZE
from repro.petalinux.kernel import DEFAULT_RESERVED_FRAMES
from repro.petalinux.sanitizer import SanitizePolicy
from repro.utils.hexdump import HexDump
from repro.utils.strings import extract_strings

ENTROPY_TOLERANCE = 1e-9
"""Float tolerance for entropy equivalence (the fast path sums the
same terms in a different order; everything else is exact)."""

SAMPLED_WINDOWS = 8
"""Random windows / offsets probed per dump by the sampling checks."""

MARKER_WORD = 0xFFFFFFFF
"""The white corruption marker of Fig. 12 as a 32-bit word; its rows
are searched for alone and in the runs of two the reconstructor keeps."""

STRING_MIN_LENGTHS = (4, 6)
"""``strings(1)``'s default run length and the profiler's."""


class _TinyBlockCore(ScanCore):
    """A scan core whose blocks and histogram batches are tiny: the
    analysis caps (4-64 KiB) sit inside one default block."""

    BLOCK_BYTES = 1024
    HISTOGRAM_SCRATCH = 6 * 1024


_TINY_BLOCK_CORE = _TinyBlockCore()

ALLOCATOR_SCRIPT_STEPS = 48
"""Alloc/free steps per replayed allocator script."""

ALLOCATOR_DRAIN_FRAMES = 256
"""Frames drained one by one after a script: the whole of a small
range, enough of a board's to expose pool order and the RNG."""


@dataclass(frozen=True)
class Violation:
    """One oracle's verdict that an invariant broke."""

    oracle: str
    message: str


@dataclass(frozen=True)
class RegionMapArtifact:
    """One dump slice and the fast-path region map computed over it."""

    digest: str
    data: bytes
    regions: tuple[Region, ...]


@dataclass(frozen=True)
class BackingArtifact:
    """Analysis results computed over one mmap-backed spool read.

    The runner opens each selected spool object a second time via
    ``DumpSpool.open`` and runs the zero-copy analysis paths straight
    over the mapping; the ``backing_equivalence`` oracle recomputes the
    same quantities from the slurped-bytes read and demands equality.
    """

    digest: str
    nbytes: int
    nonzero: int
    regions: tuple[Region, ...]
    matches: dict[str, tuple[float, list[str]]]


@dataclass(frozen=True)
class MonotonicityArtifact:
    """One profile-vs-strengthened-profile campaign pair."""

    base_profile: str
    stronger_profile: str
    stronger_axis: str
    """Which axis was strengthened: ``zero_on_free`` (sanitize added),
    ``scrub_rate`` (daemon rate doubled), or ``already_zeroing``."""
    base_outcomes: tuple[VictimOutcome, ...]
    stronger_outcomes: tuple[VictimOutcome, ...]


@dataclass(frozen=True)
class ProfileRun:
    """One profile's campaign as a defense sweep sees it."""

    row: DefenseRow
    outcomes: tuple[VictimOutcome, ...]
    """Spooled, so every extracted outcome's dump digest pins the
    bytes its attack scraped."""


@dataclass
class ScenarioWorld:
    """Everything the runner observed driving one scenario.

    Mutable on purpose: planted faults corrupt a built world in place,
    which is how the fuzzer's own failure-detection machinery is
    itself tested end to end.
    """

    scenario: object  # repro.fuzzlab.scenario.Scenario (kept duck-typed)
    spec: CampaignSpec
    schedule: tuple[VictimJob, ...]
    database: SignatureDatabase
    cartographer: DumpCartographer
    baseline_report: CampaignReport
    baseline_report_bytes: bytes
    resumed_report_bytes: bytes
    interrupted: bool
    spool_digests: tuple[str, ...]
    manifest: tuple[dict, ...]
    dumps: list[tuple[str, bytes]]
    """Selected ``(digest, full bytes)`` pairs read back from the
    spool (capped in count, never in bytes — the hash check needs the
    whole object)."""
    region_maps: list[RegionMapArtifact]
    backings: list[BackingArtifact]
    """mmap-backed re-reads of the same selected spool objects, one
    per entry of ``dumps``."""
    alt_outcomes: tuple[VictimOutcome, ...]
    monotonicity: MonotonicityArtifact
    fabric_report_bytes: bytes
    """``report.json`` written by the distributed-fabric run of the
    same spec (coordinator + ``scenario.fabric_workers`` workers,
    optional scripted kill); the ``fabric_identity`` oracle holds it
    against ``baseline_report_bytes``."""
    pair_runs: tuple[ProfileRun, ...]
    """The monotonicity pair, profile by profile."""
    memo_pair_runs: tuple[ProfileRun, ...]
    """The same pair re-run inside one inference memo."""
    notes: list[str] = field(default_factory=list)

    def sampling_rng(self, salt: int) -> random.Random:
        """A deterministic per-oracle sampling stream."""
        return random.Random((self.spec.seed + 1) * 7_919 + salt)


WORLD_INTEGRITY = "world_integrity"
"""Reserved pseudo-oracle name: the runner reports a crash *while
building the world* (a campaign, resume drill, or spool read blowing
up) under this name, so stack crashes are first-class fuzz findings —
shrinkable and replayable like any oracle violation.  Not in the
registry because it has no check function of its own."""

OracleFn = Callable[[ScenarioWorld], list[str]]

ORACLES: dict[str, OracleFn] = {}


def oracle(name: str) -> Callable[[OracleFn], OracleFn]:
    """Register a world invariant under *name*."""

    def register(fn: OracleFn) -> OracleFn:
        if name in ORACLES:
            raise ValueError(f"duplicate oracle {name!r}")
        ORACLES[name] = fn
        return fn

    return register


def oracle_names() -> tuple[str, ...]:
    """Every registered oracle, sorted."""
    return tuple(sorted(ORACLES))


def check_world(
    world: ScenarioWorld, names: tuple[str, ...] | None = None
) -> list[Violation]:
    """Run the named oracles (default: all) over one built world."""
    selected = oracle_names() if names is None else names
    unknown = sorted(set(selected) - set(ORACLES))
    if unknown:
        raise ValueError(
            f"unknown oracle(s) {unknown}; known: {list(oracle_names())}"
        )
    violations = []
    for name in selected:
        violations.extend(
            Violation(oracle=name, message=message)
            for message in ORACLES[name](world)
        )
    return violations


# -- 1. fast paths vs reference implementations -------------------------------


@oracle("scan_equivalence")
def _scan_equivalence(world: ScenarioWorld) -> list[str]:
    """Fast scan paths must match their per-byte references exactly."""
    problems = []
    rng = world.sampling_rng(salt=1)
    for artifact in world.region_maps:
        data = artifact.data
        window = world.scenario.carve_window
        reference = tuple(reference_map_dump(data, window=window))
        if artifact.regions != reference:
            problems.append(
                f"dump {artifact.digest[:12]}: fast map_dump produced "
                f"{len(artifact.regions)} region(s), reference "
                f"{len(reference)} — maps diverge"
            )
        tiny = DumpCartographer(window=window, core=_TINY_BLOCK_CORE)
        if tuple(tiny.map_dump(data)) != reference:
            problems.append(
                f"dump {artifact.digest[:12]}: map_dump over tiny scan "
                f"blocks diverges from the reference"
            )
        if nonzero_bytes(data) != reference_nonzero_bytes(data):
            problems.append(
                f"dump {artifact.digest[:12]}: nonzero_bytes diverges "
                f"from reference"
            )
        stats = _TINY_BLOCK_CORE.byte_stats(data)
        if (stats.printable_fraction, stats.nonzero) != (
            reference_printable_fraction(data), reference_nonzero_bytes(data)
        ) or (
            abs(stats.entropy - reference_shannon_entropy(data))
            > ENTROPY_TOLERANCE
        ):
            problems.append(
                f"dump {artifact.digest[:12]}: byte statistics over tiny "
                f"histogram pieces diverge from the references"
            )
        for sample in _sample_windows(rng, data, window):
            fast = world.cartographer.classify_window(sample)
            slow = reference_classify_window(sample)
            if fast is not slow:
                problems.append(
                    f"dump {artifact.digest[:12]}: window classified "
                    f"{fast.value} by the fast path, {slow.value} by the "
                    f"reference"
                )
            delta = abs(
                shannon_entropy(sample) - reference_shannon_entropy(sample)
            )
            if delta > ENTROPY_TOLERANCE:
                problems.append(
                    f"dump {artifact.digest[:12]}: entropy diverges by "
                    f"{delta:.3e} (tolerance {ENTROPY_TOLERANCE:.0e})"
                )
            if printable_fraction(sample) != reference_printable_fraction(
                sample
            ):
                problems.append(
                    f"dump {artifact.digest[:12]}: printable_fraction "
                    f"diverges from reference"
                )
        if world.database.match(data) != reference_match(
            world.database, data
        ):
            problems.append(
                f"dump {artifact.digest[:12]}: Aho–Corasick signature "
                f"match diverges from scan-per-token reference"
            )
        for minimum_rows in (1, 2):
            if HexDump(data).marker_run_rows(
                MARKER_WORD, minimum_rows
            ) != reference_marker_run_rows(data, MARKER_WORD, minimum_rows):
                problems.append(
                    f"dump {artifact.digest[:12]}: marker rows (runs of "
                    f">= {minimum_rows}) diverge from the per-row reference"
                )
        for minimum_length in STRING_MIN_LENGTHS:
            fast_hits = extract_strings(data, minimum_length)
            if fast_hits != reference_extract_strings(data, minimum_length):
                problems.append(
                    f"dump {artifact.digest[:12]}: strings (runs of >= "
                    f"{minimum_length}) diverge from the per-byte reference"
                )
    return problems


def _sample_windows(
    rng: random.Random, data: bytes, window: int
) -> list[bytes]:
    """Deterministic window samples: edges plus random interior cuts."""
    if not data:
        return [b""]
    samples = [data[:window], data[-(len(data) % window or window):]]
    for _ in range(SAMPLED_WINDOWS):
        start = rng.randrange(len(data))
        samples.append(data[start : start + window])
    return samples


# -- 2. region maps partition the dump ----------------------------------------


@oracle("region_partition")
def _region_partition(world: ScenarioWorld) -> list[str]:
    """A region map must tile its dump exactly, with maximal runs."""
    problems = []
    rng = world.sampling_rng(salt=2)
    for artifact in world.region_maps:
        data, regions = artifact.data, artifact.regions
        tag = f"dump {artifact.digest[:12]}"
        if not data:
            if regions:
                problems.append(f"{tag}: empty dump mapped to regions")
            continue
        if not regions:
            problems.append(f"{tag}: non-empty dump mapped to no regions")
            continue
        if regions[0].start != 0:
            problems.append(
                f"{tag}: map starts at {regions[0].start:#x}, not 0"
            )
        if regions[-1].end != len(data):
            problems.append(
                f"{tag}: map ends at {regions[-1].end:#x}, dump has "
                f"{len(data):#x} bytes"
            )
        for left, right in zip(regions, regions[1:]):
            if left.end != right.start:
                problems.append(
                    f"{tag}: gap/overlap between {left.end:#x} and "
                    f"{right.start:#x}"
                )
            if left.kind is right.kind:
                problems.append(
                    f"{tag}: adjacent regions both {left.kind.value} — "
                    f"runs are not maximal"
                )
        if any(region.length <= 0 for region in regions):
            problems.append(f"{tag}: empty or negative-length region")
        totals = DumpCartographer.kind_totals(list(regions))
        if sum(totals.values()) != len(data):
            problems.append(
                f"{tag}: kind totals sum to {sum(totals.values())}, dump "
                f"has {len(data)} bytes"
            )
        offsets = [0, len(data) - 1] + [
            rng.randrange(len(data)) for _ in range(SAMPLED_WINDOWS)
        ]
        region_list = list(regions)
        for offset in offsets:
            # On a well-formed map neither lookup may raise; on a
            # corrupt one both must agree the offset is unmapped.
            try:
                fast = world.cartographer.region_at(region_list, offset)
            except ValueError:
                fast = None
            try:
                slow = reference_region_at(region_list, offset)
            except ValueError:
                slow = None
            if fast != slow:
                problems.append(
                    f"{tag}: region_at({offset:#x}) bisects to "
                    f"{_span(fast)} but linear scan finds {_span(slow)}"
                )
            elif fast is None:
                problems.append(
                    f"{tag}: offset {offset:#x} inside the dump is not "
                    f"covered by any region"
                )
    return problems


def _span(region: Region | None) -> str:
    if region is None:
        return "no region"
    return f"[{region.start:#x},{region.end:#x})"


# -- 3. resume determinism ----------------------------------------------------


@oracle("resume_identity")
def _resume_identity(world: ScenarioWorld) -> list[str]:
    """Crash + resume must reproduce the uninterrupted report, byte for byte."""
    scenario = world.scenario
    problems = []
    if not world.interrupted:
        problems.append(
            f"interrupt_after={scenario.interrupt_after} never fired "
            f"(campaign has {world.spec.victims} victims)"
        )
    if not world.baseline_report_bytes:
        problems.append("uninterrupted run produced no report.json")
    if world.resumed_report_bytes != world.baseline_report_bytes:
        problems.append(
            f"resumed report diverges from uninterrupted report "
            f"(crash after {scenario.interrupt_after} outcome(s), "
            f"{scenario.executor} -> {scenario.resume_executor}): "
            f"{_digest(world.resumed_report_bytes)} != "
            f"{_digest(world.baseline_report_bytes)}"
        )
    return problems


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


# -- 4. spool round-trip integrity --------------------------------------------


@oracle("spool_integrity")
def _spool_integrity(world: ScenarioWorld) -> list[str]:
    """Content-addressed storage must read back what it was named for."""
    problems = []
    stored = set(world.spool_digests)
    for digest, data in world.dumps:
        actual = hashlib.sha256(data).hexdigest()
        if actual != digest:
            problems.append(
                f"spool object {digest[:12]} reads back as bytes hashing "
                f"to {actual[:12]}"
            )
    by_digest = dict(world.dumps)
    for record in world.manifest:
        if record["sha256"] not in stored:
            problems.append(
                f"manifest job {record['job_id']} names digest "
                f"{record['sha256'][:12]} which the spool does not hold"
            )
        data = by_digest.get(record["sha256"])
        if data is not None and len(data) != record["nbytes"]:
            problems.append(
                f"manifest job {record['job_id']} claims {record['nbytes']} "
                f"bytes, object holds {len(data)}"
            )
    for outcome in world.baseline_report.outcomes:
        if outcome.dump_sha256 is not None and outcome.dump_sha256 not in stored:
            problems.append(
                f"outcome job {outcome.job_id} cites dump "
                f"{outcome.dump_sha256[:12]} missing from the spool"
            )
    return problems


# -- 5. defense monotonicity --------------------------------------------------


@oracle("defense_monotonicity")
def _defense_monotonicity(world: ScenarioWorld) -> list[str]:
    """Strengthening a profile must never increase leaked residue."""
    pair = world.monotonicity
    problems = []
    base = {outcome.job_id: outcome for outcome in pair.base_outcomes}
    strong = {outcome.job_id: outcome for outcome in pair.stronger_outcomes}
    if sorted(base) != sorted(strong):
        problems.append(
            f"profile pair {pair.base_profile!r} vs "
            f"{pair.stronger_profile!r} attacked different victim sets"
        )
        return problems
    base_total = sum(outcome.residue_nbytes for outcome in pair.base_outcomes)
    strong_total = sum(
        outcome.residue_nbytes for outcome in pair.stronger_outcomes
    )
    if strong_total > base_total:
        problems.append(
            f"strengthening {pair.base_profile!r} -> "
            f"{pair.stronger_profile!r} ({pair.stronger_axis}) increased "
            f"total residue {base_total} -> {strong_total}"
        )
    if pair.stronger_axis in ("zero_on_free", "already_zeroing"):
        # Synchronous zeroing is absolute: no per-victim residue at all.
        for job_id in sorted(strong):
            outcome = strong[job_id]
            if outcome.residue_nbytes != 0:
                problems.append(
                    f"job {job_id} leaked {outcome.residue_nbytes} residue "
                    f"byte(s) under zero-on-free profile "
                    f"{pair.stronger_profile!r}"
                )
            if outcome.residue_nbytes > base[job_id].residue_nbytes:
                problems.append(
                    f"job {job_id} residue grew "
                    f"{base[job_id].residue_nbytes} -> "
                    f"{outcome.residue_nbytes} under the stronger profile"
                )
    return problems


def strengthened_axis(policy: SanitizePolicy) -> str:
    """Which monotonicity axis applies to a profile's sanitize policy."""
    if policy is SanitizePolicy.NONE:
        return "zero_on_free"
    if policy is SanitizePolicy.SCRUB_POOL:
        return "scrub_rate"
    return "already_zeroing"


# -- 6. report-aggregation consistency ----------------------------------------


@oracle("report_consistency")
def _report_consistency(world: ScenarioWorld) -> list[str]:
    """One outcome per scheduled victim; all aggregation views agree."""
    report = world.baseline_report
    problems = []
    problems.extend(_schedule_conformance(report, world.schedule))
    problems.extend(_aggregation_agreement(report, world))
    rendered = report.to_json() + "\n"
    if rendered.encode("utf-8") != world.baseline_report_bytes:
        problems.append(
            "in-memory report diverges from the report.json the runtime "
            "persisted"
        )
    round_tripped = CampaignReport.from_json(report.to_json())
    if round_tripped.to_json() != report.to_json():
        problems.append("report JSON round-trip is not lossless")
    return problems


def _schedule_conformance(
    report: CampaignReport, schedule: tuple[VictimJob, ...]
) -> list[str]:
    problems = []
    outcomes = {outcome.job_id: outcome for outcome in report.outcomes}
    jobs = {job.job_id: job for job in schedule}
    missing = sorted(set(jobs) - set(outcomes))
    extra = sorted(set(outcomes) - set(jobs))
    if missing:
        problems.append(f"scheduled job(s) {missing} have no outcome")
    if extra:
        problems.append(f"outcome(s) {extra} match no scheduled job")
    if [o.job_id for o in report.outcomes] != sorted(outcomes):
        problems.append("report outcomes are not sorted by job_id")
    for job_id in sorted(set(jobs) & set(outcomes)):
        job, outcome = jobs[job_id], outcomes[job_id]
        placement = (
            outcome.board_index,
            outcome.tenant_index,
            outcome.launch_wave,
            outcome.model_name,
        )
        scheduled = (
            job.board_index,
            job.tenant_index,
            job.launch_wave,
            job.model_name,
        )
        if placement != scheduled:
            problems.append(
                f"job {job_id} ran as {placement}, scheduled as {scheduled}"
            )
    return problems


def _aggregation_agreement(
    report: CampaignReport, world: ScenarioWorld
) -> list[str]:
    problems = []
    shuffled = list(report.outcomes)
    world.sampling_rng(salt=6).shuffle(shuffled)
    reordered = CampaignReport(report.spec, shuffled)
    if (report.per_model(), report.per_board()) != (
        reordered.per_model(),
        reordered.per_board(),
    ):
        problems.append("aggregation depends on outcome order")
    succeeded = sum(1 for o in report.outcomes if o.succeeded)
    board_succeeded = sum(row.succeeded for row in report.per_board())
    if board_succeeded != succeeded:
        problems.append(
            f"board breakdown counts {board_succeeded} successes, "
            f"outcomes say {succeeded}"
        )
    model_victims = sum(row.victims for row in report.per_model())
    board_victims = sum(row.victims for row in report.per_board())
    if model_victims != report.victims or board_victims != report.victims:
        problems.append(
            f"breakdown victim counts (model={model_victims}, "
            f"board={board_victims}) do not sum to {report.victims}"
        )
    return problems


# -- 7. coalesced vs word-at-a-time extraction --------------------------------


@oracle("extraction_equivalence")
def _extraction_equivalence(world: ScenarioWorld) -> list[str]:
    """Batched and word-mode extraction must scrape identical residue."""
    problems = []
    base = {o.job_id: o for o in world.baseline_report.outcomes}
    alt = {o.job_id: o for o in world.alt_outcomes}
    if sorted(base) != sorted(alt):
        problems.append(
            "coalesce-flipped campaign attacked a different victim set"
        )
        return problems
    for job_id in sorted(base):
        one, other = base[job_id], alt[job_id]
        fields = (
            ("dump_sha256", one.dump_sha256, other.dump_sha256),
            ("residue_nbytes", one.residue_nbytes, other.residue_nbytes),
            ("nbytes", one.nbytes, other.nbytes),
            ("pages_read", one.pages_read, other.pages_read),
            ("identified_model", one.identified_model, other.identified_model),
            ("pixel_match_rate", one.pixel_match_rate, other.pixel_match_rate),
            ("failed_step", one.failed_step, other.failed_step),
        )
        for name, lhs, rhs in fields:
            if lhs != rhs:
                problems.append(
                    f"job {job_id}: {name} differs between coalesced and "
                    f"word-mode extraction ({lhs!r} != {rhs!r})"
                )
    return problems


# -- 8. mmap-backed vs bytes-backed analysis ----------------------------------


@oracle("backing_equivalence")
def _backing_equivalence(world: ScenarioWorld) -> list[str]:
    """A spool object must analyze identically under either backing.

    The runner computed ``world.backings`` straight over mmap views
    (``DumpSpool.open``); this oracle recomputes the same quantities
    from the slurped ``world.dumps`` bytes with the same cartographer
    and database.  Any divergence means the zero-copy read path and
    the copying read path disagree about the same on-disk object.
    """
    problems = []
    by_digest = dict(world.dumps)
    probed = sorted(artifact.digest for artifact in world.backings)
    if probed != sorted(by_digest):
        problems.append(
            f"mmap probes cover {len(probed)} spool object(s), bytes "
            f"reads cover {len(by_digest)} — the backings were taken "
            f"over different object sets"
        )
        return problems
    for artifact in world.backings:
        data = by_digest[artifact.digest]
        tag = f"dump {artifact.digest[:12]}"
        if artifact.nbytes != len(data):
            problems.append(
                f"{tag}: mmap backing holds {artifact.nbytes} byte(s), "
                f"bytes read holds {len(data)}"
            )
            continue
        if artifact.nonzero != nonzero_bytes(data):
            problems.append(
                f"{tag}: nonzero count is {artifact.nonzero} over the "
                f"mmap backing, {nonzero_bytes(data)} over bytes"
            )
        regions = tuple(world.cartographer.map_dump(data))
        if artifact.regions != regions:
            problems.append(
                f"{tag}: map_dump produced {len(artifact.regions)} "
                f"region(s) over the mmap backing, {len(regions)} over "
                f"bytes — backings diverge"
            )
        if artifact.matches != world.database.match(data):
            problems.append(
                f"{tag}: signature scores diverge between mmap and "
                f"bytes backings"
            )
    return problems


# -- 9. distributed fabric vs single host -------------------------------------


@oracle("fabric_identity")
def _fabric_identity(world: ScenarioWorld) -> list[str]:
    """A distributed run must reproduce the single-host report exactly.

    The runner served the scenario's spec through a real coordinator
    socket with ``scenario.fabric_workers`` concurrent workers and —
    when the scenario scripts them — a worker killed mid-board whose
    lease expired and re-issued, scripted connection drops forcing
    reconnect-and-replay, and full partitions riding a ``FlakyProxy``.
    Worker count, claim interleaving, crash choreography, and network
    weather are all implementation detail; the report bytes are the
    contract.
    """
    scenario = world.scenario
    problems = []
    if not world.fabric_report_bytes:
        problems.append("fabric run produced no report.json")
        return problems
    if world.fabric_report_bytes != world.baseline_report_bytes:
        kill = scenario.fabric_kill_after_waves
        drop = scenario.fabric_drop_after_ops
        chaos = [
            "no scripted kill" if kill is None
            else f"kill after {kill} wave(s)",
            "clean wire" if drop is None
            else f"drop every {drop} op(s)",
        ]
        if scenario.fabric_partition_ticks:
            chaos.append(
                f"{scenario.fabric_partition_ticks} partition tick(s)"
            )
        problems.append(
            f"distributed report diverges from single-host report "
            f"({scenario.fabric_workers} worker(s), "
            f"{', '.join(chaos)}): "
            f"{_digest(world.fabric_report_bytes)} != "
            f"{_digest(world.baseline_report_bytes)}"
        )
    return problems


# -- 10. sparse vs materialized physical-ASLR frame pool ----------------------


@oracle("allocator_equivalence")
def _allocator_equivalence(world: ScenarioWorld) -> list[str]:
    """The sparse frame pool must behave exactly as the materialized one.

    Replays one scenario-seeded alloc/free script per reuse policy on a
    :class:`FrameAllocator` and a :class:`ReferenceFrameAllocator`, over
    the user frame range of each of the scenario's boards and over a
    small range the script drains and refills.
    """
    rng = world.sampling_rng(salt=10)
    small = rng.randint(2, 96)
    board_frames = sorted(
        {
            board_by_name(name).dram_size // PAGE_SIZE
            for name in world.scenario.board_names
        }
    )
    geometries = [
        (total, DEFAULT_RESERVED_FRAMES) for total in board_frames
    ] + [(small, rng.randrange(small))]
    problems = []
    for total, base in geometries:
        for policy in ReusePolicy:
            seed = rng.randrange(1 << 16)
            script = [
                (rng.random() < 0.6, rng.randint(1, 16))
                for _ in range(ALLOCATOR_SCRIPT_STEPS)
            ]
            probes = [base - 1, base, total - 1, total] + [
                rng.randrange(base, total) for _ in range(SAMPLED_WINDOWS)
            ]
            fast = _allocation_trace(
                FrameAllocator(total, base, policy, seed), script, probes
            )
            slow = _allocation_trace(
                ReferenceFrameAllocator(total, base, policy, seed),
                script,
                probes,
            )
            if fast != slow:
                step = next(
                    (
                        index
                        for index, (one, other) in enumerate(zip(fast, slow))
                        if one != other
                    ),
                    min(len(fast), len(slow)),
                )
                problems.append(
                    f"{policy.value} pool over frames [{base}, {total}), "
                    f"seed {seed}: diverges from the materialized reference "
                    f"at observation {step}"
                )
    return problems


def _allocation_trace(
    allocator: FrameAllocator,
    script: list[tuple[bool, int]],
    probes: list[int],
) -> list:
    """What *script* lets one observe of *allocator*.

    Each step is an allocation of *count* frames (skipped when fewer
    are free) or a free of held block ``count % len(held)``.  The trace
    holds every allocation's frames, ``free_frames()`` after every
    step, ``is_free`` of the probes and of every frame handed out, and
    a frame-by-frame drain.  An allocator error ends the trace as its
    last observation: a pool that hands out a held frame shows up as a
    wild free.
    """
    trace: list = []
    held: list[list[int]] = []
    handed_out: set[int] = set()
    try:
        for step, (allocate, count) in enumerate(script):
            if allocate and count <= allocator.free_frames():
                frames = allocator.allocate(count, owner=step)
                held.append(frames)
                handed_out.update(frames)
                trace.append(frames)
            elif not allocate and held:
                allocator.free(held.pop(count % len(held)))
            trace.append(allocator.free_frames())
        trace.append(
            [allocator.is_free(frame) for frame in probes + sorted(handed_out)]
        )
        drain = min(allocator.free_frames(), ALLOCATOR_DRAIN_FRAMES)
        trace.append([allocator.allocate(1)[0] for _ in range(drain)])
    except (OutOfMemoryError, ValueError) as error:
        trace.append(f"{type(error).__name__}: {error}")
    return trace


# -- 11. memoized vs recomputed model work ------------------------------------


@oracle("memo_neutrality")
def _memo_neutrality(world: ScenarioWorld) -> list[str]:
    """The inference memo must not change a single result.

    A warm model memo is held against the cold reference run by
    ``fabric_identity``, whose threaded workers run with it warm.
    """
    problems = []
    if len(world.memo_pair_runs) != len(world.pair_runs):
        problems.append(
            f"inference-memo pair has {len(world.memo_pair_runs)} run(s), "
            f"the plain pair {len(world.pair_runs)}"
        )
    for plain, memoized in zip(world.pair_runs, world.memo_pair_runs):
        profile = plain.row.profile
        differing = sorted(
            name
            for name, value in vars(plain.row).items()
            if name not in HOST_TIME_COLUMNS
            and vars(memoized.row)[name] != value
        )
        if differing:
            problems.append(
                f"profile {profile!r} row under the inference memo "
                f"differs in {', '.join(differing)}"
            )
        expected = {outcome.job_id: outcome for outcome in plain.outcomes}
        got = {outcome.job_id: outcome for outcome in memoized.outcomes}
        changed = sorted(
            job for job in expected.keys() | got.keys()
            if expected.get(job) != got.get(job)
        )
        if changed:
            problems.append(
                f"profile {profile!r}: job(s) {changed} came out "
                f"differently under the inference memo"
            )
    return problems
