#!/usr/bin/env python3
"""The ``make bench-json`` gate: verify the scan core, record the trajectory.

Builds a deterministic multi-megabyte dump (zero, quantized-weight,
random, text and marker sections — the mix a real victim heap shows)
plus a multi-model signature database, then:

1. verifies every fast path against its reference implementation from
   :mod:`repro.analysis.reference` — byte-identical region maps,
   identical identification scores, identical window classifications
   (empty / all-zero / single-byte / partial-trailing-window edges
   included), identical ``region_at`` lookups, residue counts and
   ``strings`` hits — plus the zero-copy lanes: the pooled coalesced
   scrape must produce a dump byte-identical to the per-page reference
   strategy, and the mmap-backed spool read must score identically to
   the slurped read — and the offline-prep lane: coalesced
   ``prepare_offline`` must give the word-mode profiles and signature
   database, and the coalesced weight-probe layout the word-mode one —
   and the physical-ASLR lane: a ZCU102 ``RANDOM`` frame allocator must
   draw the same frames from its sparse pool as from the materialized
   reference pool — and the spool-put lane: campaign-sized dumps filed
   through the segment spool and through the one-file-per-object
   reference writer must read back as the same bytes under the same
   digests.
   **Any divergence exits nonzero without timing anything.**
2. times fast vs. reference (best-of-``--repeats`` wall clock), offline
   prep with coalesced vs. word reads, a physical-ASLR boot with the
   sparse vs. materialized pool (plus each one's ``tracemalloc``
   peak), spool filing with segments vs. one file per object, and an
   end-to-end fleet
   campaign — in-process and multiprocess twins on the same 8-board
   spec, plus an ``explore`` lane timing a bounded evolutionary search
   (generations/s through the real campaign engine) — and writes the
   results to ``BENCH_analysis.json`` so the perf trajectory is
   committed and comparable PR-over-PR.

Exit status: 0 = verified and recorded, 2 = a fast path diverged from
its reference or the multiprocess executor regressed below the
in-process twin (``speedup_vs_inprocess < 1.0``).  See
``docs/performance.md`` for how to read the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.analysis.reference import (  # noqa: E402
    ReferenceDumpSpool,
    ReferenceFrameAllocator,
    reference_extract_strings,
    reference_map_dump,
    reference_match,
    reference_nonzero_bytes,
    reference_classify_window,
    reference_region_at,
)
from repro.analysis.scan import ScanCore, nonzero_count  # noqa: E402
from repro.attack.addressing import AddressHarvester  # noqa: E402
from repro.attack.carving import DumpCartographer  # noqa: E402
from repro.attack.config import AttackConfig  # noqa: E402
from repro.attack.extraction import MemoryScraper, ScrapedDump  # noqa: E402
from repro.attack.identify import ModelSignature, SignatureDatabase  # noqa: E402
from repro.attack.weights import profile_weight_layout  # noqa: E402
from repro.campaign import CampaignSpec, prepare_offline, run_campaign  # noqa: E402
from repro.campaign.runtime import DumpSpool  # noqa: E402
from repro.campaign.runtime.executors import (  # noqa: E402
    InProcessExecutor,
    MultiprocessExecutor,
)
from repro.evaluation.scenarios import BoardSession  # noqa: E402
from repro.hw.board import ZCU102  # noqa: E402
from repro.mmu.frame_alloc import FrameAllocator, ReusePolicy  # noqa: E402
from repro.mmu.paging import PAGE_SIZE  # noqa: E402
from repro.petalinux.kernel import DEFAULT_RESERVED_FRAMES  # noqa: E402
from repro.utils.buffers import BufferPool  # noqa: E402
from repro.utils.strings import extract_strings  # noqa: E402

SEED = 20240315
MODELS = 12
TOKENS_PER_MODEL = 40
PROBE_MODEL = "resnet50_pt"
"""The defense arena's weight-probe model (``prepare_weight_probe``)."""


def build_database(rng: np.random.Generator) -> list[ModelSignature]:
    """Zoo-scale signatures of path/kernel-style tokens."""
    signatures = []
    for index in range(MODELS):
        model = f"model{index:02d}_pt"
        tokens = set()
        for j in range(TOKENS_PER_MODEL // 2):
            tokens.add(
                f"/usr/share/vitis_ai_library/models/{model}/layer_{j:03d}.params"
            )
        for j in range(TOKENS_PER_MODEL - len(tokens)):
            tokens.add(f"{model}_kernel_{j:03d}_fix{int(rng.integers(1000)):03d}")
        signatures.append(
            ModelSignature(model_name=model, tokens=frozenset(tokens))
        )
    return signatures


def build_dump(mib: float, database: list[ModelSignature],
               rng: np.random.Generator) -> bytes:
    """A deterministic dump with the section mix of a real victim heap.

    The "victim" (model 5) leaves all of its tokens in the text
    sections; every other model leaves a couple of stray tokens, so
    identification scores are non-trivial in both directions.
    """
    victim = database[5]
    strays = [sorted(sig.tokens)[:2] for sig in database if sig is not victim]
    text = bytearray()
    for token in sorted(victim.tokens):
        text += token.encode() + b"\x00"
    for pair in strays:
        for token in pair:
            text += token.encode() + b"\x00"
    text += b"/usr/lib/libvart-runner.so.3\x00/etc/vart.conf\x00" * 40

    target = int(mib * 1024 * 1024)
    parts: list[bytes] = []
    size = 0
    while size < target:
        section = [
            bytes(256 * 1024),  # scrubbed / never-written slack
            rng.integers(-12, 13, size=512 * 1024, dtype=np.int8).tobytes(),
            rng.integers(0, 256, size=192 * 1024, dtype=np.uint8).tobytes(),  # runtime structures
            bytes(text[: 48 * 1024]),  # metadata strings
            b"\xff" * (32 * 1024),  # marker block
        ]
        for chunk in section:
            parts.append(chunk)
            size += len(chunk)
    # Odd tail so the partial-trailing-window path is always exercised.
    parts.append(rng.integers(0, 256, size=777, dtype=np.uint8).tobytes())
    return b"".join(parts)


def build_extraction_scenario():
    """A harvested victim heap on a booted board, post-termination.

    Returns ``(session, harvested)`` — everything a
    :class:`MemoryScraper` needs to replay the extraction, so the
    bench can time read strategies against the same physical pages.
    """
    session = BoardSession.boot()
    run = session.victim_application().launch("resnet50_pt")
    harvester = AddressHarvester(
        session.attacker_shell.procfs, caller=session.attacker_shell.user
    )
    harvested = harvester.harvest(run.pid)
    run.terminate()
    return session, harvested


def best_of(repeats: int, fn, *args) -> tuple[float, object]:
    """Best wall-clock seconds over *repeats* runs, plus the result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - started)
    return best, result


def verify(dump: bytes, cartographer: DumpCartographer,
           database: SignatureDatabase,
           rng: np.random.Generator) -> list[str]:
    """Every fast-path-vs-reference divergence, as printable strings."""
    failures: list[str] = []

    fast_regions = cartographer.map_dump(dump)
    ref_regions = reference_map_dump(dump)
    if fast_regions != ref_regions:
        failures.append(
            f"map_dump diverged: {len(fast_regions)} fast regions vs "
            f"{len(ref_regions)} reference"
        )

    if database.match(dump) != reference_match(database, dump):
        failures.append("SignatureDatabase.match diverged from in-scan reference")

    if nonzero_count(dump) != reference_nonzero_bytes(dump):
        failures.append("nonzero_count diverged from per-byte reference")

    for minimum_length in (4, 6):
        if extract_strings(dump, minimum_length) != reference_extract_strings(
            dump, minimum_length
        ):
            failures.append(
                f"extract_strings (>= {minimum_length}) diverged from "
                f"per-byte reference"
            )

    edges = [b"", b"\x00", b"\x00" * 256, b"\x7f", b"\xfe" * 300]
    for _ in range(64):
        length = int(rng.integers(1, 512))
        edges.append(rng.integers(0, 256, size=length, dtype=np.uint8).tobytes())
    for window in edges:
        fast_kind = cartographer.classify_window(window)
        ref_kind = reference_classify_window(window)
        if fast_kind is not ref_kind:
            failures.append(
                f"classify_window diverged on {len(window)}-byte window: "
                f"{fast_kind} vs {ref_kind}"
            )

    offsets = [0, len(dump) - 1] + [
        int(rng.integers(len(dump))) for _ in range(256)
    ]
    for offset in offsets:
        if cartographer.region_at(fast_regions, offset) != reference_region_at(
            ref_regions, offset
        ):
            failures.append(f"region_at diverged at offset {offset:#x}")
    for outside in (-1, len(dump), len(dump) + 512):
        for lookup in (cartographer.region_at, reference_region_at):
            try:
                lookup(fast_regions, outside)
            except ValueError:
                continue
            failures.append(f"region_at({outside:#x}) failed to raise")
    return failures


def verify_zero_copy(pooled_dump: ScrapedDump, reference_dump: ScrapedDump,
                     spool: DumpSpool, digest: str, dump: bytes) -> list[str]:
    """Divergences in the zero-copy extraction and spool-read paths."""
    failures: list[str] = []
    if bytes(pooled_dump.data) != reference_dump.data:
        failures.append(
            "pooled coalesced scrape diverged from per-page reference dump"
        )
    if pooled_dump.devmem_reads > reference_dump.devmem_reads:
        failures.append(
            f"coalescing failed: {pooled_dump.devmem_reads} reads vs "
            f"{reference_dump.devmem_reads} per-page"
        )
    with spool.open(digest) as mapped:
        if bytes(mapped.data) != dump:
            failures.append("mmap-backed spool read diverged from slurped read")
        if nonzero_count(mapped.data) != nonzero_count(dump):
            failures.append("nonzero_count over mmap diverged from bytes")
    return failures


def word_mode_prep(spec: CampaignSpec) -> tuple:
    """``prepare_offline`` scraping as the paper does, a word per devmem."""
    reference = BoardSession.boot(input_hw=spec.input_hw)
    profiles = reference.profile(sorted(set(spec.model_mix)))
    return profiles, SignatureDatabase.from_profiles(profiles)


def probe_layout(spec: CampaignSpec, config: AttackConfig):
    """The weight probe's layout scrape, on its own reference board."""
    shell = BoardSession.boot(input_hw=spec.input_hw).attacker_shell
    return profile_weight_layout(
        shell, PROBE_MODEL, input_hw=spec.input_hw, config=config
    )


def verify_offline_prep(spec: CampaignSpec) -> list[str]:
    """Divergences between coalesced and word-mode offline prep."""
    failures: list[str] = []
    word_profiles, word_database = word_mode_prep(spec)
    profiles, database = prepare_offline(spec)
    if profiles.to_json() != word_profiles.to_json():
        failures.append("prepare_offline profiles diverged from word reads")
    if database.to_payload() != word_database.to_payload():
        failures.append("prepare_offline database diverged from word reads")
    coalesced_layout = probe_layout(spec, AttackConfig(coalesce_reads=True))
    if coalesced_layout != probe_layout(spec, AttackConfig()):
        failures.append("weight-probe layout diverged from word reads")
    return failures


ASLR_BLOCKS = 32
ASLR_BLOCK_FRAMES = 36
"""The ``aslr_boot`` script's blocks and their size in frames."""


def aslr_boot(allocator_class: type[FrameAllocator]) -> list[int]:
    """Boot a ZCU102 physical-ASLR allocator and draw a fixed script.

    Allocates :data:`ASLR_BLOCKS` blocks, frees every other one and
    draws that many blocks again, the churn of a board's first waves;
    returns every frame drawn, in order.
    """
    allocator = allocator_class(
        ZCU102.dram_size // PAGE_SIZE,
        DEFAULT_RESERVED_FRAMES,
        ReusePolicy.RANDOM,
        seed=SEED,
    )
    blocks = [
        allocator.allocate(ASLR_BLOCK_FRAMES, owner=pid)
        for pid in range(ASLR_BLOCKS)
    ]
    for block in blocks[::2]:
        allocator.free(block)
    blocks += [
        allocator.allocate(ASLR_BLOCK_FRAMES, owner=ASLR_BLOCKS + pid)
        for pid in range(ASLR_BLOCKS // 2)
    ]
    return [frame for block in blocks for frame in block]


WARMUP_MAX_PAIRS = 8
WARMUP_AGREEMENT = 1.15
"""Campaign-twin warm-up: pairs run until two consecutive multiprocess
walls, each shorter than its pair's in-process wall, are within 15 %
of each other, or :data:`WARMUP_MAX_PAIRS` ran."""

SPOOL_PUT_DUMPS = 256
"""Dumps the ``spool_put`` lane files per run, as a 256-victim
campaign's workers would."""


def campaign_dumps(base: bytes, count: int) -> list[bytes]:
    """*count* distinct campaign-sized dumps: copies of *base* (a real
    victim heap) with their index stamped into the first 8 bytes."""
    return [index.to_bytes(8, "little") + base[8:] for index in range(count)]


def file_dumps(spool_class: type[DumpSpool], root: Path,
               dumps: list[bytes]) -> DumpSpool:
    """A fresh *spool_class* at *root* with every dump ``put`` into it."""
    spool = spool_class(root)
    for data in dumps:
        spool.put(ScrapedDump(pid=1, heap_start=0, data=data,
                              pages_read=0, pages_skipped=0, devmem_reads=0))
    return spool


def verify_spool_put(dumps: list[bytes], scratch: Path) -> list[str]:
    """Divergences between the segment spool and the per-file writer."""
    failures: list[str] = []
    expected = {hashlib.sha256(data).hexdigest(): data for data in dumps}
    for spool_class in (DumpSpool, ReferenceDumpSpool):
        spool = file_dumps(spool_class, scratch / spool_class.__name__, dumps)
        name = spool_class.__name__
        if spool.digests() != sorted(expected):
            failures.append(f"spool_put: {name} lists other digests")
        if spool.total_bytes() != sum(map(len, expected.values())):
            failures.append(f"spool_put: {name} holds other byte totals")
        if any(spool.read(digest) != data
               for digest, data in expected.items()):
            failures.append(f"spool_put: {name} read back other bytes")
        shutil.rmtree(spool.root)
    return failures


def traced_peak_mib(fn, *args) -> float:
    """Peak MiB that ``tracemalloc`` saw allocated during one call."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1024**2


def host_info() -> dict:
    """The host the numbers were taken on: cores, CPU, library versions."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_analysis.json")
    parser.add_argument("--mib", type=float, default=4.0,
                        help="benchmark dump size in MiB (default 4)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing runs per path; best is kept")
    args = parser.parse_args()

    rng = np.random.default_rng(SEED)
    signatures = build_database(rng)
    database = SignatureDatabase(signatures)
    dump = build_dump(args.mib, signatures, rng)
    mib = len(dump) / (1024 * 1024)
    cartographer = DumpCartographer(core=ScanCore())
    print(f"bench dump: {mib:.2f} MiB, database: {MODELS} models x "
          f"{TOKENS_PER_MODEL} tokens")

    # The zero-copy scenarios: a real harvested heap for the
    # extraction lane, and the bench dump filed in a scratch spool for
    # the spool-read lane.
    session, harvested = build_extraction_scenario()
    devmem = session.attacker_shell.devmem_tool
    attacker = session.attacker_shell.user
    pool = BufferPool()
    pooled_scraper = MemoryScraper(
        devmem, attacker, AttackConfig(coalesce_reads=True), buffer_pool=pool
    )
    reference_scraper = MemoryScraper(
        devmem, attacker, AttackConfig(bulk_reads=True)
    )
    pooled_dump = pooled_scraper.scrape(harvested)
    reference_dump = reference_scraper.scrape(harvested)
    extraction_mib = reference_dump.nbytes / (1024 * 1024)

    spool_dir = tempfile.TemporaryDirectory(prefix="bench_spool_")
    spool = DumpSpool(Path(spool_dir.name) / "spool")
    entry = spool.put(
        ScrapedDump(pid=1, heap_start=0, data=dump,
                    pages_read=0, pages_skipped=0, devmem_reads=0)
    )

    prep_spec = CampaignSpec()  # the default three-model mix
    failures = verify(dump, cartographer, database, rng)
    failures += verify_zero_copy(
        pooled_dump, reference_dump, spool, entry.sha256, dump
    )
    failures += verify_offline_prep(prep_spec)
    if aslr_boot(FrameAllocator) != aslr_boot(ReferenceFrameAllocator):
        failures.append(
            "aslr_boot: the sparse physical-ASLR pool drew different "
            "frames than the materialized reference pool"
        )
    spool_dumps = campaign_dumps(reference_dump.data, SPOOL_PUT_DUMPS)
    spool_scratch = Path(spool_dir.name)
    failures += verify_spool_put(spool_dumps, spool_scratch)
    pooled_dump.release()
    if failures:
        for failure in failures:
            print(f"DIVERGENCE: {failure}", file=sys.stderr)
        print("bench_runner: fast paths diverged; refusing to record timings",
              file=sys.stderr)
        return 2
    print("verified: every fast path matches its reference implementation")

    map_fast, regions = best_of(args.repeats, cartographer.map_dump, dump)
    map_ref, _ = best_of(args.repeats, reference_map_dump, dump)
    id_fast, _ = best_of(args.repeats, database.match, dump)
    id_ref, _ = best_of(args.repeats, reference_match, database, dump)
    nz_fast, nonzero = best_of(args.repeats, nonzero_count, dump)
    nz_ref, _ = best_of(args.repeats, reference_nonzero_bytes, dump)

    def scrape_pooled() -> ScrapedDump:
        scraped = pooled_scraper.scrape(harvested)
        scraped.release()  # next repeat reuses the buffer, like a wave
        return scraped

    ext_fast, _ = best_of(args.repeats, scrape_pooled)
    ext_ref, _ = best_of(args.repeats, reference_scraper.scrape, harvested)

    def spool_mmap_read() -> int:
        with spool.open(entry.sha256) as mapped:
            return nonzero_count(mapped.data)

    def spool_slurp_read() -> int:
        return nonzero_count(spool.read(entry.sha256))

    spool_fast, _ = best_of(args.repeats, spool_mmap_read)
    spool_ref, _ = best_of(args.repeats, spool_slurp_read)

    # Filing: each run puts every dump into a fresh spool, the two
    # writers alternating so host drift hits both; the directories are
    # removed outside the timed region.
    put_seconds = {DumpSpool: [], ReferenceDumpSpool: []}
    for run in range(args.repeats):
        for spool_class, seconds in put_seconds.items():
            root = spool_scratch / f"{spool_class.__name__}-{run}"
            started = time.perf_counter()
            file_dumps(spool_class, root, spool_dumps)
            seconds.append(time.perf_counter() - started)
            shutil.rmtree(root)
    put_fast = min(put_seconds[DumpSpool])
    put_ref = min(put_seconds[ReferenceDumpSpool])
    put_mib = sum(map(len, spool_dumps)) / 1024**2
    del spool_dumps

    # The scrapes a defense sweep's prep makes: the profiles and
    # signature database plus the weight probe's layout, each on a
    # freshly booted reference board, coalesced (as prepare_offline and
    # prepare_weight_probe scrape) against word reads.
    def prep_coalesced() -> None:
        prepare_offline(prep_spec)
        probe_layout(prep_spec, AttackConfig(coalesce_reads=True))

    def prep_word() -> None:
        word_mode_prep(prep_spec)
        probe_layout(prep_spec, AttackConfig())

    prep_fast, _ = best_of(args.repeats, prep_coalesced)
    prep_ref, _ = best_of(args.repeats, prep_word)

    # Campaign twins at 8 boards — the fleet size the auto policy
    # sends to processes.  Offline prep is shared attacker state,
    # identical for both executors (forked shards inherit it), so it is
    # hoisted out of the timed region; every multiprocess run forks its
    # own shard processes and joins them, so the lane prices process
    # startup the way every campaign pays it.  Runs are paired
    # (in-process then processes, back to back) and the speedup is the
    # median of per-pair ratios, so machine-load drift hits both lanes
    # alike instead of faking a regression either way.
    spec = CampaignSpec(boards=8, victims=32, seed=SEED % 10_000)
    campaign_profiles, campaign_database = prepare_offline(spec)
    inprocess_executor = InProcessExecutor()
    mp_executor = MultiprocessExecutor()

    def run_inprocess() -> object:
        return run_campaign(
            spec, profiles=campaign_profiles, database=campaign_database,
            executor=inprocess_executor,
        )

    def run_multiprocess() -> object:
        return run_campaign(
            spec, profiles=campaign_profiles, database=campaign_database,
            executor=mp_executor,
        )

    # Warm-up pairs until two consecutive multiprocess walls agree
    # within WARMUP_AGREEMENT.  After the host has idled, the shards
    # of the first several runs share one CPU (/proc/stat shows the
    # other idle through whole pairs) and take about twice as long;
    # those slow walls agree with each other as well as fast ones do,
    # so only a wall shorter than its pair's in-process wall counts.
    warmup_pairs = 0
    previous_wall = None
    while warmup_pairs < WARMUP_MAX_PAIRS:
        started = time.perf_counter()
        report = run_inprocess()
        inprocess_wall = time.perf_counter() - started
        started = time.perf_counter()
        mp_report = run_multiprocess()
        wall = time.perf_counter() - started
        warmup_pairs += 1
        parallel_wall = wall if wall < inprocess_wall else None
        if previous_wall is not None and parallel_wall is not None and (
            max(wall, previous_wall)
            <= WARMUP_AGREEMENT * min(wall, previous_wall)
        ):
            break
        previous_wall = parallel_wall
    inprocess_walls: list[float] = []
    mp_walls: list[float] = []
    pair_ratios: list[float] = []
    for _ in range(args.repeats + 2):
        started = time.perf_counter()
        report = run_inprocess()
        inprocess_walls.append(time.perf_counter() - started)
        started = time.perf_counter()
        mp_report = run_multiprocess()
        mp_walls.append(time.perf_counter() - started)
        pair_ratios.append(inprocess_walls[-1] / mp_walls[-1])
    mp_speedup = statistics.median(pair_ratios)

    def campaign_lane(report, walls: list[float]) -> dict:
        # Both rates come from the median wall recorded beside them.
        wall = statistics.median(walls)
        return {
            "boards": spec.boards,
            "victims": report.victims,
            "wall_seconds": round(wall, 3),
            "victims_per_second": round(report.victims / wall, 3),
            "mib_per_second": round(report.total_bytes / wall / 1024**2, 2),
        }

    # The explore lane: a bounded evolution through the real campaign
    # engine, recorded as generations/s.  One warm run first so the
    # engine's offline-prep cache is populated and the timed run
    # prices the search itself, not one-time profiling.  Trajectory
    # only, never gated — search throughput tracks campaign cost, and
    # the campaign lanes above already gate that.
    from repro.explore import EvolutionConfig, evolve

    explore_config = EvolutionConfig(
        seed=SEED % 1009, population=4, generations=3,
        elites=1, fitness="residue", profile="none", input_hw=16,
    )
    evolve(explore_config)  # warm the prep cache
    started = time.perf_counter()
    explore_result = evolve(explore_config)
    explore_wall = time.perf_counter() - started

    # The aslr_boot lane runs after the campaign twins: the
    # materialized pool builds and drops 73 MiB, and tracemalloc's
    # bookkeeping stays resident after it stops (about 100 MiB), which
    # every forked shard of a later multiprocess run would inherit.
    aslr_fast, aslr_draws = best_of(args.repeats, aslr_boot, FrameAllocator)
    aslr_ref, _ = best_of(args.repeats, aslr_boot, ReferenceFrameAllocator)
    aslr_fast_mib = traced_peak_mib(aslr_boot, FrameAllocator)
    aslr_ref_mib = traced_peak_mib(aslr_boot, ReferenceFrameAllocator)

    def lane(fast: float, reference: float, lane_mib: float = mib) -> dict:
        return {
            "fast_seconds": round(fast, 6),
            "reference_seconds": round(reference, 6),
            "fast_mib_per_s": round(lane_mib / fast, 2),
            "reference_mib_per_s": round(lane_mib / reference, 2),
            "speedup": round(reference / fast, 2),
        }

    payload = {
        "generated_by": "tools/bench_runner.py (make bench-json)",
        "host": host_info(),
        "verified": True,
        "dump": {
            "mib": round(mib, 3),
            "seed": SEED,
            "regions": len(regions),
            "nonzero_bytes": nonzero,
        },
        "database": {"models": MODELS, "tokens": MODELS * TOKENS_PER_MODEL},
        "map_dump": lane(map_fast, map_ref),
        "identify": lane(id_fast, id_ref),
        "nonzero": lane(nz_fast, nz_ref),
        "extraction": {
            **lane(ext_fast, ext_ref, extraction_mib),
            "dump_mib": round(extraction_mib, 3),
            "pool_reuses": pool.reuses,
            "coalesced_devmem_reads": pooled_dump.devmem_reads,
            "per_page_devmem_reads": reference_dump.devmem_reads,
        },
        "spool_read": {
            **lane(spool_fast, spool_ref),
            "mode": "mmap vs slurp, nonzero scored",
        },
        "spool_put": {
            **lane(put_fast, put_ref, put_mib),
            "dumps": SPOOL_PUT_DUMPS,
            "dump_kib": round(reference_dump.nbytes / 1024, 1),
            "fast_ms_per_dump": round(1000 * put_fast / SPOOL_PUT_DUMPS, 3),
            "reference_ms_per_dump": round(
                1000 * put_ref / SPOOL_PUT_DUMPS, 3
            ),
            "mode": "segment appends vs one file per object, put()",
        },
        "offline_prep": {
            "models": sorted(set(prep_spec.model_mix)),
            "probe_model": PROBE_MODEL,
            "input_hw": prep_spec.input_hw,
            "fast_seconds": round(prep_fast, 6),
            "reference_seconds": round(prep_ref, 6),
            "speedup": round(prep_ref / prep_fast, 2),
            "mode": "coalesced vs word reads, profiles + probe layout",
        },
        "aslr_boot": {
            "board": ZCU102.name,
            "pooled_frames": ZCU102.dram_size // PAGE_SIZE
            - DEFAULT_RESERVED_FRAMES,
            "frames_drawn": len(aslr_draws),
            "fast_seconds": round(aslr_fast, 6),
            "reference_seconds": round(aslr_ref, 6),
            "speedup": round(aslr_ref / aslr_fast, 2),
            "fast_traced_mib": round(aslr_fast_mib, 3),
            "reference_traced_mib": round(aslr_ref_mib, 3),
            "mode": "sparse vs materialized RANDOM pool, boot + draws",
        },
        "campaign": campaign_lane(report, inprocess_walls),
        "campaign_multiprocess": {
            **campaign_lane(mp_report, mp_walls),
            "speedup_vs_inprocess": round(mp_speedup, 2),
            "warmup_pairs": warmup_pairs,
        },
        "explore": {
            "population": explore_config.population,
            "generations": explore_config.generations,
            "wall_seconds": round(explore_wall, 3),
            "generations_per_second": round(
                explore_config.generations / explore_wall, 3
            ),
            "evaluations": explore_result.evaluations,
            "cache_hits": explore_result.cache_hits,
            "best_score": explore_result.best[0],
        },
    }
    spool_dir.cleanup()
    mp_speedup = payload["campaign_multiprocess"]["speedup_vs_inprocess"]
    if mp_speedup < 1.0:
        print(
            f"REGRESSION: multiprocess executor is slower than in-process "
            f"({mp_speedup}x at {spec.boards} boards); refusing to record",
            file=sys.stderr,
        )
        return 2
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"map_dump : {payload['map_dump']['speedup']:>7.2f}x "
          f"({payload['map_dump']['fast_mib_per_s']} MiB/s)")
    print(f"identify : {payload['identify']['speedup']:>7.2f}x "
          f"({payload['identify']['fast_mib_per_s']} MiB/s)")
    print(f"nonzero  : {payload['nonzero']['speedup']:>7.2f}x")
    print(f"extraction: {payload['extraction']['speedup']:>6.2f}x "
          f"({payload['extraction']['fast_mib_per_s']} MiB/s pooled coalesced)")
    print(f"spool_read: {payload['spool_read']['speedup']:>6.2f}x "
          f"({payload['spool_read']['fast_mib_per_s']} MiB/s mmap)")
    print(f"spool_put: {payload['spool_put']['speedup']:>7.2f}x "
          f"({payload['spool_put']['fast_ms_per_dump']} ms per dump "
          f"appended)")
    print(f"offline_prep: {payload['offline_prep']['speedup']:>4.2f}x "
          f"({payload['offline_prep']['fast_seconds']} s coalesced)")
    print(f"aslr_boot: {payload['aslr_boot']['speedup']:>7.2f}x "
          f"({payload['aslr_boot']['fast_traced_mib']} MiB sparse, "
          f"{payload['aslr_boot']['reference_traced_mib']} MiB materialized)")
    print(f"campaign : {payload['campaign']['victims_per_second']} victims/s")
    print(f"campaign (multiprocess): "
          f"{payload['campaign_multiprocess']['victims_per_second']} victims/s "
          f"({payload['campaign_multiprocess']['speedup_vs_inprocess']}x vs "
          f"in-process, after "
          f"{payload['campaign_multiprocess']['warmup_pairs']} warm-up pairs)")
    print(f"explore  : {payload['explore']['generations_per_second']} "
          f"generations/s ({payload['explore']['evaluations']} campaign "
          f"evaluations)")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
