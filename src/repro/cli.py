"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the evaluation entry points:

- ``demo``      — run the paper's end-to-end attack and print the report
- ``figures``   — regenerate Figs. 4-12 with claim checks
- ``defenses``  — the defense ablation matrix
- ``zoo``       — list the model library (name, framework, weights)
- ``boards``    — list the supported evaluation boards
- ``profile``   — run offline profiling and emit the JSON notebook
- ``campaign``  — fleet-scale orchestration: ``campaign run`` executes a
  multi-board, multi-victim campaign (``--executor multiprocess``
  shards boards across worker processes; ``--run-dir`` makes the run
  checkpointable and ``--resume`` continues an interrupted one);
  ``campaign report`` re-renders a saved JSON report;
  ``campaign serve`` / ``campaign work`` distribute one campaign
  across hosts — the coordinator leases board shards over TCP,
  workers claim and run them, and the report stays byte-identical
  to a single-host run (see ``docs/distributed.md``)
- ``defense``   — the attack/defense arena: ``defense sweep`` runs the
  fleet campaign under each hardening profile and prints the
  leakage-vs-overhead matrix; ``defense report`` re-renders a saved
  matrix (``defenses`` above is the older single-board ablation)
- ``fuzz``      — the generative scenario fuzzer: ``fuzz run`` samples
  whole campaign worlds from a seed, drives each through the real
  attack stack, and holds every run to the differential-oracle
  registry (failures are shrunk and written as replayable JSON
  seeds); ``fuzz replay`` re-runs saved seeds — the regression-corpus
  workflow (see ``docs/testing.md``)
- ``explore``   — search-guided scenario exploration: ``explore attack``
  evolves attacker-strategy genomes under a chosen fitness (residue,
  window, weights) against one or more defense profiles and prints
  the ranked frontier (``--elites DIR`` exports champions as
  replayable fuzz corpus seeds); ``explore defenses`` sweeps the full
  defense-configuration space against one fixed attacker and flags
  the non-dominated leakage-vs-overhead Pareto frontier — both
  frontiers are byte-deterministic per seed (see
  ``docs/exploration.md``)
- ``analyze``   — batch-analyze raw dump files (simulated or externally
  captured) against a mined signature database: region map, residue,
  entropy, model attribution — no board, no simulation
- ``serve``     — long-lived daemons: ``serve analysis`` runs the
  ingest service — newline-JSON dump uploads (content-addressed,
  deduplicated), analysis jobs with per-tenant quotas and explicit
  backpressure, and streaming report deltas; SIGTERM drains cleanly
  (see ``docs/service.md``)

Exit codes, uniformly: 0 = success, 1 = the requested work ran but
found failures (attack failed, figure claims broke, campaign victims
failed, fuzz oracles fired), 2 = usage or input error (bad flags,
malformed or missing files), 3 = a checkpointable campaign was
interrupted and can be resumed, 4 = a fabric worker's retry budget
ran out (the coordinator stayed unreachable past the ``--retry-*``
bounds — the worker gave up deliberately; restart the coordinator
with ``campaign serve --resume`` and re-run the worker).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.evaluation.figures import generate_all_figures, render_figure_report
from repro.evaluation.metrics import ThroughputStats
from repro.evaluation.scenarios import BoardSession, run_paper_attack
from repro.hw.board import BOARDS, board_by_name


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--input-hw",
        type=int,
        default=32,
        help="square input edge in pixels (default: 32)",
    )
    parser.add_argument(
        "--board",
        default="ZCU104",
        choices=sorted(BOARDS),
        help="evaluation board (default: ZCU104)",
    )


def _usage_error(message: object) -> int:
    """Print one usage/input failure and return the documented exit 2."""
    print(message, file=sys.stderr)
    return 2


def _load_artifact(path: str, from_json, noun: str):
    """Read + parse a saved JSON artifact; ``(obj, None)`` on success.

    Any failure — unreadable file, bad JSON, JSON of the wrong shape —
    becomes ``(None, 2)`` with one clean message, so every re-render
    command shares the documented exit-2 contract.
    """
    import json

    try:
        with open(path) as handle:
            return from_json(handle.read()), None
    except OSError as error:
        return None, _usage_error(error)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
        return None, _usage_error(f"{path}: not a {noun} ({error})")


def _write_artifact(path: str, text: str, label: str) -> int | None:
    """Write an output file; ``None`` on success, exit 2 on OS errors.

    Output paths are user input too — a typo'd ``-o`` directory must
    not surface as a traceback after the work already ran.
    """
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as error:
        return _usage_error(error)
    print(f"wrote {label} to {path}")
    return None


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.errors import UnknownModelError

    session = BoardSession.boot(
        board=board_by_name(args.board), input_hw=args.input_hw
    )
    try:
        outcome = run_paper_attack(session, victim_model=args.model)
    except UnknownModelError as error:
        return _usage_error(error)
    print(outcome.report.render())
    print()
    if outcome.fidelity is not None:
        print(
            f"reconstruction fidelity: "
            f"{outcome.fidelity.pixel_match_rate:.1%} pixel match"
        )
    return 0 if outcome.model_identified_correctly else 1


def _cmd_figures(args: argparse.Namespace) -> int:
    figures = generate_all_figures(input_hw=args.input_hw)
    print(render_figure_report(figures))
    failing = [
        figure_id
        for figure_id, artifact in figures.items()
        if not artifact.all_claims_hold
    ]
    if failing:
        print(f"\nFAILING figures: {failing}", file=sys.stderr)
        return 1
    print(f"\nall {len(figures)} figures reproduced.")
    return 0


def _cmd_defenses(args: argparse.Namespace) -> int:
    from repro.evaluation.scenarios import attack_under_config
    from repro.petalinux.kernel import KernelConfig
    from repro.petalinux.sanitizer import SanitizePolicy

    configs = [
        ("vulnerable-default", KernelConfig()),
        (
            "zero-on-free",
            KernelConfig(sanitize_policy=SanitizePolicy.ZERO_ON_FREE),
        ),
        ("pagemap-lockdown", KernelConfig(pagemap_world_readable=False)),
        ("strict-devmem", KernelConfig(devmem_unrestricted=False)),
        ("fully-hardened", KernelConfig().hardened()),
    ]
    print(f"{'config':<22} {'steps':<6} {'stopped at':<26} leaked?")
    for label, config in configs:
        outcome = attack_under_config(config, label, input_hw=args.input_hw)
        print(
            f"{label:<22} {outcome.steps_completed:<6} "
            f"{outcome.failed_step or '-':<26} "
            f"{'YES' if outcome.attack_succeeded else 'no'}"
        )
    return 0


def _cmd_zoo(args: argparse.Namespace) -> int:
    from repro.vitis.zoo import MODEL_NAMES, build_model

    print(f"{'model':<18} {'framework':<12} {'layers':<7} weight bytes")
    for name in MODEL_NAMES:
        model = build_model(name, input_hw=args.input_hw)
        print(
            f"{name:<18} {model.framework:<12} "
            f"{len(model.subgraph.layers):<7} {model.weight_nbytes()}"
        )
    return 0


def _cmd_boards(args: argparse.Namespace) -> int:
    del args
    for name in sorted(BOARDS):
        print(BOARDS[name].describe())
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.errors import UnknownModelError

    session = BoardSession.boot(
        board=board_by_name(args.board), input_hw=args.input_hw
    )
    try:
        profiles = session.profile(args.models)
    except UnknownModelError as error:
        return _usage_error(error)
    text = profiles.to_json()
    if args.output == "-":
        print(text)
        return 0
    status = _write_artifact(
        args.output, text + "\n", f"{len(args.models)} profiles"
    )
    return status if status is not None else 0


def _emit_campaign_report(
    report, output: str | None, extra: list[str], seconds: float, reused=()
) -> int:
    """Render a campaign report, honor ``-o``, map failures to exit 1.

    The throughput line is the command's own timing: *seconds* over
    the victims it attacked, all but the *reused* jobs of a resume.
    """
    fresh = [o for o in report.outcomes if o.job_id not in reused]
    nbytes = sum(o.nbytes for o in fresh)
    throughput = ThroughputStats(nbytes, len(fresh), seconds)
    print(report.render())
    print(f"throughput: {throughput.describe()}")
    for line in extra:
        print(line)
    if output is not None:
        status = _write_artifact(output, report.to_json() + "\n", "report")
        if status is not None:
            return status
    return 0 if not report.failures() else 1


def _reused_jobs(run_dir) -> set[int]:
    """Job ids a run in *run_dir* takes from its journal unattacked."""
    return {o.job_id for o in run_dir.load_journal().reusable_outcomes()}


def _spec_from_args(args: argparse.Namespace):
    """Build a CampaignSpec from the shared spec-shaped flags.

    Raises ``ValueError`` for impossible values (zero boards, an
    unknown model in the mix, ...) — callers map it to exit 2.
    """
    from repro.campaign import CampaignSpec

    return CampaignSpec(
        boards=args.boards,
        victims=args.victims,
        model_mix=tuple(args.models.split(",")),
        tenants_per_board=args.tenants,
        wave_size=args.wave_size,
        seed=args.seed,
        input_hw=args.input_hw,
        board_names=tuple(args.board_mix.split(",")),
        coalesce_reads=not args.word_reads,
    )


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignRuntime, run_campaign
    from repro.errors import CampaignInterrupted

    if args.run_dir is not None and args.resume is not None:
        return _usage_error(
            "--run-dir and --resume are mutually exclusive: a resumed "
            "run already has its run directory"
        )
    if args.interrupt_after is not None and not (args.run_dir or args.resume):
        return _usage_error(
            "--interrupt-after needs a checkpointable run "
            "(--run-dir or --resume)"
        )
    if args.processes is not None and args.processes < 1:
        return _usage_error(
            f"--processes must be a positive worker count, "
            f"got {args.processes}"
        )
    if args.resume is not None:
        # The spec comes from the run directory; spec-shaped flags on
        # the command line are ignored.
        try:
            runtime = CampaignRuntime.resume(
                args.resume,
                executor=args.executor,
                processes=args.processes,
                interrupt_after=args.interrupt_after,
            )
        except (FileNotFoundError, ValueError) as error:
            # Missing directory, or a spec.json with a bad/foreign format.
            print(error, file=sys.stderr)
            return 2
    else:
        try:
            spec = _spec_from_args(args)
        except ValueError as error:
            return _usage_error(error)
        if args.run_dir is None:
            started = time.perf_counter()
            report = run_campaign(
                spec, executor=args.executor, processes=args.processes
            )
            return _emit_campaign_report(
                report, args.output, [], time.perf_counter() - started
            )
        try:
            runtime = CampaignRuntime(
                spec,
                args.run_dir,
                executor=args.executor,
                processes=args.processes,
                interrupt_after=args.interrupt_after,
            )
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    reused = _reused_jobs(runtime.run_dir)
    started = time.perf_counter()
    try:
        report = runtime.run()
    except CampaignInterrupted as interruption:
        print(f"INTERRUPTED: {interruption}", file=sys.stderr)
        print(
            f"journal: {runtime.run_dir.journal_path}",
            file=sys.stderr,
        )
        return 3
    return _emit_campaign_report(
        report,
        args.output,
        [
            f"\nrun directory: {runtime.run_dir.root}",
            f"canonical report: {runtime.run_dir.report_path}",
            f"wall-clock telemetry: {runtime.run_dir.telemetry_path}",
        ],
        time.perf_counter() - started,
        reused,
    )


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignReport

    report, status = _load_artifact(
        args.report, CampaignReport.from_json, "campaign report"
    )
    if status is not None:
        return status
    print(report.render())
    return 0


def _cmd_campaign_serve(args: argparse.Namespace) -> int:
    from repro.campaign.runtime.fabric import FabricCoordinator
    from repro.errors import FabricError

    if args.run_dir is not None and args.resume is not None:
        return _usage_error(
            "--run-dir and --resume are mutually exclusive: a resumed "
            "run already has its run directory"
        )
    if args.run_dir is None and args.resume is None:
        return _usage_error(
            "a distributed run is always checkpointable: pass --run-dir "
            "for a fresh campaign or --resume for an interrupted one"
        )
    if args.resume is not None:
        try:
            coordinator = FabricCoordinator.resume(
                args.resume,
                lease_ttl=args.lease_ttl,
                defense_profile=args.profile,
            )
        except (FileNotFoundError, ValueError) as error:
            print(error, file=sys.stderr)
            return 2
    else:
        try:
            spec = _spec_from_args(args)
        except ValueError as error:
            return _usage_error(error)
        try:
            coordinator = FabricCoordinator(
                spec,
                args.run_dir,
                lease_ttl=args.lease_ttl,
                defense_profile=args.profile,
            )
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
    reused = _reused_jobs(coordinator.run_dir)
    started = time.perf_counter()
    host, port = coordinator.serve(args.host, args.port)
    # Workers (and the smoke harness) parse this line for the port.
    print(f"fabric coordinator listening on {host}:{port}", flush=True)
    try:
        report = coordinator.run_until_complete(timeout=args.timeout)
    except FabricError as error:
        print(f"INTERRUPTED: {error}", file=sys.stderr)
        print(
            f"journal: {coordinator.run_dir.journal_path}",
            file=sys.stderr,
        )
        return 3
    finally:
        coordinator.close()
    return _emit_campaign_report(
        report,
        args.output,
        [
            f"\nrun directory: {coordinator.run_dir.root}",
            f"canonical report: {coordinator.run_dir.report_path}",
            f"wall-clock telemetry: {coordinator.run_dir.telemetry_path}",
        ],
        time.perf_counter() - started,
        reused,
    )


def _cmd_campaign_work(args: argparse.Namespace) -> int:
    from repro.campaign.runtime.fabric import FabricWorker
    from repro.errors import FabricError, RetryExhaustedError
    from repro.utils.resilience import RetryPolicy

    host, _, port_text = args.coordinator.rpartition(":")
    if not host or not port_text.isdigit():
        return _usage_error(
            f"coordinator address must be HOST:PORT, got {args.coordinator!r}"
        )
    try:
        retry_policy = RetryPolicy(
            max_attempts=args.retry_attempts,
            base_delay=args.retry_base,
            max_delay=args.retry_cap,
            deadline=args.retry_budget,
        )
    except ValueError as error:
        return _usage_error(error)
    worker = FabricWorker(
        host,
        int(port_text),
        worker_id=args.name,
        spool_dir=args.spool_dir,
        poll_interval=None if args.no_wait else args.poll_interval,
        die_after_waves=args.die_after_waves,
        retry_policy=retry_policy,
    )
    try:
        stats = worker.run()
    except RetryExhaustedError as error:
        print(
            f"RETRY BUDGET EXHAUSTED: {error} (last failure: "
            f"{error.__cause__})",
            file=sys.stderr,
        )
        print(
            "the coordinator stayed unreachable; restart it with "
            "`repro campaign serve --resume <run-dir>` and re-run "
            "this worker",
            file=sys.stderr,
        )
        return 4
    except (FabricError, OSError) as error:
        print(f"fabric worker failed: {error}", file=sys.stderr)
        return 2
    print(
        f"worker {stats['worker']}: "
        f"{len(stats['boards_completed'])} board(s) completed "
        f"{stats['boards_completed']}, {stats['waves_sent']} wave(s), "
        f"{stats['outcomes_sent']} outcome(s), "
        f"{stats['dumps_uploaded']} dump(s) uploaded"
    )
    if stats["reconnects"]:
        print(
            f"self-healed through {stats['reconnects']} reconnect(s), "
            f"{stats['replays']} replayed op(s), "
            f"{stats['heartbeat_failures']} heartbeat failure(s)"
        )
    if stats["died"]:
        print(
            "DIED: scripted fault fired mid-board; the coordinator "
            "re-leases the shard after the lease deadline",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_defense_sweep(args: argparse.Namespace) -> int:
    from repro.campaign import CampaignSpec
    from repro.defense import run_defense_arena

    # A duplicated profile would either run twice (same row, twice the
    # wall clock) or trip the arena's duplicate guard; dedupe
    # order-preservingly, warn, and sweep each profile exactly once.
    profiles = _dedupe_profiles(args.profiles)
    try:
        spec = CampaignSpec(
            boards=args.boards,
            victims=args.victims,
            model_mix=tuple(args.models.split(",")),
            tenants_per_board=args.tenants,
            wave_size=args.wave_size,
            seed=args.seed,
            input_hw=args.input_hw,
        )
        matrix = run_defense_arena(
            spec,
            profiles=profiles,
            scrape_delay_ticks=args.delay_ticks,
            weight_theft=not args.no_weight_theft,
        )
    except ValueError as error:
        # Bad spec values, an unknown profile name, or conflicting
        # '+'-composed axes.
        return _usage_error(error)
    print(matrix.render_markdown() if args.markdown else matrix.render())
    if args.output is not None:
        print()
        status = _write_artifact(args.output, matrix.to_json() + "\n", "matrix")
        if status is not None:
            return status
    return 0


def _cmd_defense_report(args: argparse.Namespace) -> int:
    from repro.defense import DefenseMatrix

    matrix, status = _load_artifact(
        args.matrix, DefenseMatrix.from_json, "defense matrix"
    )
    if status is not None:
        return status
    print(matrix.render_markdown() if args.markdown else matrix.render())
    return 0


def _dedupe_profiles(raw: str) -> tuple[str, ...]:
    """Split a ``--profiles a,b`` flag, dropping duplicates with a
    warning (order-preserving) — shared by sweep and explore lanes."""
    requested = tuple(name.strip() for name in raw.split(","))
    profiles = tuple(dict.fromkeys(requested))
    if len(profiles) != len(requested):
        dropped = sorted(
            name for name in set(requested) if requested.count(name) > 1
        )
        print(
            f"warning: duplicate profile(s) in --profiles "
            f"({', '.join(dropped)}); sweeping each once",
            file=sys.stderr,
        )
    return profiles


def _cmd_explore_attack(args: argparse.Namespace) -> int:
    from repro.explore import (
        EvolutionConfig,
        attack_report,
        evolve,
        export_elites,
    )

    profiles = _dedupe_profiles(args.profiles)
    try:
        configs = {
            profile: EvolutionConfig(
                seed=args.seed,
                population=args.population,
                generations=args.generations,
                elites=args.keep_elites,
                tournament=args.tournament,
                crossover_rate=args.crossover_rate,
                mutation_rate=args.mutation_rate,
                fitness=args.fitness,
                profile=profile,
                input_hw=args.input_hw,
            )
            for profile in profiles
        }
        results = {}
        for profile, config in configs.items():
            result = evolve(config)
            results[profile] = result
            print(
                f"profile {profile}: best={result.best[0]:g} "
                f"evaluations={result.evaluations} "
                f"(cache hits {result.cache_hits})",
                file=sys.stderr,
            )
    except ValueError as error:
        # Bad evolution parameters or an unknown profile name.
        return _usage_error(error)
    report = attack_report(
        results,
        seed=args.seed,
        params={
            "population": args.population,
            "generations": args.generations,
            "elites": args.keep_elites,
            "tournament": args.tournament,
            "crossover_rate": args.crossover_rate,
            "mutation_rate": args.mutation_rate,
            "profiles": list(profiles),
            "input_hw": args.input_hw,
        },
    )
    print(report.render_markdown() if args.markdown else report.render())
    if args.elites is not None:
        try:
            paths = export_elites(
                report, args.elites, input_hw=args.input_hw
            )
        except OSError as error:
            return _usage_error(error)
        print(f"exported {len(paths)} elite seed(s) to {args.elites}")
    if args.output is not None:
        status = _write_artifact(
            args.output, report.to_json() + "\n", "frontier report"
        )
        if status is not None:
            return status
    return 0


def _cmd_explore_defenses(args: argparse.Namespace) -> int:
    from repro.explore import AttackGenome, defense_report, sweep_defense_space

    try:
        scrub_rates = tuple(
            int(rate) for rate in args.scrub_rates.split(",")
        )
        genome = AttackGenome(
            boards=args.boards,
            victims=args.victims,
            wave_size=args.wave_size,
            tenants_per_board=args.tenants,
            model_mix=tuple(sorted(args.models.split(","))),
            coalesce_reads=not args.no_coalesce,
            delay_ticks=args.delay_ticks,
            carve_window=args.carve_window,
            corruption=args.corruption,
            seed=args.seed,
        )
        points = sweep_defense_space(
            genome, input_hw=args.input_hw, scrub_rates=scrub_rates
        )
    except ValueError as error:
        # Genome fields outside their gene pools, malformed
        # --scrub-rates, or invalid rates.
        return _usage_error(error)
    report = defense_report(
        points,
        seed=args.seed,
        params={
            "attacker": genome.label(),
            "input_hw": args.input_hw,
            "scrub_rates": list(scrub_rates),
        },
    )
    print(report.render_markdown() if args.markdown else report.render())
    if args.output is not None:
        status = _write_artifact(
            args.output, report.to_json() + "\n", "frontier report"
        )
        if status is not None:
            return status
    return 0


def _resolve_oracles(raw: str | None) -> tuple[str, ...] | None:
    """Parse a ``--oracles a,b`` flag; raises ValueError on unknowns."""
    from repro.fuzzlab import oracle_names

    if raw is None:
        return None
    requested = tuple(name.strip() for name in raw.split(",") if name.strip())
    unknown = sorted(set(requested) - set(oracle_names()))
    if not requested or unknown:
        raise ValueError(
            f"unknown oracle(s) {unknown or [raw]}; known: "
            f"{', '.join(oracle_names())}"
        )
    return requested


def _cmd_fuzz_run(args: argparse.Namespace) -> int:
    from repro.fuzzlab import run_fuzz, save_scenario, shrink

    if args.budget < 1:
        return _usage_error(
            f"--budget must be a positive scenario count, got {args.budget}"
        )
    if args.shrink_reruns < 1:
        return _usage_error(
            f"--shrink-reruns must be a positive re-execution count, "
            f"got {args.shrink_reruns}"
        )
    try:
        oracles = _resolve_oracles(args.oracles)
    except ValueError as error:
        return _usage_error(error)

    def progress(verdict) -> None:
        status = "ok  " if verdict.ok else "FAIL"
        print(f"{status} {verdict.scenario.label()}")

    report = run_fuzz(
        budget=args.budget,
        seed=args.seed,
        oracles=oracles,
        on_verdict=progress if not args.quiet else None,
    )
    print()
    print(report.render())
    if args.output is not None:
        status = _write_artifact(
            args.output, report.to_json() + "\n", "fuzz report"
        )
        if status is not None:
            return status
    if report.ok:
        return 0
    if not args.no_shrink:
        for verdict in report.failures():
            result = shrink(
                verdict.scenario,
                oracles=oracles,
                max_reruns=args.shrink_reruns,
                verdict=verdict,
            )
            try:
                seed_path = save_scenario(
                    result.scenario,
                    f"{args.artifacts}/scenario-"
                    f"{result.scenario.scenario_id}.json",
                    note=(
                        f"shrunk from fuzz seed {args.seed} "
                        f"scenario {verdict.scenario.scenario_id}; violates "
                        f"{', '.join(result.verdict.violated_oracles)}"
                    ),
                )
            except OSError as error:
                # The violations above are already reported; a broken
                # --artifacts path must not become a traceback now.
                return _usage_error(error)
            print(
                f"\nshrunk scenario {verdict.scenario.scenario_id} in "
                f"{result.reruns} rerun(s) "
                f"({' '.join(result.steps) or 'already minimal'})"
            )
            print(f"  -> {seed_path}")
            print(f"  replay: python -m repro fuzz replay {seed_path}")
    return 1


def _cmd_fuzz_replay(args: argparse.Namespace) -> int:
    from repro.fuzzlab import replay

    try:
        oracles = _resolve_oracles(args.oracles)
        results = replay(args.seeds, oracles=oracles)
    except (FileNotFoundError, ValueError) as error:
        return _usage_error(error)
    if not results:
        return _usage_error(f"no seed files under: {', '.join(args.seeds)}")
    failures = 0
    for seed_path, verdict in results:
        status = "ok  " if verdict.ok else "FAIL"
        print(f"{status} {seed_path} — {verdict.scenario.label()}")
        for violation in verdict.violations:
            failures += 1
            print(f"     [{violation.oracle}] {violation.message}")
    print(
        f"\n{len(results)} seed(s) replayed, "
        f"{sum(1 for _, v in results if not v.ok)} violating"
    )
    return 1 if failures else 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.service.analysis import (
        CARVE_PRESETS,
        AnalysisConfig,
        AnalysisReport,
        analyze_dump,
        mine_database,
    )

    if not 0.0 <= args.min_score <= 1.0:
        return _usage_error(
            f"--min-score must be in [0, 1], got {args.min_score}"
        )
    try:
        database = mine_database(
            tuple(args.models.split(",")), args.input_hw
        )
    except ValueError as error:
        return _usage_error(error)
    config = AnalysisConfig(
        database=database,
        carve=CARVE_PRESETS[args.carve],
        min_score=args.min_score,
    )
    report = AnalysisReport()
    for path in args.dumps:
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as error:
            return _usage_error(error)
        report.add(analyze_dump(data, config))
    print(report.render())
    if args.output is not None:
        status = _write_artifact(
            args.output, report.to_json(), "analysis report"
        )
        if status is not None:
            return status
    return 0


def _cmd_serve_analysis(args: argparse.Namespace) -> int:
    import asyncio
    import tempfile

    from repro.service.daemon import AnalysisService, serve_forever

    if not 0.0 <= args.min_score <= 1.0:
        return _usage_error(
            f"--min-score must be in [0, 1], got {args.min_score}"
        )
    spool_dir = args.spool_dir or tempfile.mkdtemp(prefix="repro-service-")
    try:
        service = AnalysisService(
            spool_dir,
            tuple(args.models.split(",")),
            args.input_hw,
            host=args.host,
            port=args.port,
            workers=args.workers,
            queue_capacity=args.queue_capacity,
            min_score=args.min_score,
        )
    except ValueError as error:
        return _usage_error(error)

    def on_listening(host: str, port: int) -> None:
        # Clients (and the smoke harness) parse this line for the port.
        print(f"analysis service listening on {host}:{port}", flush=True)

    report = asyncio.run(serve_forever(service, on_listening=on_listening))
    print(f"drained: {len(report)} dump analysis(es) aggregated")
    print(report.render())
    if args.output is not None:
        status = _write_artifact(
            args.output, report.to_json(), "analysis report"
        )
        if status is not None:
            return status
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Memory Scraping Attack on Xilinx FPGAs (DATE 2024) "
        "— simulation and reproduction toolkit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    demo = subparsers.add_parser("demo", help="run the end-to-end attack")
    _add_common_options(demo)
    demo.add_argument("--model", default="resnet50_pt", help="victim model")
    demo.set_defaults(func=_cmd_demo)

    figures = subparsers.add_parser("figures", help="regenerate Figs. 4-12")
    _add_common_options(figures)
    figures.set_defaults(func=_cmd_figures)

    defenses = subparsers.add_parser("defenses", help="defense ablation matrix")
    _add_common_options(defenses)
    defenses.set_defaults(func=_cmd_defenses)

    zoo = subparsers.add_parser("zoo", help="list the model library")
    _add_common_options(zoo)
    zoo.set_defaults(func=_cmd_zoo)

    boards = subparsers.add_parser("boards", help="list evaluation boards")
    boards.set_defaults(func=_cmd_boards)

    profile = subparsers.add_parser(
        "profile", help="offline-profile models, emit JSON notebook"
    )
    _add_common_options(profile)
    profile.add_argument(
        "models", nargs="+", help="model names to profile"
    )
    profile.add_argument(
        "-o", "--output", default="-", help="output path (default: stdout)"
    )
    profile.set_defaults(func=_cmd_profile)

    campaign = subparsers.add_parser(
        "campaign", help="fleet-scale multi-board campaigns"
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def add_spec_flags(parser: argparse.ArgumentParser) -> None:
        # The spec-shaped flags every campaign entry point shares
        # (`campaign run` and `campaign serve` must accept identical
        # specs — the byte-identity contract compares their reports).
        parser.add_argument(
            "--boards", type=int, default=4, help="fleet size (default: 4)"
        )
        parser.add_argument(
            "--victims", type=int, default=8, help="victim count (default: 8)"
        )
        parser.add_argument(
            "--models",
            default="resnet50_pt,squeezenet_pt,inception_v1_tf",
            help="comma-separated model mix",
        )
        parser.add_argument(
            "--board-mix",
            default="ZCU104,ZCU102",
            help="comma-separated board specs the fleet cycles through",
        )
        parser.add_argument(
            "--tenants",
            type=int,
            default=2,
            help="tenants per board (default: 2)",
        )
        parser.add_argument(
            "--wave-size",
            type=int,
            default=2,
            help="co-resident victims per board wave (default: 2)",
        )
        parser.add_argument(
            "--seed", type=int, default=0, help="scheduler seed (default: 0)"
        )
        parser.add_argument(
            "--word-reads",
            action="store_true",
            help="scrape word-at-a-time like the paper (default: coalesced)",
        )
        parser.add_argument(
            "--input-hw",
            type=int,
            default=32,
            help="square input edge (default: 32)",
        )

    campaign_run = campaign_sub.add_parser(
        "run", help="run a multi-board, multi-victim campaign"
    )
    add_spec_flags(campaign_run)
    campaign_run.add_argument(
        "--executor",
        default="auto",
        choices=("auto", "inprocess", "multiprocess"),
        help="board placement: inprocess (the boards in turn on one "
        "thread), one process per board shard, or auto (processes for "
        "fleets of 8+ boards)",
    )
    campaign_run.add_argument(
        "--processes",
        type=int,
        default=None,
        help="shard processes for the multiprocess executor "
        "(default: one per CPU)",
    )
    campaign_run.add_argument(
        "--run-dir",
        default=None,
        help="make the run checkpointable: journal outcomes, spool dumps, "
        "and write the canonical report under this directory",
    )
    campaign_run.add_argument(
        "--resume",
        default=None,
        metavar="RUN_DIR",
        help="continue an interrupted checkpointable run; the campaign "
        "spec comes from RUN_DIR/spec.json and spec flags are ignored",
    )
    campaign_run.add_argument(
        "--interrupt-after",
        type=int,
        default=None,
        metavar="N",
        help="fault-injection drill: crash (exit 3) once N outcomes are "
        "journaled, leaving a resumable run directory",
    )
    campaign_run.add_argument(
        "-o", "--output", default=None, help="also write the report as JSON"
    )
    campaign_run.set_defaults(func=_cmd_campaign_run)

    campaign_report = campaign_sub.add_parser(
        "report", help="re-render a saved campaign report"
    )
    campaign_report.add_argument("report", help="path to a campaign JSON report")
    campaign_report.set_defaults(func=_cmd_campaign_report)

    campaign_serve = campaign_sub.add_parser(
        "serve",
        help="coordinate a distributed campaign: lease board shards "
        "to fabric workers and write the canonical report",
    )
    add_spec_flags(campaign_serve)
    campaign_serve.add_argument(
        "--run-dir",
        default=None,
        help="journal, spool, and report live here (distributed runs "
        "are always checkpointable)",
    )
    campaign_serve.add_argument(
        "--resume",
        default=None,
        metavar="RUN_DIR",
        help="re-serve an interrupted distributed run; completed boards "
        "are reused from RUN_DIR's journal and spec flags are ignored",
    )
    campaign_serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to listen on (default: 127.0.0.1)",
    )
    campaign_serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default: 0 = ephemeral; the bound port is printed)",
    )
    campaign_serve.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="heartbeat deadline: a board lease silent this long is "
        "reclaimed and re-issued (default: 30)",
    )
    campaign_serve.add_argument(
        "--profile",
        default=None,
        help="harden the fleet under this defense profile (workers "
        "rebuild the kernel config from the name)",
    )
    campaign_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up (exit 3, resumable) if the campaign has not "
        "completed in this long (default: wait forever)",
    )
    campaign_serve.add_argument(
        "-o", "--output", default=None, help="also write the report as JSON"
    )
    campaign_serve.set_defaults(func=_cmd_campaign_serve)

    campaign_work = campaign_sub.add_parser(
        "work",
        help="claim and run board shards for a fabric coordinator",
    )
    campaign_work.add_argument(
        "coordinator",
        metavar="HOST:PORT",
        help="address a `repro campaign serve` coordinator printed",
    )
    campaign_work.add_argument(
        "--name",
        default=None,
        help="worker id shown in coordinator telemetry "
        "(default: hostname-pid)",
    )
    campaign_work.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="how often to re-ask for work while every board is leased "
        "out (default: 0.5)",
    )
    campaign_work.add_argument(
        "--no-wait",
        action="store_true",
        help="exit as soon as no lease is claimable instead of polling "
        "until the campaign completes",
    )
    campaign_work.add_argument(
        "--spool-dir",
        default=None,
        help="local scratch spool for dumps before upload "
        "(default: a temp directory)",
    )
    campaign_work.add_argument(
        "--die-after-waves",
        type=int,
        default=None,
        metavar="N",
        help="fault-injection drill: die mid-board (exit 3) after "
        "shipping N waves, leaving the lease to expire and re-issue",
    )
    campaign_work.add_argument(
        "--retry-attempts",
        type=int,
        default=6,
        metavar="N",
        help="max tries per fabric op before giving up with exit 4 "
        "(connection loss and coordinator restarts are retried with "
        "exponential backoff; default: 6)",
    )
    campaign_work.add_argument(
        "--retry-base",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="first-retry backoff; doubles per attempt (default: 0.5)",
    )
    campaign_work.add_argument(
        "--retry-cap",
        type=float,
        default=8.0,
        metavar="SECONDS",
        help="ceiling on any single backoff delay (default: 8)",
    )
    campaign_work.add_argument(
        "--retry-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="total wall-clock budget per retried op; a retry that "
        "would overshoot it exits 4 instead (default: unbounded)",
    )
    campaign_work.set_defaults(func=_cmd_campaign_work)

    defense = subparsers.add_parser(
        "defense", help="attack/defense arena over fleet campaigns"
    )
    defense_sub = defense.add_subparsers(dest="defense_command", required=True)

    defense_sweep = defense_sub.add_parser(
        "sweep", help="run the campaign under each hardening profile"
    )
    defense_sweep.add_argument(
        "--profiles",
        default="none,zero_on_free,scrub_pool,aslr,pinned_xen",
        help="comma-separated profiles; compose axes with '+' "
        "(e.g. scrub_pool+pinned_xen)",
    )
    defense_sweep.add_argument(
        "--boards", type=int, default=2, help="fleet size (default: 2)"
    )
    defense_sweep.add_argument(
        "--victims", type=int, default=4, help="victim count (default: 4)"
    )
    defense_sweep.add_argument(
        "--models",
        default="resnet50_pt,squeezenet_pt,inception_v1_tf",
        help="comma-separated model mix",
    )
    defense_sweep.add_argument(
        "--tenants", type=int, default=2, help="tenants per board (default: 2)"
    )
    defense_sweep.add_argument(
        "--wave-size",
        type=int,
        default=2,
        help="co-resident victims per board wave (default: 2)",
    )
    defense_sweep.add_argument(
        "--seed", type=int, default=0, help="scheduler seed (default: 0)"
    )
    defense_sweep.add_argument(
        "--delay-ticks",
        type=int,
        default=2,
        help="attacker latency in scheduler ticks between wave teardown "
        "and scrape (default: 2)",
    )
    defense_sweep.add_argument(
        "--no-weight-theft",
        action="store_true",
        help="skip the fine-tuned weight-theft probe",
    )
    defense_sweep.add_argument(
        "--markdown", action="store_true", help="render a markdown table"
    )
    defense_sweep.add_argument(
        "--input-hw", type=int, default=32, help="square input edge (default: 32)"
    )
    defense_sweep.add_argument(
        "-o", "--output", default=None, help="also write the matrix as JSON"
    )
    defense_sweep.set_defaults(func=_cmd_defense_sweep)

    defense_report = defense_sub.add_parser(
        "report", help="re-render a saved defense matrix"
    )
    defense_report.add_argument("matrix", help="path to a matrix JSON file")
    defense_report.add_argument(
        "--markdown", action="store_true", help="render a markdown table"
    )
    defense_report.set_defaults(func=_cmd_defense_report)

    fuzz = subparsers.add_parser(
        "fuzz", help="generative scenario fuzzing with differential oracles"
    )
    fuzz_sub = fuzz.add_subparsers(dest="fuzz_command", required=True)

    fuzz_run = fuzz_sub.add_parser(
        "run",
        help="sample campaign worlds from a seed and hold every oracle "
        "to them",
    )
    fuzz_run.add_argument(
        "--budget",
        type=int,
        default=25,
        help="scenarios to generate and run (default: 25)",
    )
    fuzz_run.add_argument(
        "--seed",
        type=int,
        default=0,
        help="generator seed; the scenario stream is a pure function "
        "of it (default: 0)",
    )
    fuzz_run.add_argument(
        "--oracles",
        default=None,
        metavar="A,B",
        help="comma-separated oracle subset (default: all registered)",
    )
    fuzz_run.add_argument(
        "--artifacts",
        default="fuzz-artifacts",
        metavar="DIR",
        help="where shrunk failing seeds are written "
        "(default: fuzz-artifacts)",
    )
    fuzz_run.add_argument(
        "--shrink-reruns",
        type=int,
        default=48,
        metavar="N",
        help="re-executions the shrinker may spend per failure "
        "(default: 48)",
    )
    fuzz_run.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without minimizing them",
    )
    fuzz_run.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-scenario progress lines",
    )
    fuzz_run.add_argument(
        "-o",
        "--output",
        default=None,
        help="also write the byte-deterministic verdict report as JSON",
    )
    fuzz_run.set_defaults(func=_cmd_fuzz_run)

    fuzz_replay = fuzz_sub.add_parser(
        "replay",
        help="re-run saved scenario seeds (files or corpus directories)",
    )
    fuzz_replay.add_argument(
        "seeds",
        nargs="+",
        help="seed files or directories of *.json seeds",
    )
    fuzz_replay.add_argument(
        "--oracles",
        default=None,
        metavar="A,B",
        help="comma-separated oracle subset (default: all registered)",
    )
    fuzz_replay.set_defaults(func=_cmd_fuzz_replay)

    from repro.explore.fitness import FITNESS_NAMES
    from repro.explore.genome import (
        BOARD_COUNTS,
        CAMPAIGN_SEEDS,
        CORRUPTION_LEVELS,
        DELAY_TICKS,
        TENANT_COUNTS,
        VICTIM_COUNTS,
        WAVE_SIZES,
    )
    from repro.fuzzlab.scenario import CARVE_WINDOWS

    explore = subparsers.add_parser(
        "explore",
        help="search-guided exploration: evolve attacks, map defenses",
    )
    explore_sub = explore.add_subparsers(
        dest="explore_command", required=True
    )

    explore_attack = explore_sub.add_parser(
        "attack",
        help="evolve attacker genomes under a fitness; print the ranked "
        "frontier (byte-deterministic per seed)",
    )
    explore_attack.add_argument(
        "--seed",
        type=int,
        default=0,
        help="evolution seed; the frontier is a pure function of it "
        "(default: 0)",
    )
    explore_attack.add_argument(
        "--population",
        type=int,
        default=8,
        help="genomes per generation (default: 8)",
    )
    explore_attack.add_argument(
        "--generations",
        type=int,
        default=4,
        help="generations to evolve (default: 4)",
    )
    explore_attack.add_argument(
        "--keep-elites",
        type=int,
        default=2,
        metavar="N",
        help="top genomes copied unchanged into the next generation "
        "(default: 2)",
    )
    explore_attack.add_argument(
        "--tournament",
        type=int,
        default=2,
        metavar="K",
        help="tournament size for parent selection (default: 2)",
    )
    explore_attack.add_argument(
        "--crossover-rate",
        type=float,
        default=0.6,
        metavar="F",
        help="probability a child is bred from two parents "
        "(default: 0.6)",
    )
    explore_attack.add_argument(
        "--mutation-rate",
        type=float,
        default=0.9,
        metavar="F",
        help="probability a child gets one gene flipped (default: 0.9)",
    )
    explore_attack.add_argument(
        "--fitness",
        default="residue",
        choices=FITNESS_NAMES,
        help="what a genome is scored on (default: residue)",
    )
    explore_attack.add_argument(
        "--profiles",
        default="none",
        metavar="A,B",
        help="defense profiles to evolve against, one run each "
        "(default: none)",
    )
    explore_attack.add_argument(
        "--input-hw",
        type=int,
        default=16,
        help="square input edge in pixels (default: 16)",
    )
    explore_attack.add_argument(
        "--elites",
        default=None,
        metavar="DIR",
        help="export frontier genomes as replayable fuzz corpus seeds",
    )
    explore_attack.add_argument(
        "--markdown",
        action="store_true",
        help="render the frontier as a markdown table",
    )
    explore_attack.add_argument(
        "-o",
        "--output",
        default=None,
        help="also write the byte-deterministic frontier report as JSON",
    )
    explore_attack.set_defaults(func=_cmd_explore_attack)

    explore_defenses = explore_sub.add_parser(
        "defenses",
        help="Pareto-sweep the defense-config space against one fixed "
        "attacker; flag the non-dominated leakage-vs-overhead frontier",
    )
    explore_defenses.add_argument(
        "--boards",
        type=int,
        default=1,
        choices=BOARD_COUNTS,
        help="boards the attacker spans (default: 1)",
    )
    explore_defenses.add_argument(
        "--victims",
        type=int,
        default=2,
        choices=VICTIM_COUNTS,
        help="victims per campaign (default: 2)",
    )
    explore_defenses.add_argument(
        "--models",
        default="resnet50_pt",
        metavar="A,B",
        help="victim model mix (default: resnet50_pt)",
    )
    explore_defenses.add_argument(
        "--tenants",
        type=int,
        default=1,
        choices=TENANT_COUNTS,
        help="co-tenants per board (default: 1)",
    )
    explore_defenses.add_argument(
        "--wave-size",
        type=int,
        default=1,
        choices=WAVE_SIZES,
        help="victims torn down per wave (default: 1)",
    )
    explore_defenses.add_argument(
        "--seed",
        type=int,
        default=0,
        choices=CAMPAIGN_SEEDS,
        help="campaign schedule seed (default: 0)",
    )
    explore_defenses.add_argument(
        "--delay-ticks",
        type=int,
        default=2,
        choices=DELAY_TICKS,
        help="scrape delay after teardown in ticks (default: 2)",
    )
    explore_defenses.add_argument(
        "--carve-window",
        type=int,
        default=256,
        choices=CARVE_WINDOWS,
        help="attacker carve window (default: 256)",
    )
    explore_defenses.add_argument(
        "--corruption",
        type=float,
        default=0.0,
        choices=CORRUPTION_LEVELS,
        help="injected dump corruption fraction (default: 0.0)",
    )
    explore_defenses.add_argument(
        "--no-coalesce",
        action="store_true",
        help="scrape word-by-word instead of coalesced reads",
    )
    explore_defenses.add_argument(
        "--input-hw",
        type=int,
        default=16,
        help="square input edge in pixels (default: 16)",
    )
    explore_defenses.add_argument(
        "--scrub-rates",
        default="16,64,256",
        metavar="R1,R2",
        help="scrub-daemon rates enumerated on the sanitize axis "
        "(default: 16,64,256)",
    )
    explore_defenses.add_argument(
        "--markdown",
        action="store_true",
        help="render the frontier as a markdown table",
    )
    explore_defenses.add_argument(
        "-o",
        "--output",
        default=None,
        help="also write the byte-deterministic frontier report as JSON",
    )
    explore_defenses.set_defaults(func=_cmd_explore_defenses)

    from repro.service.analysis import CARVE_PRESETS

    analyze = subparsers.add_parser(
        "analyze",
        help="batch-analyze raw dump files (no board, no simulation)",
    )
    analyze.add_argument(
        "dumps",
        nargs="+",
        metavar="DUMP",
        help="raw dump file(s) — any bytes, simulated or external",
    )
    analyze.add_argument(
        "--models",
        default="resnet50_pt,squeezenet_pt,inception_v1_tf",
        metavar="A,B",
        help="model mix to mine the signature database from "
        "(default: resnet50_pt,squeezenet_pt,inception_v1_tf)",
    )
    analyze.add_argument(
        "--input-hw",
        type=int,
        default=32,
        help="square input edge used for profiling (default: 32)",
    )
    analyze.add_argument(
        "--carve",
        default="default",
        choices=sorted(CARVE_PRESETS),
        help="carve preset controlling region-map granularity "
        "(default: default)",
    )
    analyze.add_argument(
        "--min-score",
        type=float,
        default=0.3,
        metavar="F",
        help="minimum signature-match score for attribution "
        "(default: 0.3)",
    )
    analyze.add_argument(
        "-o",
        "--output",
        default=None,
        help="also write the canonical JSON analysis report",
    )
    analyze.set_defaults(func=_cmd_analyze)

    serve = subparsers.add_parser(
        "serve", help="long-lived service daemons"
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    serve_analysis = serve_sub.add_parser(
        "analysis",
        help="the analysis ingest daemon: newline-JSON uploads, jobs, "
        "and streaming report deltas (see docs/service.md)",
    )
    serve_analysis.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve_analysis.add_argument(
        "--port",
        type=int,
        default=0,
        help="listening port; 0 picks an ephemeral one (default: 0)",
    )
    serve_analysis.add_argument(
        "--models",
        default="resnet50_pt,squeezenet_pt,inception_v1_tf",
        metavar="A,B",
        help="model mix behind the 'default' signature database "
        "(default: resnet50_pt,squeezenet_pt,inception_v1_tf)",
    )
    serve_analysis.add_argument(
        "--input-hw",
        type=int,
        default=32,
        help="square input edge used for profiling (default: 32)",
    )
    serve_analysis.add_argument(
        "--workers",
        type=int,
        default=2,
        help="analysis worker threads (default: 2)",
    )
    serve_analysis.add_argument(
        "--queue-capacity",
        type=int,
        default=8,
        metavar="N",
        help="bounded job queue depth; a full queue answers "
        "backpressure with retry-after (default: 8)",
    )
    serve_analysis.add_argument(
        "--min-score",
        type=float,
        default=0.3,
        metavar="F",
        help="minimum signature-match score for attribution "
        "(default: 0.3)",
    )
    serve_analysis.add_argument(
        "--spool-dir",
        default=None,
        metavar="DIR",
        help="content-addressed dump spool root "
        "(default: a fresh temp directory)",
    )
    serve_analysis.add_argument(
        "-o",
        "--output",
        default=None,
        help="write the final aggregate report as JSON after the drain",
    )
    serve_analysis.set_defaults(func=_cmd_serve_analysis)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like
        # well-behaved Unix tools.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
