#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``perfbench/manifest.json`` records why each exists, what
its op is, its size, and which layer metric each should move):

- ``campaign``: ``CampaignRuntime`` over 8 boards x 128 victims;
- ``fabric``: the same campaign through ``FabricCoordinator`` and
  ``repro campaign work`` subprocesses;
- ``defense_sweep``: ``run_defense_arena`` over the five default
  profiles, 2 boards x 16 victims;
- ``analysis_service``: ``repro serve analysis`` under a closed loop
  of two requests in flight.

With ``--trace 0`` the run prints every end-to-end metric, measured
untraced over the calmer half of the window: the batches or
one-second slices in which the hypervisor stole the least CPU time
(``Window.calm``).  With ``--trace 1`` it prints the per-layer
metrics of a traced window and ``trace_overhead``.  Every run prints
the host's steal over its window.  Human-readable lines and a
``provenance`` line come first; the last line of standard output is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
The exit status is 0 when every op's output checked out, 1 when some
did not or the run failed, 2 when there is no program to measure.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

HARD_DEADLINE = 170.0
"""Seconds after start at which unfinished ops become failures."""

SETUP_REPEATS = 3
"""Set-up units per untraced run; ``setup_s`` takes their median."""

WORKLOAD_NAMES = ("campaign", "fabric", "defense_sweep", "analysis_service")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def provenance(args: argparse.Namespace, nproc: int) -> dict:
    """Host, library versions and inputs every result carries."""
    import numpy

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
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or ``None`` outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return None
    return top[1]


def measure(args: argparse.Namespace, workloads, workspace) -> tuple[dict, dict, list[str]]:
    """Run the workload; returns (result, provenance, report lines)."""
    from spans import layer_metrics, percentile

    nproc = len(os.sched_getaffinity(0))
    workload = workloads.WORKLOADS[args.workload](workspace, args.seed, nproc)
    deadline = PROCESS_START + HARD_DEADLINE - 10.0
    workload.prepare()
    once = workloads.clock() - PROCESS_START
    units = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        workload.reset()
        gc.collect()
        started = workloads.clock()
        workload.setup()
        units.append(workloads.clock() - started)
    stolen = workloads.host_steal()
    if args.trace:
        window, tracer = workload.traced(args.seconds, deadline)
    else:
        workload.watch_memory()
        window = workload.window(args.seconds, deadline)
    stolen = workloads.steal_share(stolen, workloads.host_steal())
    workload.finish()
    if not window.latencies or not window.completed:
        raise workloads.BenchmarkError(
            f"no {args.workload} op completed ({workload.failed} failed)"
        )

    lines = [
        f"{args.workload}: {workload.attempted} ops attempted, "
        f"{workload.failed} failed; measured window {window.wall:.3f} s, "
        f"{len(window.latencies)} {workload.batch_noun}(s) of "
        f"{workload.batch_ops} op(s)",
        f"error_rate {workload.failed / workload.attempted!r} fraction",
        f"host steal in the window: {100 * stolen:.1f} % of CPU time",
    ]
    if args.trace:
        placement = (
            "inprocess, 1 board thread" if args.workload == "campaign"
            else "as untraced"
        )
        lines.append(f"traced placement: {placement}")
        metrics = layer_metrics(
            tracer, window.completed, window.wall, window.started
        )
    else:
        rates, latencies = window.calm()
        tail = tail_fraction(len(latencies))
        values = {
            "setup_s": once + statistics.median(units),
            "ops_per_s": statistics.median(rates),
            "peak_rss_mib": workload.peak_rss_kib() / 1024.0,
            "latency_p50_ms": 1000.0 * percentile(latencies, 0.50),
            "latency_p95_ms": 1000.0 * percentile(latencies, tail),
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        lines.append(
            f"calmer half: {len(rates)} of {len(window.rates)} rate samples, "
            f"each with at most {100 * statistics.median(window.steal):.1f} % steal"
        )
        lines.append(
            f"latency samples: {len(latencies)} (per {workload.batch_noun}); "
            f"latency_p95_ms is the {100 * tail:g}th percentile"
        )
        lines.append(
            "setup units (s): " + ", ".join(f"{unit:.3f}" for unit in units)
            + f"; once (imports + prep): {once:.3f}"
        )
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value!r} {unit}")
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    return result, provenance(args, nproc), lines


def tail_fraction(samples: int) -> float:
    """The percentile ``latency_p95_ms`` reports for *samples* samples.

    The 95th when at least ten samples lie beyond it (200 or more, as
    ``analysis_service`` collects); otherwise the highest percentile
    that still has ten beyond it, and never less than the median.  A
    batch workload times at most about twenty batches in a run, so
    there both latency metrics are its median batch time, which
    restates ``ops_per_s``; the printed line names the percentile.
    """
    return min(0.95, max(0.5, 1.0 - 10.0 / samples))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: nothing to measure, {ROOT / 'src' / 'repro'} "
            f"is missing",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _exit_on_signal)

    import workloads

    def on_deadline(signum, frame) -> None:
        raise workloads.DeadlineExceeded(f"hard deadline of {HARD_DEADLINE} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.setitimer(
        signal.ITIMER_REAL,
        max(1.0, HARD_DEADLINE - (workloads.clock() - PROCESS_START)),
    )
    workspace = workloads.Workspace(ROOT)
    try:
        result, origin, lines = measure(args, workloads, workspace)
    except (workloads.BenchmarkError, workloads.DeadlineExceeded) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        workspace.close()
    for line in lines:
        print(line)
    print("provenance " + json.dumps(origin, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    raise SystemExit(main())
