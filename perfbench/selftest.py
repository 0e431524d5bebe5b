#!/usr/bin/env python3
"""Self-tests of the benchmark: arithmetic, output checks, smoke runs.

    python3 perfbench/selftest.py        # all of them, about two minutes
    python3 perfbench/selftest.py ArithmeticTest MemoryTest CheckTest   # the fast ones

The file is not named ``test_*.py`` on purpose: the repository's own
``pytest`` run must not pick up minutes of benchmark smoke runs.
``python -m pytest perfbench/selftest.py`` runs it explicitly.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from checks import (  # noqa: E402
    canonical_matrix,
    delta_failed,
    matrix_failures,
    report_failures,
)
from corpus import (  # noqa: E402
    CONCAT_BYTES,
    PRESETS,
    ZERO_BYTES,
    Corpus,
    balanced_spec,
    build_plan,
)
from spans import (  # noqa: E402
    Span,
    Tracer,
    busy_time,
    covered_length,
    layer_metrics,
    per_layer_names,
    percentile,
    self_times,
)


def _span(name, start, end, parent=None, thread="1:1", span_id=None):
    return Span(span_id or name, parent, name, start, end, None, thread)


class ArithmeticTest(unittest.TestCase):
    def test_percentile_matches_statistics_inclusive(self):
        rng = random.Random(7)
        for count in (2, 3, 10, 201):
            values = [rng.expovariate(1.0) for _ in range(count)]
            twentieths = statistics.quantiles(values, n=20, method="inclusive")
            self.assertAlmostEqual(percentile(values, 0.95), twentieths[18])
            self.assertAlmostEqual(
                percentile(values, 0.50), statistics.median(values)
            )

    def test_percentile_edges(self):
        self.assertEqual(percentile([3.0], 0.95), 3.0)
        with self.assertRaises(ValueError):
            percentile([], 0.5)

    def test_calm_keeps_the_less_stolen_half(self):
        from workloads import Window

        window = Window(
            latencies=[1.0, 2.0, 3.0, 4.0, 5.0], slots=[0, 1, 1, 2, 3],
            rates=[10.0, 20.0, 30.0, 40.0], steal=[0.3, 0.0, 0.1, 0.3],
        )
        self.assertEqual(window.calm(), ([20.0, 30.0], [2.0, 3.0, 4.0]))
        window.steal = [0.0] * 4
        self.assertEqual(window.calm(), (window.rates, window.latencies))

    def test_covered_length_merges_overlaps_and_skips_empty(self):
        self.assertEqual(covered_length([(0, 2), (1, 3), (5, 6), (4, 4)]), 4)

    def test_self_time_of_nested_spans(self):
        spans = [
            _span("a", 0.0, 10.0),
            _span("b", 1.0, 3.0, parent="a"),
            _span("c", 2.0, 5.0, parent="a"),
            _span("d", 8.0, 12.0, parent="a"),  # outlives its parent
            _span("e", 2.0, 2.5, parent="c"),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own["a"], 10.0 - 6.0)  # [1,5] and [8,10]
        self.assertAlmostEqual(own["b"], 2.0)
        self.assertAlmostEqual(own["c"], 2.5)
        self.assertAlmostEqual(own["d"], 4.0)
        self.assertAlmostEqual(own["e"], 0.5)

    def test_self_time_with_cross_thread_children(self):
        spans = [
            _span("queue", 0.0, 10.0, thread="1:1"),
            _span("left", 1.0, 6.0, parent="queue", thread="1:2"),
            _span("right", 4.0, 9.0, parent="queue", thread="1:3"),
        ]
        self.assertAlmostEqual(self_times(spans)["queue"], 2.0)
        # Each thread's root spans count once, however they overlap.
        roots = [
            _span("x", 0.0, 2.0, thread="1:1"),
            _span("y", 1.0, 3.0, thread="1:1"),
            _span("z", 1.0, 3.0, thread="2:1"),
        ]
        self.assertAlmostEqual(busy_time(roots), 3.0 + 2.0)

    def test_tracer_nests_per_thread(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap(lambda: None, "inner")
        outer = tracer.wrap(lambda: inner(), "outer")
        outer()
        other = threading.Thread(target=inner)
        other.start()
        other.join(timeout=10)
        self.assertFalse(other.is_alive())
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        (outer_span,) = by_name["outer"]
        nested, threaded = by_name["inner"]
        self.assertIsNone(outer_span.parent)
        self.assertEqual(nested.parent, outer_span.span_id)
        self.assertIsNone(threaded.parent)
        self.assertNotEqual(threaded.thread, nested.thread)

    def test_layer_metrics_are_per_op_and_windowed(self):
        tracer = Tracer()
        tracer.spans = [
            _span("vitis.launch", 10.0, 14.0, span_id="l"),
            _span("mmu.map", 11.0, 12.0, parent="l", span_id="m"),
            _span("vitis.launch", 1.0, 2.0, span_id="early"),  # before the window
        ]
        metrics = layer_metrics(tracer, ops=2, wall=8.0, since=10.0)
        self.assertEqual(metrics["vitis.launch.calls"], (0.5, "count"))
        self.assertEqual(metrics["vitis.launch.self_ms_per_op"], (1500.0, "ms"))
        self.assertEqual(metrics["vitis.launch.share"], (0.5, "fraction"))
        self.assertEqual(metrics["mmu.map.share"], (0.125, "fraction"))
        self.assertEqual(metrics["fabric.op.wave.calls"], (0.0, "count"))
        self.assertEqual(
            sorted(metrics), sorted(name for name, _, _ in per_layer_names())
        )


class MemoryTest(unittest.TestCase):
    """Peak RSS counts the window only, and each exec'd child by itself."""

    def test_reset_forgets_an_earlier_peak(self):
        from workloads import reset_peak_rss, status_kib

        ballast = bytearray(64 * 1024 * 1024)
        ballast[::4096] = b"\x01" * len(ballast[::4096])
        del ballast
        before = status_kib("self", "VmHWM")
        current = reset_peak_rss()
        self.assertLess(status_kib("self", "VmHWM"), before - 32 * 1024)
        self.assertLess(abs(status_kib("self", "VmHWM") - current), 4 * 1024)

    def watch(self, code: str) -> int:
        from workloads import ChildPeaks

        peaks = ChildPeaks()
        child = subprocess.Popen([sys.executable, "-c", code])
        with peaks.watching([child]):
            child.wait(timeout=60)
        return peaks.kib

    def test_child_peak_is_its_own(self):
        # An exec'd child's ru_maxrss would report this ballast.
        ballast = bytearray(128 * 1024 * 1024)
        ballast[::4096] = b"\x01" * len(ballast[::4096])
        idle = self.watch("import time; time.sleep(0.3)")
        self.assertGreater(idle, 0)
        self.assertLess(idle, 64 * 1024)
        grown = self.watch(
            "import time; b = bytearray(96 << 20); b[::4096] = b'x' * len(b[::4096]);"
            " time.sleep(0.3)"
        )
        self.assertGreater(grown, 96 * 1024)
        del ballast


class InputsTest(unittest.TestCase):
    """Every generated input is a pure function of the seed."""

    def test_balanced_spec(self):
        from collections import Counter

        from repro.campaign import build_schedule

        for seed in (0, 1, 97):
            spec = balanced_spec(seed, boards=2, victims=16)
            self.assertEqual(spec, balanced_spec(seed, boards=2, victims=16))
            counts = Counter(job.model_name for job in build_schedule(spec))
            self.assertEqual(set(counts), set(spec.model_mix))
            self.assertLessEqual(max(counts.values()) - min(counts.values()), 1)
        self.assertNotEqual(
            balanced_spec(0, boards=2, victims=16).seed,
            balanced_spec(1, boards=2, victims=16).seed,
        )

    def test_plan(self):
        sizes = [140 * 1024, 84 * 1024, 82 * 1024] * 4
        plan = build_plan(5, sizes, 600)
        self.assertEqual(plan, build_plan(5, sizes, 600))
        self.assertNotEqual(plan, build_plan(6, sizes, 600))
        residues = [bytes([index + 1]) * size for index, size in enumerate(sizes)]
        corpus = Corpus(residues, plan)
        fresh = [request for request in plan if request.source == request.index]
        repeats = [request for request in plan if request.source != request.index]
        self.assertAlmostEqual(len(repeats) / len(plan), 0.5, delta=0.08)
        self.assertEqual({request.preset for request in plan}, set(PRESETS))
        self.assertEqual(len({request.tenant for request in plan}), 600)
        for request in repeats:
            self.assertLessEqual(request.source, request.index - 2)
            self.assertEqual(corpus.data(request), corpus.data(plan[request.source]))
        payloads = [corpus.data(request) for request in fresh]
        self.assertEqual(len({bytes(p) for p in payloads}), len(fresh))
        for request, payload in zip(fresh, payloads):
            low, high = {"zeros": ZERO_BYTES, "concat": CONCAT_BYTES}.get(
                request.kind, (min(sizes), max(sizes))
            )
            self.assertTrue(low <= len(payload) <= high, request)
            self.assertLess(len(payload), 1024 * 1024)


class CheckTest(unittest.TestCase):
    """Each output check passes the real artifact and fails a tampered one."""

    @classmethod
    def setUpClass(cls):
        from repro.campaign import CampaignRuntime, CampaignSpec
        from repro.defense import run_defense_arena

        cls.tmp = tempfile.TemporaryDirectory(prefix="perfbench-selftest-")
        spec = CampaignSpec(boards=2, victims=4, seed=5)
        run_dir = Path(cls.tmp.name) / "run"
        CampaignRuntime(spec, run_dir, executor="inprocess").run()
        cls.report = (run_dir / "report.json").read_bytes()
        cls.matrix = run_defense_arena(
            CampaignSpec(boards=1, victims=2, seed=5),
            profiles=("none", "zero_on_free"), weight_theft=False,
        ).to_json()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_report(self):
        self.assertEqual(report_failures(self.report, self.report), 0)
        payload = json.loads(self.report)
        payload["outcomes"][1]["identified_model"] = "tampered"
        tampered = json.dumps(payload, indent=2, sort_keys=True).encode()
        self.assertEqual(report_failures(self.report, tampered), 1)
        payload = json.loads(self.report)
        payload["spec"]["seed"] += 1
        tampered = json.dumps(payload, indent=2, sort_keys=True).encode()
        self.assertEqual(report_failures(self.report, tampered), 4)
        self.assertEqual(report_failures(self.report, b"not json"), 4)

    def test_matrix(self):
        reference = canonical_matrix(self.matrix)
        payload = json.loads(self.matrix)
        payload["rows"][0]["wall_seconds"] += 1.0
        payload["rows"][1]["teardown_seconds"] += 1.0
        self.assertEqual(matrix_failures(reference, json.dumps(payload), 2), 0)
        payload["rows"][1]["residue_bytes"] += 1
        self.assertEqual(matrix_failures(reference, json.dumps(payload), 2), 2)
        payload = json.loads(self.matrix)
        payload["rows"].pop()
        self.assertEqual(matrix_failures(reference, json.dumps(payload), 2), 4)

    def test_delta(self):
        from repro.service.analysis import AnalysisConfig, analyze_dump, mine_database

        config = AnalysisConfig(database=mine_database(("resnet50_pt",), 32))
        expected = analyze_dump(b"\x00" * 4096 + b"\xff" * 64, config).to_payload()
        event = {"event": "delta", "job_id": 1, "analysis": dict(expected)}
        self.assertFalse(delta_failed(event, expected))
        event["analysis"]["region_count"] += 1
        self.assertTrue(delta_failed(event, expected))
        self.assertTrue(delta_failed({"event": "job_failed", "job_id": 1}, expected))


class SmokeTest(unittest.TestCase):
    """A short run of each workload prints every metric with its unit."""

    @classmethod
    def setUpClass(cls):
        cls.benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())

    def run_bench(self, cwd: Path, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", *args],
            cwd=cwd, capture_output=True, text=True, timeout=180,
        )

    def test_every_workload_prints_every_metric(self):
        declared = {
            0: {m["name"]: m["unit"] for m in self.benchmark["end_to_end"]},
            1: {m["name"]: m["unit"] for m in self.benchmark["per_layer"]},
        }
        import run

        for workload in run.WORKLOAD_NAMES:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    done = self.run_bench(
                        ROOT, "--workload", workload, "--seed", "3",
                        "--seconds", "1", "--trace", str(trace),
                    )
                    self.assertEqual(done.returncode, 0, done.stderr[-3000:])
                    result = json.loads(done.stdout.splitlines()[-1])
                    self.assertEqual(
                        sorted(result), ["attempted", "correct", "failed", "metrics"]
                    )
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    units = {
                        name: metric["unit"]
                        for name, metric in result["metrics"].items()
                    }
                    self.assertEqual(units, declared[trace])
                    for line in done.stdout.splitlines()[:-1]:
                        if line.split(" ", 1)[0] in units:
                            self.assertTrue(
                                line.endswith(" " + units[line.split(" ", 1)[0]])
                            )

    def test_refuses_a_checkout_without_the_program(self):
        with tempfile.TemporaryDirectory(prefix="perfbench-bare-") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(
                HERE, Path(bare) / "perfbench",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            done = self.run_bench(
                Path(bare), "--workload", "campaign", "--seed", "1",
                "--seconds", "1", "--trace", "0",
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)

    def test_declared_metrics_match_the_code(self):
        import run

        per_layer = [
            (m["name"], m["unit"], m["better"])
            for m in self.benchmark["per_layer"]
        ]
        self.assertEqual(per_layer, per_layer_names())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.benchmark["end_to_end"]],
            list(run.END_TO_END),
        )
        gated = [w["name"] for w in self.benchmark["workloads"]]
        self.assertEqual(gated, list(run.WORKLOAD_NAMES))


if __name__ == "__main__":
    unittest.main()
