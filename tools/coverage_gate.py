#!/usr/bin/env python3
"""The ``make coverage`` gate: per-package coverage floors.

Runs the gated test modules under coverage measurement and fails when
any gated package's aggregate coverage drops below :data:`FLOOR`
percent.  Four packages are gated:

- ``repro.fuzzlab`` — the fuzz harness is the machinery that vouches
  for everything else, so it does not get to rot quietly;
- ``repro.analysis`` — the zero-copy fast paths every oracle, campaign
  and benchmark lean on;
- ``repro.service`` — the ingest daemon's admission-control and
  drain paths mostly matter under rare conditions (quota refusals,
  full queues, SIGTERM mid-job), exactly the code a green happy-path
  suite can quietly stop exercising;
- ``repro.explore`` — the frontier reports it emits are cited as
  ground truth by the docs, and its byte-determinism promise is
  exactly the kind of property that silently erodes without tests.

Two measurement backends, picked automatically:

- **coverage.py** (preferred, when installed): branch coverage,
  ``Coverage(branch=True)``, scoped to the gated package directories;
- **stdlib fallback** (this repo adds no dependencies): a
  ``sys.settrace`` line tracer scoped to the same files, with the
  executable-line denominator derived from each module's AST.  Line
  coverage only — install ``coverage`` for branch numbers.

Either way the output ends with one markdown summary table per gated
package, as documented in ``docs/testing.md`` (no badges, no
services), and the exit status enforces the floor independently per
package: 0 = every package at or above, 1 = any below (or the tests
themselves failed).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"

PACKAGES: dict[str, Path] = {
    "repro.fuzzlab": SRC_ROOT / "repro" / "fuzzlab",
    "repro.analysis": SRC_ROOT / "repro" / "analysis",
    "repro.service": SRC_ROOT / "repro" / "service",
    "repro.explore": SRC_ROOT / "repro" / "explore",
}

TEST_TARGETS = (
    "tests/test_fuzzlab.py",
    "tests/test_analysis_scan.py",
    "tests/test_kernel_equivalence.py",
    "tests/test_zero_copy.py",
    "tests/test_service.py",
    "tests/test_explore.py",
)

FLOOR = 80.0
"""Minimum aggregate coverage (percent), enforced per package."""

Rows = dict[str, dict[str, tuple[int, int]]]
"""package name -> module file name -> (covered, possible)."""


def _package_files(package_dir: Path) -> list[Path]:
    return sorted(package_dir.glob("*.py"))


def _package_of(path: Path) -> str | None:
    for package, package_dir in PACKAGES.items():
        if path.parent == package_dir:
            return package
    return None


def _run_tests() -> int:
    import pytest

    return pytest.main(
        ["-q", "-x", *(str(REPO_ROOT / target) for target in TEST_TARGETS)]
    )


def _executable_lines(path: Path) -> set[int]:
    """Line numbers the fallback tracer can be held to.

    Every statement's first line, except docstring expressions (they
    execute at import time whether or not anything is 'covered') —
    derived from the AST, so the denominator tracks the code, not a
    guess.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = getattr(node, "body", [])
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                docstrings.add(body[0].lineno)
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node.lineno not in docstrings:
            lines.add(node.lineno)
    return lines


def _measure_with_coverage_py() -> tuple[Rows, str]:
    """Branch-coverage measurement via coverage.py.

    Numbers come from the JSON report so branch arcs genuinely count:
    covered = covered_lines + covered_branches, possible =
    num_statements + num_branches per file.
    """
    import json
    import tempfile

    import coverage

    cov = coverage.Coverage(
        branch=True,
        include=[str(package_dir / "*") for package_dir in PACKAGES.values()],
    )
    cov.start()
    try:
        status = _run_tests()
    finally:
        cov.stop()
    if status != 0:
        raise SystemExit(status)
    with tempfile.NamedTemporaryFile(mode="r", suffix=".json") as report:
        cov.json_report(outfile=report.name)
        payload = json.load(open(report.name))
    summaries = {
        Path(file_path).resolve(): entry["summary"]
        for file_path, entry in payload["files"].items()
    }
    rows: Rows = {}
    for package, package_dir in PACKAGES.items():
        rows[package] = {}
        for path in _package_files(package_dir):
            summary = summaries.get(
                path.resolve(),
                {"covered_lines": 0, "num_statements": 0,
                 "covered_branches": 0, "num_branches": 0},
            )
            rows[package][path.name] = (
                summary["covered_lines"] + summary.get("covered_branches", 0),
                summary["num_statements"] + summary.get("num_branches", 0),
            )
    return rows, "line+branch (coverage.py)"


def _measure_with_tracer() -> tuple[Rows, str]:
    """Line-coverage measurement with a stdlib settrace tracer."""
    targets = {
        str(path): path
        for package_dir in PACKAGES.values()
        for path in _package_files(package_dir)
    }
    executed: dict[str, set[int]] = {name: set() for name in targets}

    def local_trace(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in targets:
            return local_trace
        return None

    import threading

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = _run_tests()
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    if status != 0:
        raise SystemExit(status)
    rows: Rows = {}
    for package, package_dir in PACKAGES.items():
        rows[package] = {}
        for path in _package_files(package_dir):
            lines = _executable_lines(path)
            rows[package][path.name] = (
                len(lines & executed[str(path)]),
                len(lines),
            )
    return rows, "line (stdlib tracer; install coverage.py for branch)"


def _report_package(
    package: str, modules: dict[str, tuple[int, int]], mode: str
) -> float:
    covered_total = sum(covered for covered, _ in modules.values())
    possible_total = sum(possible for _, possible in modules.values())
    percent = 100.0 * covered_total / possible_total if possible_total else 0.0
    print()
    print(f"{package} coverage — {mode}")
    print()
    print("| module | covered | of | % |")
    print("| --- | ---: | ---: | ---: |")
    for name in sorted(modules):
        covered, possible = modules[name]
        share = 100.0 * covered / possible if possible else 100.0
        print(f"| `{name}` | {covered} | {possible} | {share:.1f} |")
    print(
        f"| **total** | **{covered_total}** | **{possible_total}** "
        f"| **{percent:.1f}** |"
    )
    return percent


def main() -> int:
    sys.path.insert(0, str(SRC_ROOT))
    try:
        import coverage  # noqa: F401 — availability probe only

        rows, mode = _measure_with_coverage_py()
    except ImportError:
        rows, mode = _measure_with_tracer()

    failures = []
    for package in sorted(rows):
        percent = _report_package(package, rows[package], mode)
        if percent < FLOOR:
            failures.append((package, percent))

    print()
    if failures:
        for package, percent in failures:
            print(
                f"coverage gate: {percent:.1f}% is below the "
                f"{FLOOR:.0f}% floor on {package}",
                file=sys.stderr,
            )
        return 1
    print(
        f"coverage gate: every gated package >= {FLOOR:.0f}% floor — ok"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
