# Development entry points. Everything runs from the repo root with
# src/ on the path; no installation required.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast bench bench-json docs-check cli-docs coverage fuzz-smoke fabric-smoke serve-smoke explore-smoke examples

# Run the docs gate AND the test suite even when the first fails, then
# report both statuses — a docs slip must never mask a test failure
# (or vice versa).  pytest lists the 15 slowest tests, so a CI log
# shows where the suite's wall time goes.
test:
	@docs_status=0; pytest_status=0; \
	$(PYTHON) tools/docs_check.py || docs_status=$$?; \
	$(PYTHON) -m pytest -x -q --durations=15 || pytest_status=$$?; \
	echo "----------------------------------------"; \
	echo "docs-check: $$([ $$docs_status -eq 0 ] && echo PASS || echo "FAIL (exit $$docs_status)")"; \
	echo "pytest:     $$([ $$pytest_status -eq 0 ] && echo PASS || echo "FAIL (exit $$pytest_status)")"; \
	[ $$docs_status -eq 0 ] && [ $$pytest_status -eq 0 ]

# Everything except the minutes-scale chaos drills and soak tests
# (`-m "not slow"`); `make test` above still runs the full set.  The
# slow tests get their own CI lane so a red fast lane answers in
# seconds, not minutes.
test-fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks -q -o python_files="bench_*.py"

# Verifies every analysis fast path against its reference
# implementation (nonzero exit on divergence), then records the perf
# trajectory to BENCH_analysis.json. See docs/performance.md.
bench-json:
	$(PYTHON) tools/bench_runner.py --output BENCH_analysis.json

# Fails when a module under src/repro lacks a docstring, the README
# package map is missing or stale, a docs/README link or #anchor is
# broken, docs/cli.md drifts from the argparse tree, or a documented
# docstring example no longer runs.
docs-check:
	$(PYTHON) tools/docs_check.py

# Regenerate the CLI reference from src/repro/cli.py.
cli-docs:
	$(PYTHON) tools/gen_cli_docs.py

# Branch coverage (coverage.py when installed; a line-coverage tracer
# otherwise) over the fuzzlab tests, with a floor on repro.fuzzlab.
# Prints the markdown summary table documented in docs/testing.md.
coverage:
	$(PYTHON) tools/coverage_gate.py

# The bounded generative-fuzz lane CI runs: 25 sampled campaign
# worlds, every oracle, deterministic for the fixed seed.
fuzz-smoke:
	$(PYTHON) -m repro fuzz run --budget 25 --seed 0 --quiet

# The distributed chaos drill: coordinator + workers as real OS
# processes over localhost — one worker scripted to die mid-board,
# the coordinator SIGTERMed and resumed on the same port, one worker
# healing through a flaky proxy's scripted connection drops — and a
# byte-compare of the distributed report against the single-host
# reference. See docs/distributed.md.
fabric-smoke:
	$(PYTHON) tools/fabric_smoke.py

# The bounded exploration lane CI runs: a 3-generation attack
# evolution against two profiles (frontier JSON + elite corpus seeds
# under explore-artifacts/) and a small-scrub-axis defense Pareto
# sweep — both byte-deterministic for the fixed seed. See
# docs/exploration.md.
explore-smoke:
	$(PYTHON) -m repro explore attack --seed 0 --population 4 \
		--generations 3 --keep-elites 1 --profiles none,scrub_pool \
		-o explore-artifacts/attack-frontier.json \
		--elites explore-artifacts/elites
	$(PYTHON) -m repro explore defenses --boards 1 --victims 2 \
		--models resnet50_pt --input-hw 16 --scrub-rates 16,64 \
		-o explore-artifacts/defense-frontier.json

# Every walkthrough under examples/ runs to the end; the target fails
# if any of them exits non-zero, and names each one that did.
examples:
	@status=0; for example in examples/*.py; do \
		echo "== $$example"; \
		$(PYTHON) $$example || { echo "FAILED: $$example"; status=1; }; \
	done; exit $$status

# The analysis daemon as a real OS process: `repro serve analysis` on
# an ephemeral port, two concurrent clients (duplicate upload dedup,
# one guaranteed quota rejection healed via retry-after), a streaming
# subscriber, and a clean SIGTERM drain. See docs/service.md.
serve-smoke:
	$(PYTHON) tools/serve_smoke.py
