#!/usr/bin/env python3
"""Run one ``repro`` CLI command with the benchmark's span wrappers on.

    python3 perfbench/launch.py --trace-out FILE [--op N] -- ARGS...

A traced benchmark run starts its fabric workers and its analysis
daemon through this launcher instead of ``python -m repro``: it wraps
the same layer calls the benchmark process wraps
(:func:`spans.install`), calls ``repro.cli.main(ARGS)``, and writes
the recorded spans and counters to FILE once the command returns.
Untraced runs never use it.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: launch.py --trace-out FILE [--op N] -- ARGS...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--op", type=int, default=None)
    options = parser.parse_args(argv[:split])

    from repro.cli import main as cli_main

    tracer = Tracer()
    tracer.op = options.op
    install(tracer)
    try:
        return cli_main(argv[split + 1:])
    finally:
        tracer.dump(options.trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
