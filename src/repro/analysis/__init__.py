"""The shared dump-analysis engine — single-pass scanning for step 4.

Every dump-analysis hot path routes through this package:

- :mod:`repro.analysis.scan` — :class:`ScanCore`, the table-driven
  windowed-statistics engine behind
  :class:`repro.attack.carving.DumpCartographer`,
  ``repro.evaluation.metrics`` residue counting, and the campaign
  workers' per-victim analysis;
- :mod:`repro.analysis.ahocorasick` — :class:`AhoCorasick`, the
  multi-pattern automaton that makes
  :meth:`repro.attack.identify.SignatureDatabase.match` a single pass
  over the dump regardless of how many models are profiled;
- :mod:`repro.analysis.reference` — the straightforward per-byte
  implementations the fast paths replaced, kept for equivalence
  testing and for ``tools/bench_runner.py``'s divergence gate.

See ``docs/performance.md`` for the hot-path inventory, the design of
the scan core, and how to record/read ``BENCH_analysis.json``.
"""

from repro.analysis.ahocorasick import AhoCorasick
from repro.analysis.scan import (
    CLASS_LOW_MAGNITUDE,
    CLASS_PRINTABLE,
    CLASS_TABLE,
    PRINTABLE_BYTES,
    ScanCore,
    count_positive,
    nonzero_count,
)

__all__ = [
    "AhoCorasick",
    "CLASS_LOW_MAGNITUDE",
    "CLASS_PRINTABLE",
    "CLASS_TABLE",
    "PRINTABLE_BYTES",
    "ScanCore",
    "count_positive",
    "nonzero_count",
]
