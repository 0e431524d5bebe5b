"""Dump characterization — mapping what a terminated process left behind.

The paper's contribution 4 is "a methodology for characterizing
terminated processes and accessing their private data".  Before the
targeted steps (grep for names, slice at profiled offsets), an analyst
wants a map of the dump: where the readable metadata is, where the
quantized weight arrays are, where an image-like constant block sits,
and what is just empty.

:class:`DumpCartographer` produces that map from byte statistics alone
— no profiles needed — by classifying fixed windows and merging
adjacent windows of the same kind:

==============  ====================================================
kind            signature
==============  ====================================================
ZERO            every byte 0x00 (never-written or scrubbed)
CONSTANT        a single repeated non-zero byte (marker blocks)
TEXT            mostly printable ASCII (paths, names, metadata)
QUANTIZED       small-alphabet symmetric data (int8 weight arrays)
RANDOM          near-uniform bytes (runtime structures, ciphertext)
MIXED           none of the above (pixel data, headers, packed misc)
==============  ====================================================

The per-window statistics come from the shared single-pass engine in
:mod:`repro.analysis.scan` — block-sized scans, batched histograms, a
precomputed log2 table — instead of per-byte Python loops, and the
regions are merged from the run boundaries of the per-window kind
codes; the original implementations survive in
:mod:`repro.analysis.reference` and the equivalence is regression-
tested and re-verified by ``tools/bench_runner.py``.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

import numpy as np

from repro.analysis.scan import (
    KIND_CONSTANT,
    KIND_MIXED,
    KIND_QUANTIZED,
    KIND_RANDOM,
    KIND_TEXT,
    KIND_ZERO,
    ByteStats,
    ScanCore,
)


class RegionKind(enum.Enum):
    """Classification of one region of a scraped dump."""

    ZERO = "zero"
    CONSTANT = "constant"
    TEXT = "text"
    QUANTIZED = "quantized"
    RANDOM = "random"
    MIXED = "mixed"


_KIND_BY_CODE: dict[int, RegionKind] = {
    KIND_ZERO: RegionKind.ZERO,
    KIND_CONSTANT: RegionKind.CONSTANT,
    KIND_TEXT: RegionKind.TEXT,
    KIND_RANDOM: RegionKind.RANDOM,
    KIND_QUANTIZED: RegionKind.QUANTIZED,
    KIND_MIXED: RegionKind.MIXED,
}

_SHARED_CORE = ScanCore()
"""The process-wide default scan core: every cartographer (and the
module-level entropy/printable helpers) shares it, so its scratch
tables warm once and serve all campaign worker threads.  Pass
``core=`` to isolate a scan (e.g. the benchmark runner)."""


@dataclass(frozen=True)
class Region:
    """A maximal run of same-kind windows."""

    start: int
    end: int
    kind: RegionKind

    @property
    def length(self) -> int:
        """Region size in bytes."""
        return self.end - self.start

    def contains(self, offset: int) -> bool:
        """Whether *offset* falls inside the region."""
        return self.start <= offset < self.end


def byte_stats(data) -> ByteStats:
    """Entropy, printable fraction and non-zero count of *data* from
    one histogram, built block by block (see
    :meth:`~repro.analysis.scan.ScanCore.byte_counts`)."""
    return _SHARED_CORE.byte_stats(data)


def shannon_entropy(data) -> float:
    """Bits of entropy per byte of *data* (0.0 for empty input)."""
    return byte_stats(data).entropy


def printable_fraction(data) -> float:
    """Fraction of bytes in the printable ASCII range (1.0 for empty)."""
    return byte_stats(data).printable_fraction


class DumpCartographer:
    """Window-classify a dump and merge into regions."""

    def __init__(
        self,
        window: int = 256,
        text_threshold: float = 0.85,
        random_entropy: float = 7.0,
        quantized_max_alphabet: int = 48,
        core: ScanCore | None = None,
    ) -> None:
        if window < 16:
            raise ValueError(f"window must be >= 16 bytes, got {window}")
        self._window = window
        self._text_threshold = text_threshold
        self._random_entropy = random_entropy
        self._quantized_max_alphabet = quantized_max_alphabet
        self._core = core if core is not None else _SHARED_CORE

    def classify_window(self, data) -> RegionKind:
        """Classify one window of any bytes-like buffer (never copied)."""
        code = self._core.classify_span(
            data, 0, len(data),
            self._text_threshold,
            self._random_entropy,
            self._quantized_max_alphabet,
        )
        return _KIND_BY_CODE[code]

    def map_dump(self, data) -> list[Region]:
        """The full region map of *data*, adjacent windows merged.

        *data* may be bytes, bytearray, memoryview or an mmap-backed
        spool object; the scan never materializes a copy of it.
        """
        codes = self._core.classify_windows(
            data, self._window,
            self._text_threshold,
            self._random_entropy,
            self._quantized_max_alphabet,
        )
        if not codes.size:
            return []
        # Window indices where a new run starts, then byte bounds.
        starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
        kinds = codes[np.concatenate(([0], starts))].tolist()
        bounds = [0, *(starts * self._window).tolist(), len(data)]
        return [
            Region(bounds[index], bounds[index + 1], _KIND_BY_CODE[kind])
            for index, kind in enumerate(kinds)
        ]

    def region_at(self, regions: list[Region], offset: int) -> Region:
        """The region containing *offset*; raises ``ValueError`` outside.

        Regions are sorted and disjoint by construction, so the lookup
        bisects over region starts instead of scanning linearly.
        """
        index = (
            bisect.bisect_right(regions, offset, key=lambda r: r.start) - 1
        )
        if index >= 0 and regions[index].contains(offset):
            return regions[index]
        raise ValueError(f"offset {offset:#x} outside the mapped dump")

    @staticmethod
    def kind_totals(regions: list[Region]) -> dict[RegionKind, int]:
        """Total bytes per kind."""
        totals: dict[RegionKind, int] = {kind: 0 for kind in RegionKind}
        for region in regions:
            totals[region.kind] += region.length
        return totals

    @staticmethod
    def render(regions: list[Region], limit: int = 40) -> str:
        """Human-readable region table (first *limit* regions)."""
        lines = [f"{'start':>10} {'end':>10} {'bytes':>9}  kind"]
        for region in regions[:limit]:
            lines.append(
                f"{region.start:>#10x} {region.end:>#10x} "
                f"{region.length:>9}  {region.kind.value}"
            )
        if len(regions) > limit:
            lines.append(f"... {len(regions) - limit} more regions")
        return "\n".join(lines)
