"""Single-pass scanning primitives shared by every dump-analysis hot path.

PR 1 made extraction ~250x faster, which moved the fleet bottleneck
downstream into step-4 analysis: characterizing each multi-megabyte
dump (`repro.attack.carving`) and grepping it for model signatures
(`repro.attack.identify`) still walked the bytes in Python.  This
module is the shared engine those paths now route through:

- **One byte-class rule** — a byte is printable or low-magnitude by
  two uint8 comparisons (:func:`printable_mask`,
  :func:`low_magnitude_mask`).  A block's windows are counted with
  them directly; :data:`CLASS_TABLE`, :data:`PRINTABLE_BYTES` (the
  ``bytes.translate`` operand a lone window's count uses) and the
  histogram bins the other counts sum are all built from them, so no
  path can drift from another.
- **Buffer-generic dispatch** — every entry point accepts any
  C-contiguous bytes-like object (``bytes``, ``bytearray``,
  ``memoryview``, ``mmap.mmap``) without copying it: ``bytes`` and
  ``bytearray`` keep their C-level ``count``/``translate`` fast paths,
  everything else routes through zero-copy ``np.frombuffer`` views
  (see :func:`as_uint8`) and vectorized equivalents.  An mmap-backed
  spool object therefore scans at the same speed as a slurped copy,
  minus the copy.
- **Block-sized scratch** — a dump is scanned in blocks of
  :attr:`ScanCore.BLOCK_BYTES`, and a block's windows are histogrammed
  in batches by one ``bincount`` over ``intp`` keys, each batch within
  :attr:`ScanCore.HISTOGRAM_SCRATCH`.  Every temporary is sized by its
  block, never by its dump, and only one int8 kind code per window
  outlives its block, so an analysis costs a few MiB of scratch for
  any dump size.
- **A precomputed log2 table** — entropy is derived from counts as
  ``log2(n) - sum(c*log2(c))/n`` using a lazily grown ``c*log2(c)``
  table, never from per-byte probability loops.
- **Zero/constant fast paths** — uniform windows are settled by one
  vectorized comparison before any histogram is built, so the
  (dominant) scrubbed and marker regions never reach ``bincount``.

:class:`ScanCore` owns the reusable scratch state (the log2 table);
the module-level core shared by :mod:`repro.attack.carving` warms it
once per process and serves every dump of every campaign wave, across
all board-worker threads.  The straightforward implementations these
fast paths replaced live on in :mod:`repro.analysis.reference` and the
equivalence between the two is asserted by
``tests/test_analysis_scan.py`` and enforced at benchmark time by
``tools/bench_runner.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CLASS_PRINTABLE = 0x01
"""Class bit: printable ASCII (0x20-0x7E) or NUL (string terminators
ride along with C strings in memory)."""

CLASS_LOW_MAGNITUDE = 0x02
"""Class bit: byte < 64 or byte >= 192 — a signed int8 value near
zero, the footprint of quantized weights."""


def printable_mask(values: np.ndarray) -> np.ndarray:
    """Which of the uint8 *values* are in :data:`CLASS_PRINTABLE`.

    uint8 arithmetic wraps, so 0x20-0x7E is exactly
    ``value - 0x20 < 0x5F``.  Comparisons release the GIL, where
    ``bytes.translate`` does not.
    """
    return (np.subtract(values, 0x20, dtype=np.uint8) < 0x5F) | (values == 0)


def low_magnitude_mask(values: np.ndarray) -> np.ndarray:
    """Which of the uint8 *values* are in :data:`CLASS_LOW_MAGNITUDE`:
    below 64 or from 192 is exactly ``value + 64 < 128`` in uint8."""
    return np.add(values, 64, dtype=np.uint8) < 128


_ALL_BYTES = np.arange(256, dtype=np.uint8)

_PRINTABLE_VALUES = np.flatnonzero(printable_mask(_ALL_BYTES))

_LOW_MAGNITUDE_VALUES = np.flatnonzero(low_magnitude_mask(_ALL_BYTES))

CLASS_TABLE = bytes(
    (CLASS_PRINTABLE if printable else 0) | (CLASS_LOW_MAGNITUDE if low else 0)
    for printable, low in zip(
        printable_mask(_ALL_BYTES), low_magnitude_mask(_ALL_BYTES)
    )
)
"""Both class bits of every byte value, built from the two masks."""

PRINTABLE_BYTES = _PRINTABLE_VALUES.astype(np.uint8).tobytes()
"""Every printable byte value, as a ``translate``/``count`` operand."""

# Window-kind codes produced by the classifiers.  repro.attack.carving
# maps them onto its public RegionKind enum; the numeric order encodes
# the classification priority (first match wins).
KIND_ZERO = 0
KIND_CONSTANT = 1
KIND_TEXT = 2
KIND_RANDOM = 3
KIND_QUANTIZED = 4
KIND_MIXED = 5


def as_uint8(data, start: int = 0, end: int | None = None) -> np.ndarray:
    """Zero-copy ``uint8`` array view of ``data[start:end]``.

    Works for any C-contiguous bytes-like buffer — ``bytes``,
    ``bytearray``, ``memoryview``, ``mmap.mmap`` — and never copies:
    the array aliases the caller's buffer (and keeps it alive via the
    buffer protocol, so an mmap cannot be closed while the array is
    referenced).
    """
    view = memoryview(data)
    if start or end is not None:
        view = view[start : view.nbytes if end is None else end]
    return np.frombuffer(view, dtype=np.uint8)


def nonzero_count(data) -> int:
    """Bytes of *data* that are not 0x00, without copying *data*.

    ``bytes``/``bytearray`` use the single C-level ``count`` call;
    other buffers (mmap, memoryview) have no ``count`` and go through
    a zero-copy numpy view instead.
    """
    if isinstance(data, (bytes, bytearray)):
        return len(data) - data.count(0)
    return int(np.count_nonzero(as_uint8(data)))


def count_value(data, value: int, start: int = 0, end: int | None = None) -> int:
    """Occurrences of byte *value* in ``data[start:end]``, copy-free."""
    if end is None:
        end = len(data)
    if isinstance(data, (bytes, bytearray)):
        return data.count(value, start, end)
    return int(np.count_nonzero(as_uint8(data, start, end) == value))


def count_positive(values) -> int:
    """How many of *values* are strictly positive."""
    return sum(1 for value in values if value > 0)


def _entropy_from_counts(counts: np.ndarray, n: int) -> float:
    """``log2(n) - sum(c*log2(c))/n`` over the nonzero histogram bins."""
    nonzero = counts[counts > 0].astype(np.float64)
    return math.log2(n) - float((nonzero * np.log2(nonzero)).sum()) / n


@dataclass(frozen=True)
class ByteStats:
    """Whole-buffer statistics that one byte histogram settles.

    The one whole-buffer path: :meth:`ScanCore.entropy`,
    :func:`repro.attack.carving.shannon_entropy` and
    :func:`repro.attack.carving.printable_fraction` read their field
    of it.  ``nonzero`` equals :func:`nonzero_count`, which the
    campaign keeps for its single C-level ``count`` call.
    """

    entropy: float
    printable_fraction: float
    nonzero: int

    @classmethod
    def of_counts(cls, counts: np.ndarray) -> "ByteStats":
        """The statistics of the buffer whose 256-bin histogram is *counts*."""
        n = int(counts.sum())
        if n == 0:
            return cls(entropy=0.0, printable_fraction=1.0, nonzero=0)
        return cls(
            entropy=_entropy_from_counts(counts, n),
            printable_fraction=int(counts[_PRINTABLE_VALUES].sum()) / n,
            nonzero=n - int(counts[0]),
        )


class ScanCore:
    """Reusable single-pass scanning engine.

    Holds the scratch state the fast paths share — the ``c*log2(c)``
    table, nothing per-dump — so one core instance can serve every
    dump of a whole campaign.  The scratch only ever grows and lookups
    return local references, so the default shared core in
    :mod:`repro.attack.carving` is safe across the campaign engine's
    board-worker threads.
    """

    BLOCK_BYTES = 1 << 18
    """Dump bytes one block of a scan covers (at least one window).
    Much smaller blocks save little more memory but let per-call
    overhead, which holds the GIL, dominate: two analysis threads then
    stop overlapping (docs/performance.md, "Bounded analysis
    memory")."""

    HISTOGRAM_SCRATCH = 1 << 20
    """Bytes of ``intp`` keys plus int64 counts one ``bincount`` may
    build.  A batch of windows costs ``8 * (window + 256)`` bytes per
    window, so it holds at most 481 windows (at the minimum window of
    16 bytes) and 102 of 1024 bytes; a whole-dump histogram adds up
    ``HISTOGRAM_SCRATCH // 8`` dump bytes per call."""

    def __init__(self) -> None:
        self._clog2: np.ndarray | None = None

    # -- shared scratch tables ----------------------------------------------

    def _clog2_table(self, n: int) -> np.ndarray:
        """The ``c * log2(c)`` lookup table, grown to cover counts <= n.

        Only the batched window classifier gathers through this, so
        *n* is bounded by the cartographer's window size.  The table
        grows monotonically and the locally built array is returned,
        so concurrent callers sharing one core (the module-level
        default serves every thread) can never hand each other a
        too-small table.
        """
        table = self._clog2
        if table is None or len(table) <= n:
            size = max(n + 1, 4097)
            c = np.arange(size, dtype=np.float64)
            table = np.zeros(size, dtype=np.float64)
            np.log2(c, where=c > 0, out=table)
            table *= c
            current = self._clog2
            if current is None or len(current) < len(table):
                self._clog2 = table
        return table

    # -- windowed statistics ------------------------------------------------

    def byte_counts(
        self, data, start: int = 0, end: int | None = None
    ) -> np.ndarray:
        """256-bin byte histogram of ``data[start:end]`` (zero-copy slice).

        Accumulated in pieces of ``HISTOGRAM_SCRATCH // 8`` bytes:
        ``bincount`` casts its input to ``intp``, so one call over a
        whole dump would cost eight bytes of scratch per dump byte.
        """
        view = as_uint8(data, start, end)
        step = max(1, self.HISTOGRAM_SCRATCH // 8)
        counts = np.zeros(256, dtype=np.intp)
        for first in range(0, view.size, step):
            counts += np.bincount(view[first : first + step], minlength=256)
        return counts

    def byte_stats(
        self, data, start: int = 0, end: int | None = None
    ) -> ByteStats:
        """Entropy, printable fraction and non-zero count of
        ``data[start:end]``, all from one block-accumulated histogram.

        Entropy is computed from counts as ``log2(n) -
        sum(c*log2(c))/n`` — the algebraic rewrite of
        ``-sum(p*log2(p))`` that never touches per-byte probabilities.
        """
        return ByteStats.of_counts(self.byte_counts(data, start, end))

    def entropy(self, data, start: int = 0, end: int | None = None) -> float:
        """Bits of Shannon entropy per byte of ``data[start:end]`` (0.0
        when empty), off :meth:`byte_stats`."""
        return self.byte_stats(data, start, end).entropy

    def printable_count(
        self, data, start: int = 0, end: int | None = None
    ) -> int:
        """Printable-class bytes in ``data[start:end]``.

        ``bytes``/``bytearray`` use the C-level translate-delete trick
        on the (window-sized) slice; other buffers sum the printable
        bins of a zero-copy histogram instead of materializing a copy.
        """
        if end is None:
            end = len(data)
        if isinstance(data, (bytes, bytearray)):
            segment = data if (start == 0 and end == len(data)) else data[start:end]
            return len(segment) - len(segment.translate(None, PRINTABLE_BYTES))
        counts = self.byte_counts(data, start, end)
        return int(counts[_PRINTABLE_VALUES].sum())

    # -- window classification ----------------------------------------------

    def classify_span(
        self,
        data,
        start: int,
        end: int,
        text_threshold: float,
        random_entropy: float,
        quantized_max_alphabet: int,
    ) -> int:
        """Classify one window ``data[start:end]``; returns a KIND code.

        The decision order matches the reference implementation
        exactly: zero → constant → text → random → quantized → mixed.
        *data* may be any bytes-like buffer; nothing is copied.
        """
        n = end - start
        if n <= 0 or count_value(data, 0, start, end) == n:
            return KIND_ZERO
        if count_value(data, data[start], start, end) == n:
            return KIND_CONSTANT
        if self.printable_count(data, start, end) / n >= text_threshold:
            return KIND_TEXT
        counts = self.byte_counts(data, start, end)
        if _entropy_from_counts(counts, n) >= min(
            random_entropy, math.log2(n) - 0.7
        ):
            return KIND_RANDOM
        if int((counts > 0).sum()) <= quantized_max_alphabet:
            low_magnitude = int(counts[_LOW_MAGNITUDE_VALUES].sum())
            if low_magnitude / n > 0.9:
                return KIND_QUANTIZED
        return KIND_MIXED

    def classify_windows(
        self,
        data,
        window: int,
        text_threshold: float,
        random_entropy: float,
        quantized_max_alphabet: int,
    ) -> np.ndarray:
        """KIND codes (int8) for every *window*-sized slice of *data*.

        Full windows are classified one block of
        :attr:`BLOCK_BYTES` at a time by :meth:`_classify_block`; only
        each window's int8 code outlives its block.  The trailing
        partial window (if any) goes through :meth:`classify_span`,
        which applies the identical decision order.
        """
        n = len(data)
        full = n // window
        codes = np.empty(-(-n // window), dtype=np.int8)
        per_block = max(1, self.BLOCK_BYTES // window)
        for first in range(0, full, per_block):
            last = min(first + per_block, full)
            codes[first:last] = self._classify_block(
                as_uint8(data, first * window, last * window).reshape(
                    -1, window
                ),
                text_threshold, random_entropy, quantized_max_alphabet,
            )
        if full < len(codes):
            codes[full] = self.classify_span(
                data, full * window, n,
                text_threshold, random_entropy, quantized_max_alphabet,
            )
        return codes

    def _classify_block(
        self,
        block: np.ndarray,
        text_threshold: float,
        random_entropy: float,
        quantized_max_alphabet: int,
    ) -> np.ndarray:
        """KIND codes of the windows that are *block*'s rows.

        Uniform and text windows are settled from comparisons alone;
        only the rest are histogrammed, as many per ``bincount`` as
        :attr:`HISTOGRAM_SCRATCH` allows, and every later statistic
        (entropy, then alphabet size and low-magnitude fraction for the
        windows that are not random) falls out of those rows.  The
        class counts come from :func:`printable_mask` and
        :func:`low_magnitude_mask`.
        """
        nwin, window = block.shape
        uniform = (block == block[:, :1]).all(axis=1)
        printable = np.count_nonzero(printable_mask(block), axis=1)
        text = (printable / window) >= text_threshold
        # Later assignments win: zero, then constant, then text.
        codes = np.full(nwin, KIND_MIXED, dtype=np.int8)
        codes[text] = KIND_TEXT
        codes[uniform] = KIND_CONSTANT
        codes[uniform & (block[:, 0] == 0)] = KIND_ZERO
        need = np.flatnonzero(~(uniform | text))
        if not need.size:
            return codes

        threshold = min(random_entropy, math.log2(window) - 0.7)
        log2_window = math.log2(window)
        table = self._clog2_table(window)
        batch = max(1, self.HISTOGRAM_SCRATCH // (8 * (window + 256)))
        offsets = np.arange(min(need.size, batch), dtype=np.intp)[:, None] * 256
        for first in range(0, need.size, batch):
            rows = need[first : first + batch]
            m = rows.size
            sub = block[rows]
            counts = np.bincount(
                np.add(sub, offsets[:m], dtype=np.intp).ravel(),
                minlength=m * 256,
            ).reshape(m, 256)
            entropy = log2_window - table[counts].sum(axis=1) / window
            random_kind = entropy >= threshold
            codes[rows[random_kind]] = KIND_RANDOM
            rest = np.flatnonzero(~random_kind)
            if not rest.size:
                continue
            low = np.count_nonzero(low_magnitude_mask(sub[rest]), axis=1)
            quantized = (
                np.count_nonzero(counts[rest], axis=1) <= quantized_max_alphabet
            ) & ((low / window) > 0.9)
            codes[rows[rest[quantized]]] = KIND_QUANTIZED
        return codes
