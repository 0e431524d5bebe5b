"""Straightforward reference implementations of the fast paths.

These are the per-byte-loop versions the single-pass engine in
:mod:`repro.analysis.scan` replaced, plus the per-row marker search
and per-pixel convolution that :class:`repro.utils.hexdump.HexDump`
and :mod:`repro.vitis.ops` replaced with array operations, the
per-byte ``strings`` scan that
:func:`repro.utils.strings.extract_strings` replaced with one regex
pass, the materialized physical-ASLR frame pool that
:class:`repro.mmu.frame_alloc.FrameAllocator` replaced with a sparse
one, and the one-file-per-object writer that
:class:`repro.campaign.runtime.spool.DumpSpool` replaced with segment
appends — kept verbatim so the fast paths can always be held to them:

- ``tests/test_analysis_scan.py`` asserts byte-identical region maps
  and score-identical signature matches over randomized windows,
  ``tests/test_kernel_equivalence.py`` identical marker rows,
  convolution outputs and string hits, and ``tests/test_properties.py``
  identical frames over alloc/free scripts, and
  ``tests/test_spool_segments.py`` the same objects from both spool
  writers (and an old-layout run directory resuming under segments);
- the ``scan_equivalence`` and ``allocator_equivalence`` fuzzlab
  oracles replay each scenario's inputs through both sides;
- ``tools/bench_runner.py`` re-verifies the scan-core, string,
  allocator and spool-writer equivalences on its fixed inputs (exiting
  nonzero on any divergence) and times fast vs. reference to record
  the speedup trajectory in ``BENCH_analysis.json``.

Nothing here is wired into a production path; importing this module
costs nothing at attack time.
"""

from __future__ import annotations

import math
import os
import threading
from collections import Counter

import numpy as np

from repro.attack.carving import Region, RegionKind
from repro.campaign.runtime.spool import DumpSpool, SpoolEntry
from repro.mmu.frame_alloc import FrameAllocator, ReusePolicy
from repro.utils.strings import StringHit
from repro.vitis.ops import _requantize

_PRINTABLE = frozenset(range(0x20, 0x7F))


def reference_shannon_entropy(data: bytes) -> float:
    """Per-byte-probability Shannon entropy (0.0 for empty input)."""
    if not data:
        return 0.0
    counts = Counter(data)
    total = len(data)
    entropy = 0.0
    for count in counts.values():
        probability = count / total
        entropy -= probability * math.log2(probability)
    return entropy


def reference_printable_fraction(data: bytes) -> float:
    """Per-byte printable-ASCII fraction (1.0 for empty input)."""
    if not data:
        return 1.0
    printable = sum(1 for byte in data if 0x20 <= byte <= 0x7E or byte == 0x00)
    return printable / len(data)


def reference_classify_window(
    data: bytes,
    *,
    text_threshold: float = 0.85,
    random_entropy: float = 7.0,
    quantized_max_alphabet: int = 48,
) -> RegionKind:
    """Classify one window with the original per-byte logic."""
    if not data or data == b"\x00" * len(data):
        return RegionKind.ZERO
    distinct = set(data)
    if len(distinct) == 1:
        return RegionKind.CONSTANT
    if reference_printable_fraction(data) >= text_threshold:
        return RegionKind.TEXT
    entropy = reference_shannon_entropy(data)
    # A window of n bytes cannot exceed log2(n) bits of measured
    # entropy, so the uniform-randomness threshold scales down for
    # short windows.
    effective_threshold = min(random_entropy, math.log2(len(data)) - 0.7)
    if entropy >= effective_threshold:
        return RegionKind.RANDOM
    if len(distinct) <= quantized_max_alphabet:
        low_magnitude = sum(1 for byte in data if byte < 64 or byte >= 192)
        if low_magnitude / len(data) > 0.9:
            return RegionKind.QUANTIZED
    return RegionKind.MIXED


def reference_map_dump(
    data: bytes,
    window: int = 256,
    *,
    text_threshold: float = 0.85,
    random_entropy: float = 7.0,
    quantized_max_alphabet: int = 48,
) -> list[Region]:
    """Window-classify and merge with the original slicing loop."""
    regions: list[Region] = []
    for start in range(0, len(data), window):
        chunk = data[start : start + window]
        kind = reference_classify_window(
            chunk,
            text_threshold=text_threshold,
            random_entropy=random_entropy,
            quantized_max_alphabet=quantized_max_alphabet,
        )
        end = min(start + window, len(data))
        if regions and regions[-1].kind is kind and regions[-1].end == start:
            regions[-1] = Region(regions[-1].start, end, kind)
        else:
            regions.append(Region(start, end, kind))
    return regions


def reference_region_at(regions: list[Region], offset: int) -> Region:
    """Linear-scan region lookup; raises ``ValueError`` outside."""
    for region in regions:
        if region.contains(offset):
            return region
    raise ValueError(f"offset {offset:#x} outside the mapped dump")


def reference_match(database, dump_data: bytes) -> dict:
    """O(models × tokens) signature matching via repeated ``in`` scans.

    *database* is a :class:`repro.attack.identify.SignatureDatabase`;
    only its public accessors are used, so the reference stays honest
    about what the fast path replaced.
    """
    results = {}
    for name in database.model_names():
        signature = database.signature(name)
        if not signature.tokens:
            results[name] = (0.0, [])
            continue
        matched = sorted(
            token
            for token in signature.tokens
            if token.encode("utf-8", errors="ignore") in dump_data
        )
        results[name] = (len(matched) / len(signature.tokens), matched)
    return results


def reference_nonzero_bytes(data: bytes) -> int:
    """Per-byte nonzero count."""
    return sum(1 for byte in data if byte)


def reference_marker_run_rows(
    data: bytes, marker_word: int, minimum_rows: int = 2
) -> list[int]:
    """Per-row scan for runs of rows whose every 32-bit word is *marker_word*."""
    solid_word = (marker_word & 0xFFFFFFFF).to_bytes(4, "little") * 4
    solid_rows = []
    for row_number in range(len(data) // 16):
        start = row_number * 16
        if data[start : start + 16] == solid_word:
            solid_rows.append(row_number)
    if minimum_rows <= 1:
        return solid_rows
    kept: list[int] = []
    run: list[int] = []
    for row_number in solid_rows:
        if run and row_number == run[-1] + 1:
            run.append(row_number)
        else:
            if len(run) >= minimum_rows:
                kept.extend(run)
            run = [row_number]
    if len(run) >= minimum_rows:
        kept.extend(run)
    return kept


def _reference_im2col(
    x: np.ndarray, kh: int, kw: int, stride: int
) -> tuple[np.ndarray, int, int]:
    """SAME-padded patch matrix of *x* (H, W, C) for a kh x kw window."""
    height, width, channels = x.shape
    pad_h, pad_w = kh // 2, kw // 2
    padded = np.pad(x, ((pad_h, pad_h), (pad_w, pad_w), (0, 0)))
    out_h = (height + 2 * pad_h - kh) // stride + 1
    out_w = (width + 2 * pad_w - kw) // stride + 1
    columns = np.empty((out_h * out_w, kh * kw * channels), dtype=np.int32)
    row = 0
    for oy in range(out_h):
        iy = oy * stride
        for ox in range(out_w):
            ix = ox * stride
            columns[row] = padded[iy : iy + kh, ix : ix + kw, :].reshape(-1)
            row += 1
    return columns, out_h, out_w


def reference_conv2d_int8(
    x: np.ndarray, weights: np.ndarray, stride: int, shift: int
) -> np.ndarray:
    """SAME conv, int8 in/out, int32 accumulate, per-pixel im2col."""
    kh, kw, cin, cout = weights.shape
    if x.shape[2] != cin:
        raise ValueError(f"input has {x.shape[2]} channels, weights expect {cin}")
    columns, out_h, out_w = _reference_im2col(x.astype(np.int32), kh, kw, stride)
    flat_weights = weights.reshape(kh * kw * cin, cout).astype(np.int32)
    acc = columns @ flat_weights
    return _requantize(acc, shift).reshape(out_h, out_w, cout)


def reference_extract_strings(
    data: bytes, minimum_length: int = 4
) -> list[StringHit]:
    """Per-byte ``strings -n <minimum_length>`` scan."""
    if minimum_length < 1:
        raise ValueError(f"minimum_length must be >= 1, got {minimum_length}")
    hits = []
    run_start = None
    for index, byte in enumerate(data):
        if byte in _PRINTABLE:
            if run_start is None:
                run_start = index
        else:
            if run_start is not None and index - run_start >= minimum_length:
                hits.append(
                    StringHit(run_start, data[run_start:index].decode("ascii"))
                )
            run_start = None
    if run_start is not None and len(data) - run_start >= minimum_length:
        hits.append(StringHit(run_start, data[run_start:].decode("ascii")))
    return hits


class ReferenceFrameAllocator(FrameAllocator):
    """:class:`FrameAllocator` with the physical-ASLR pool materialized.

    Under ``RANDOM`` the whole frame range sits in a list that draws
    swap-remove from, and under every policy a set mirrors the pool for
    :meth:`is_free`: a ZCU102 boot builds a 655,360-entry list and set.
    """

    def __init__(
        self,
        total_frames: int,
        base_frame: int = 0,
        policy: ReusePolicy = ReusePolicy.LIFO,
        seed: int = 0,
    ) -> None:
        super().__init__(total_frames, base_frame, policy, seed)
        if policy is ReusePolicy.RANDOM:
            self._free_pool = list(range(base_frame, total_frames))
        self._free_set: set[int] = set(self._free_pool)

    def _take_from_pool(self, count: int) -> list[int]:
        if self._policy is not ReusePolicy.RANDOM:
            frames = super()._take_from_pool(count)
        else:
            pool = self._free_pool
            # Swap-remove keeps random draws O(1) even with the whole
            # frame range pooled (the physical-ASLR configuration).
            randrange = self._rng.randrange
            frames = []
            for _ in range(count):
                index = randrange(len(pool))
                frames.append(pool[index])
                pool[index] = pool[-1]
                pool.pop()
        self._free_set.difference_update(frames)
        return frames

    def free(self, frames: list[int]) -> None:
        """Return *frames* to the pool and to the membership set."""
        super().free(frames)
        self._free_set.update(frames)

    def is_free(self, frame: int) -> bool:
        """Whether *frame* is in the reuse pool, by set membership."""
        return frame in self._free_set


class ReferenceDumpSpool(DumpSpool):
    """:class:`DumpSpool` filing one file per object, as it did before
    segments: ``objects/<aa>/<sha256>.bin``, each written to a temp
    file and published with an atomic rename.  Reads are inherited —
    the segment spool reads this layout too, which is how run
    directories written before segments resume.
    """

    def _store(self, digest: str, data, nbytes: int) -> SpoolEntry:
        path = self._legacy_path(digest)
        if path.exists():
            with self._lock:
                self._put_hits += 1
            return SpoolEntry(digest, nbytes, deduplicated=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Scratch name is unique per writer (pid *and* thread: an
        # in-process executor with several workers writes from several
        # threads of one pid),
        # so racing writers never share a temp file and both renames
        # publish identical content.
        scratch = path.parent / (
            f"{digest}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        scratch.write_bytes(data)
        os.replace(scratch, path)
        with self._lock:
            self._put_misses += 1
        return SpoolEntry(digest, nbytes, deduplicated=False)
