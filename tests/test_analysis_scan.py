"""Fast-path vs. reference equivalence for the single-pass scan engine.

Every hot path in ``repro.analysis`` must agree with the
straightforward per-byte implementation it replaced
(``repro.analysis.reference``): byte-identical region maps, identical
window classifications, score-identical signature matches — over
randomized windows and the empty / all-zero / single-byte /
partial-trailing-window edges.
"""

import math
import mmap
import tracemalloc

import numpy as np
import pytest

from repro.analysis.ahocorasick import AhoCorasick
from repro.analysis.reference import (
    reference_classify_window,
    reference_map_dump,
    reference_match,
    reference_nonzero_bytes,
    reference_printable_fraction,
    reference_region_at,
    reference_shannon_entropy,
)
from repro.analysis.scan import (
    CLASS_LOW_MAGNITUDE,
    CLASS_PRINTABLE,
    CLASS_TABLE,
    ScanCore,
    count_positive,
    nonzero_count,
)
from repro.attack.carving import (
    DumpCartographer,
    byte_stats,
    printable_fraction,
    shannon_entropy,
)
from repro.attack.extraction import ScrapedDump
from repro.attack.identify import ModelSignature, SignatureDatabase
from repro.service.analysis import (
    CARVE_PRESETS,
    AnalysisConfig,
    analyze_dump,
    mine_database,
)
from repro.utils.hexdump import HexDump


def _random_windows(seed: int, count: int = 24) -> list[bytes]:
    """A mixed bag of windows: every kind plus degenerate shapes."""
    rng = np.random.default_rng(seed)
    windows = [
        b"",                      # empty
        b"\x00",                  # single zero byte
        b"\x41",                  # single printable byte
        b"\xf7",                  # single high byte
        b"\x00" * 256,            # all-zero full window
        b"\x55" * 100,            # constant
        b"/usr/share/vitis_ai_library/models/resnet50_pt\x00" * 3,
        rng.integers(-8, 9, size=256, dtype=np.int8).tobytes(),   # quantized
        rng.integers(0, 256, size=256, dtype=np.uint8).tobytes(),  # random
        rng.integers(0, 256, size=131, dtype=np.uint8).tobytes(),  # partial
    ]
    for _ in range(count):
        length = int(rng.integers(1, 512))
        windows.append(
            rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        )
    for _ in range(count):
        # Small-alphabet windows hover around the quantized boundary.
        length = int(rng.integers(16, 300))
        alphabet = rng.integers(0, 256, size=int(rng.integers(2, 60)))
        windows.append(
            rng.choice(alphabet, size=length).astype(np.uint8).tobytes()
        )
    return windows


def _composite_dump(seed: int) -> bytes:
    """A dump mixing every region kind, ending on a partial window."""
    rng = np.random.default_rng(seed)
    return b"".join(
        [
            bytes(1024),
            rng.integers(-10, 11, size=2048, dtype=np.int8).tobytes(),
            b"/usr/share/vitis_ai_library/models/squeezenet_pt\x00" * 32,
            rng.integers(0, 256, size=1536, dtype=np.uint8).tobytes(),
            b"\xff" * 512,
            rng.integers(0, 256, size=333, dtype=np.uint8).tobytes(),
        ]
    )


class TestClassTable:
    def test_printable_bit_matches_reference_definition(self):
        for byte in range(256):
            expected = byte == 0 or 0x20 <= byte <= 0x7E
            assert bool(CLASS_TABLE[byte] & CLASS_PRINTABLE) == expected

    def test_low_magnitude_bit_matches_reference_definition(self):
        for byte in range(256):
            expected = byte < 64 or byte >= 192
            assert bool(CLASS_TABLE[byte] & CLASS_LOW_MAGNITUDE) == expected


class TestStatisticEquivalence:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_entropy_matches_reference(self, seed):
        for window in _random_windows(seed):
            assert shannon_entropy(window) == pytest.approx(
                reference_shannon_entropy(window), abs=1e-9
            )

    @pytest.mark.parametrize("seed", [4, 5])
    def test_printable_fraction_identical(self, seed):
        for window in _random_windows(seed):
            assert printable_fraction(window) == reference_printable_fraction(
                window
            )

    def test_nonzero_count_identical(self):
        rng = np.random.default_rng(11)
        for data in (b"", b"\x00" * 64, b"\x01",
                     rng.integers(0, 4, size=4096, dtype=np.uint8).tobytes()):
            assert nonzero_count(data) == reference_nonzero_bytes(data)

    def test_count_positive(self):
        assert count_positive([]) == 0
        assert count_positive([0, 1, -3, 7, 0]) == 2

    def test_scan_core_reuse_across_inputs(self):
        # One core, many differently sized inputs: the lazily grown
        # scratch tables must never leak state between scans.
        core = ScanCore()
        rng = np.random.default_rng(12)
        for length in (16, 4096, 100, 9000, 1):
            data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
            assert core.entropy(data) == pytest.approx(
                reference_shannon_entropy(data), abs=1e-9
            )


class TestClassificationEquivalence:
    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_classify_window_identical(self, seed):
        cartographer = DumpCartographer()
        for window in _random_windows(seed):
            assert cartographer.classify_window(
                window
            ) is reference_classify_window(window)

    def test_classify_window_identical_under_custom_thresholds(self):
        cartographer = DumpCartographer(
            window=64, text_threshold=0.5, random_entropy=5.0,
            quantized_max_alphabet=16,
        )
        for window in _random_windows(31):
            assert cartographer.classify_window(
                window
            ) is reference_classify_window(
                window, text_threshold=0.5, random_entropy=5.0,
                quantized_max_alphabet=16,
            )

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_map_dump_byte_identical(self, seed):
        cartographer = DumpCartographer()
        dump = _composite_dump(seed)
        assert cartographer.map_dump(dump) == reference_map_dump(dump)

    def test_map_dump_edges(self):
        cartographer = DumpCartographer()
        for dump in (b"", b"\x00", b"\x41", b"\x00" * 256, b"\x00" * 300,
                     b"\xaa" * 17):
            assert cartographer.map_dump(dump) == reference_map_dump(dump)

    def test_map_dump_with_non_default_window(self):
        cartographer = DumpCartographer(window=64)
        dump = _composite_dump(7)
        assert cartographer.map_dump(dump) == reference_map_dump(
            dump, window=64
        )

    def test_map_dump_accepts_bytearray(self):
        dump = bytearray(_composite_dump(9))
        assert DumpCartographer().map_dump(dump) == reference_map_dump(
            bytes(dump)
        )


class _TinyBlockCore(ScanCore):
    """A core whose blocks and histogram batches are tiny, so short
    inputs cross many block and batch boundaries."""

    BLOCK_BYTES = 1024
    HISTOGRAM_SCRATCH = 6 * 1024


def _dump_of_length(seed: int, length: int) -> bytes:
    """Every region kind, tiled and cut to *length* bytes."""
    body = _composite_dump(seed)
    return (body * (length // len(body) + 1))[:length]


def _one_shot_stats(data: bytes) -> tuple[float, float, int]:
    """Entropy from one whole-buffer ``bincount``, printable fraction
    and non-zero count from the per-byte references."""
    n = len(data)
    if n == 0:
        return 0.0, 1.0, 0
    counts = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    nonzero = counts[counts > 0].astype(np.float64)
    entropy = math.log2(n) - float((nonzero * np.log2(nonzero)).sum()) / n
    return (
        entropy,
        reference_printable_fraction(data),
        reference_nonzero_bytes(data),
    )


class TestBlockedScan:
    """Block and histogram-batch boundaries never show in a result."""

    BLOCK = _TinyBlockCore.BLOCK_BYTES

    @pytest.mark.parametrize("window", [16, 17, 100, 1024, 2 * BLOCK + 5])
    @pytest.mark.parametrize("blocks", [1, 2, 5])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_map_dump_matches_reference_across_blocks(
        self, window, blocks, offset
    ):
        dump = _dump_of_length(window + blocks, blocks * self.BLOCK + offset)
        tiny = DumpCartographer(window=window, core=_TinyBlockCore())
        expected = reference_map_dump(dump, window=window)
        assert tiny.map_dump(dump) == expected
        assert DumpCartographer(window=window).map_dump(dump) == expected

    @pytest.mark.parametrize("window", [16, 100, 4096])
    def test_empty_and_sub_window_inputs(self, window):
        tiny = DumpCartographer(window=window, core=_TinyBlockCore())
        for dump in (b"", b"\x00", b"\x41" * (window - 1),
                     _dump_of_length(3, window - 1)):
            assert tiny.map_dump(dump) == reference_map_dump(
                dump, window=window
            )

    def test_every_buffer_type(self, tmp_path):
        dump = _dump_of_length(17, 5 * self.BLOCK + 1)
        path = tmp_path / "dump.bin"
        path.write_bytes(dump)
        expected = reference_map_dump(dump, window=64)
        tiny = DumpCartographer(window=64, core=_TinyBlockCore())
        with path.open("rb") as file, mmap.mmap(
            file.fileno(), 0, access=mmap.ACCESS_READ
        ) as mapped:
            for buffer in (dump, bytearray(dump), memoryview(dump), mapped):
                assert tiny.map_dump(buffer) == expected, type(buffer)
                assert _TinyBlockCore().byte_stats(buffer) == byte_stats(dump)

    def test_custom_thresholds_across_blocks(self):
        dump = _dump_of_length(29, 7 * self.BLOCK + 3)
        for kwargs in (
            {"text_threshold": 0.5, "random_entropy": 5.0,
             "quantized_max_alphabet": 16},
            {"text_threshold": 0.99, "random_entropy": 2.0,
             "quantized_max_alphabet": 200},
        ):
            tiny = DumpCartographer(window=64, core=_TinyBlockCore(), **kwargs)
            assert tiny.map_dump(dump) == reference_map_dump(
                dump, window=64, **kwargs
            )

    @pytest.mark.parametrize("length", [0, 1, BLOCK - 1, BLOCK, 9 * BLOCK + 7])
    def test_block_accumulated_stats_equal_one_shot_bit_for_bit(self, length):
        dump = _dump_of_length(length % 7, length)
        stats = _TinyBlockCore().byte_stats(dump)
        assert (
            stats.entropy, stats.printable_fraction, stats.nonzero
        ) == _one_shot_stats(dump)

    def test_analyze_dump_stats_equal_one_shot_over_many_blocks(self):
        dump = _dump_of_length(5, 3 * ScanCore.BLOCK_BYTES + 11)
        database = mine_database(("resnet50_pt",), 32)
        analysis = analyze_dump(memoryview(dump), AnalysisConfig(database))
        entropy, printable, nonzero = _one_shot_stats(dump)
        assert analysis.entropy == round(entropy, 6)
        assert analysis.printable_fraction == round(printable, 6)
        assert analysis.residue_nbytes == nonzero

    def test_analysis_scratch_is_bounded_by_blocks_not_the_dump(self):
        # One bincount over a whole 16 MiB dump would take 128 MiB of
        # intp scratch; blocked scans stay a few MiB for every preset.
        # Quantized bytes send every window through the histogram,
        # entropy, alphabet and low-magnitude steps, the scan's widest
        # scratch path, and hold no signature anchors, so the
        # automaton's Python-level walk stays off tracemalloc's clock.
        dump = np.random.default_rng(3).integers(
            -9, 10, 16 << 20, dtype=np.int8
        ).tobytes()
        database = mine_database(("resnet50_pt",), 32)
        for name, preset in sorted(CARVE_PRESETS.items()):
            config = AnalysisConfig(database, carve=preset)
            tracemalloc.start()
            try:
                analyze_dump(dump, config)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 16 << 20, (name, peak)


class TestRegionAtBisect:
    def test_matches_linear_reference_everywhere(self):
        cartographer = DumpCartographer()
        dump = _composite_dump(55)
        regions = cartographer.map_dump(dump)
        assert len(regions) > 3
        probes = [0, len(dump) - 1]
        for region in regions:
            probes += [region.start, region.end - 1]
        for offset in probes:
            assert cartographer.region_at(
                regions, offset
            ) == reference_region_at(regions, offset)

    def test_outside_offsets_raise(self):
        cartographer = DumpCartographer()
        regions = cartographer.map_dump(b"\x00" * 512)
        for offset in (-1, 512, 100000):
            with pytest.raises(ValueError):
                cartographer.region_at(regions, offset)
            with pytest.raises(ValueError):
                reference_region_at(regions, offset)

    def test_empty_region_list_raises(self):
        with pytest.raises(ValueError):
            DumpCartographer().region_at([], 0)


def _token_database(seed: int, models: int = 6, tokens: int = 12):
    rng = np.random.default_rng(seed)
    signatures = []
    for index in range(models):
        name = f"model{index}_pt"
        signatures.append(ModelSignature(
            model_name=name,
            tokens=frozenset(
                f"{name}_t{j}_{int(rng.integers(100))}" for j in range(tokens)
            ),
        ))
    return SignatureDatabase(signatures), signatures


class TestSignatureMatchEquivalence:
    @pytest.mark.parametrize("seed", [61, 62, 63])
    def test_scores_identical_to_in_scan_reference(self, seed):
        database, signatures = _token_database(seed)
        rng = np.random.default_rng(seed + 1000)
        embedded = []
        for signature in signatures[::2]:
            embedded += sorted(signature.tokens)[: int(rng.integers(1, 9))]
        dump = (
            rng.integers(0, 256, size=8192, dtype=np.uint8).tobytes()
            + "\x00".join(embedded).encode()
            + bytes(2048)
        )
        assert database.match(dump) == reference_match(database, dump)

    def test_empty_dump_and_absent_tokens(self):
        database, _ = _token_database(70)
        for dump in (b"", bytes(4096), b"unrelated text entirely"):
            assert database.match(dump) == reference_match(database, dump)

    def test_empty_signature_scores_zero(self):
        database = SignatureDatabase([
            ModelSignature(model_name="empty", tokens=frozenset()),
            ModelSignature(model_name="real", tokens=frozenset({"tokenA"})),
        ])
        result = database.match(b"has tokenA inside")
        assert result["empty"] == (0.0, [])
        assert result["real"] == (1.0, ["tokenA"])
        assert result == reference_match(database, b"has tokenA inside")

    def test_tokens_with_colliding_encodings_all_match(self):
        # With errors="ignore", distinct tokens can share one encoding
        # (a lone surrogate drops out); every colliding token must
        # still be reported, exactly like the per-token ``in`` scans.
        database = SignatureDatabase([
            ModelSignature(model_name="a", tokens=frozenset({"abcdef"})),
            ModelSignature(model_name="b",
                           tokens=frozenset({"abc\udc80def"})),
        ])
        dump = b"xx abcdef yy"
        result = database.match(dump)
        assert result == reference_match(database, dump)
        assert result["a"] == (1.0, ["abcdef"])
        assert result["b"] == (1.0, ["abc\udc80def"])

    def test_shared_token_matches_both_models(self):
        database = SignatureDatabase([
            ModelSignature(model_name="a", tokens=frozenset({"shared_tok"})),
            ModelSignature(model_name="b",
                           tokens=frozenset({"shared_tok", "only_b"})),
        ])
        dump = b"...shared_tok..."
        assert database.match(dump) == reference_match(database, dump)


class TestAhoCorasick:
    def test_anchored_equals_streaming_and_in_scan(self):
        rng = np.random.default_rng(81)
        patterns = [
            bytes(rng.integers(0, 256, size=int(rng.integers(1, 12)),
                               dtype=np.uint8))
            for _ in range(40)
        ]
        automaton = AhoCorasick(patterns)
        for _ in range(20):
            haystack = bytes(
                rng.integers(0, 256, size=2048, dtype=np.uint8)
            ) + patterns[int(rng.integers(len(patterns)))]
            expected = {p for p in automaton.patterns if p in haystack}
            assert automaton.find_present(haystack) == expected
            assert automaton.find_present_streaming(haystack) == expected

    def test_overlapping_and_nested_patterns(self):
        automaton = AhoCorasick([b"net50", b"resnet50_pt", b"50_pt", b"ee"])
        haystack = b"xx/resnet50_pt/weights"
        expected = {b"net50", b"resnet50_pt", b"50_pt"}
        assert automaton.find_present(haystack) == expected
        assert automaton.find_present_streaming(haystack) == expected

    def test_empty_pattern_always_present(self):
        # ``b"" in data`` is True for any data; presence semantics of
        # the replaced ``in`` scans are preserved verbatim.
        automaton = AhoCorasick([b"", b"abc"])
        assert automaton.find_present(b"") == {b""}
        assert automaton.find_present(b"zzz") == {b""}
        assert automaton.find_present(b"xabcx") == {b"", b"abc"}

    def test_duplicate_patterns_deduplicated(self):
        automaton = AhoCorasick([b"dup", b"dup", b"other"])
        assert len(automaton) == 2
        assert automaton.find_present(b"--dup--") == {b"dup"}

    def test_match_at_very_end_of_haystack(self):
        automaton = AhoCorasick([b"tail"])
        assert automaton.find_present(b"xxxxtail") == {b"tail"}
        assert automaton.find_present(b"xxxxtai") == set()

    def test_no_patterns(self):
        automaton = AhoCorasick([])
        assert automaton.find_present(b"anything") == set()


class TestLazyHexdump:
    def _dump(self) -> ScrapedDump:
        return ScrapedDump(
            pid=42, heap_start=0x1000,
            data=b"\x00" * 32 + b"resnet50" + b"\x00" * 24,
            pages_read=1, pages_skipped=0, devmem_reads=1,
        )

    def test_hexdump_not_built_until_accessed(self):
        dump = self._dump()
        assert dump._hexdump is None
        assert dump.hexdump.grep("resnet50")
        assert dump._hexdump is not None

    def test_hexdump_cached_on_repeat_access(self):
        dump = self._dump()
        assert dump.hexdump is dump.hexdump

    def test_hexdump_skips_copy_for_bytes(self):
        data = b"\x01" * 64
        assert HexDump(data).data is data

    def test_hexdump_keeps_bytearray_zero_copy(self):
        # Pool-backed dumps hand over bytearrays; HexDump aliases them
        # (zero-copy ownership rules — see docs/performance.md) instead
        # of copying multi-megabyte dumps to render a few grep rows.
        mutable = bytearray(b"\x02" * 64)
        assert HexDump(mutable).data is mutable

    def test_hexdump_copies_buffers_without_find(self):
        # memoryview has no .find, so it is the one input still copied.
        view = memoryview(b"\x03" * 64)
        hexdump = HexDump(view)
        assert isinstance(hexdump.data, bytes)
        assert hexdump.data == bytes(view)
