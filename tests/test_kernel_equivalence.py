"""Array and regex kernels versus the loop references they replaced.

``HexDump.marker_run_rows`` (the Fig. 12 marker-block search) and
``vitis.ops.conv2d_int8`` (the DPU's convolution) run as numpy array
operations, and ``utils.strings.extract_strings`` (the profiler's
``strings``) as one regex pass; :mod:`repro.analysis.reference` keeps
the per-row, per-pixel and per-byte loops they replaced.  Each pair
must agree exactly.
"""

import mmap
import random

import numpy as np
import pytest

from repro.analysis.reference import (
    reference_conv2d_int8,
    reference_extract_strings,
    reference_marker_run_rows,
)
from repro.utils.hexdump import HexDump
from repro.utils.strings import StringHit, extract_strings
from repro.vitis.ops import conv2d_int8

MARKER = 0xFFFFFFFF
SOLID_ROW = MARKER.to_bytes(4, "little") * 4


def _random_dump(rng: random.Random) -> bytes:
    """Rows drawn from solid, 3-of-4-words solid and noise, plus a tail.

    Runs of solid rows land anywhere, including the first and last
    whole row; the trailing partial row is solid marker bytes too, so
    a search that counted it would show.
    """
    rows = []
    for _ in range(rng.randrange(0, 40)):
        kind = rng.random()
        if kind < 0.5:
            rows.append(SOLID_ROW)
        elif kind < 0.75:
            words = [MARKER.to_bytes(4, "little")] * 4
            words[rng.randrange(4)] = rng.randrange(1 << 32).to_bytes(4, "little")
            rows.append(b"".join(words))
        else:
            rows.append(rng.randbytes(16))
    return b"".join(rows) + SOLID_ROW[: rng.randrange(16)]


def _backings(data: bytes):
    yield "bytes", data
    yield "bytearray", bytearray(data)
    if data:
        mapped = mmap.mmap(-1, len(data))
        mapped.write(data)
        yield "mmap", mapped
        # No view of the map may outlive the search.
        mapped.close()


class TestMarkerRows:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_random_dumps(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            data = _random_dump(rng)
            for minimum_rows in range(4):
                expected = reference_marker_run_rows(data, MARKER, minimum_rows)
                for backing, buffer in _backings(data):
                    assert (
                        HexDump(buffer).marker_run_rows(MARKER, minimum_rows)
                        == expected
                    ), (backing, minimum_rows)

    def test_runs_at_both_ends(self):
        data = SOLID_ROW * 2 + b"\x00" * 16 + SOLID_ROW + b"\x00" * 16 + SOLID_ROW * 3
        assert HexDump(data).marker_run_rows(MARKER) == [0, 1, 5, 6, 7]
        assert HexDump(data).marker_run_rows(MARKER, minimum_rows=3) == [5, 6, 7]
        assert HexDump(data).marker_run_rows(MARKER, minimum_rows=0) == [
            0, 1, 3, 5, 6, 7,
        ]

    def test_other_marker_words(self):
        rng = random.Random(9)
        word = 0x00C0FFEE
        solid = word.to_bytes(4, "little") * 4
        data = b"".join(
            rng.choice((solid, solid, rng.randbytes(16))) for _ in range(64)
        )
        assert HexDump(data).marker_run_rows(word) == reference_marker_run_rows(
            data, word
        )

    def test_empty_and_sub_row_dumps(self):
        assert HexDump(b"").marker_run_rows(MARKER) == []
        assert HexDump(SOLID_ROW[:15]).marker_run_rows(MARKER, minimum_rows=1) == []

    def test_releases_the_buffer_on_return(self):
        buffer = bytearray(SOLID_ROW * 4)
        assert HexDump(buffer).marker_run_rows(MARKER) == [0, 1, 2, 3]
        # A live numpy view would make the resize raise BufferError.
        buffer.extend(b"\x00")
        del buffer[:]


BOUNDARY_BYTES = (0x1F, 0x20, 0x7E, 0x7F, 0x80)
"""The printable range's edges: 0x20 and 0x7e are in it, the rest not."""


def _random_text(rng: random.Random) -> bytes:
    """Printable runs of every short length between boundary bytes and
    noise; a run may touch either end of the buffer."""
    parts = []
    for _ in range(rng.randrange(0, 30)):
        kind = rng.random()
        if kind < 0.5:
            length = rng.randrange(1, 12)
            parts.append(bytes(rng.randrange(0x20, 0x7F) for _ in range(length)))
        elif kind < 0.8:
            parts.append(bytes([rng.choice(BOUNDARY_BYTES)]))
        else:
            parts.append(rng.randbytes(rng.randrange(1, 64)))
    return b"".join(parts)


def _assert_strings_match_reference(data: bytes) -> None:
    for minimum_length in range(1, 9):
        expected = reference_extract_strings(data, minimum_length)
        for backing, buffer in _backings(data):
            assert extract_strings(buffer, minimum_length) == expected, (
                backing,
                minimum_length,
            )


class TestExtractStrings:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_random_buffers(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            _assert_strings_match_reference(_random_text(rng))

    @pytest.mark.parametrize(
        "data",
        [
            b"",
            bytes(range(0x20, 0x7F)),
            b"head\x00\x01middle\x7f\x80tail",
            bytes(BOUNDARY_BYTES) * 3,
        ],
        ids=["empty", "all-printable", "runs-at-both-ends", "boundary-bytes"],
    )
    def test_matches_reference_on_edges(self, data):
        _assert_strings_match_reference(data)

    def test_boundary_bytes_split_runs(self):
        assert extract_strings(bytes(BOUNDARY_BYTES) * 2, 1) == [
            StringHit(1, " ~"),
            StringHit(6, " ~"),
        ]

    def test_both_reject_a_zero_minimum(self):
        for scan in (extract_strings, reference_extract_strings):
            with pytest.raises(ValueError, match="minimum_length"):
                scan(b"text", 0)


def _conv_cases():
    rng = np.random.default_rng(14)
    for kernel in (1, 3, 7):
        for stride in (1, 2):
            for height, width in ((5, 7), (9, 3), (8, 8), (11, 13)):
                for shift in (0, 3, 7):
                    yield rng, kernel, stride, height, width, shift


class TestConv2d:
    @pytest.mark.parametrize("kernel", (3, 7))
    @pytest.mark.parametrize("stride", (1, 2))
    @pytest.mark.parametrize("fill", (-128, 127))
    def test_extreme_tensors_give_identical_output(self, kernel, stride, fill):
        # All-(-128) or all-127 input and weights give the largest sums.
        cin = 24 if kernel == 3 else 4
        x = np.full((9, 7, cin), fill, dtype=np.int8)
        for weight_fill in (-128, 127):
            weights = np.full((kernel, kernel, cin, 5), weight_fill, dtype=np.int8)
            for shift in (0, 7):
                fast = conv2d_int8(x, weights, stride, shift)
                slow = reference_conv2d_int8(x, weights, stride, shift)
                assert fast.dtype == slow.dtype == np.int8
                np.testing.assert_array_equal(fast, slow)

    def test_random_int8_inputs_give_identical_output(self):
        for rng, kernel, stride, height, width, shift in _conv_cases():
            cin, cout = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            x = rng.integers(-128, 128, (height, width, cin), dtype=np.int8)
            weights = rng.integers(
                -128, 128, (kernel, kernel, cin, cout), dtype=np.int8
            )
            fast = conv2d_int8(x, weights, stride, shift)
            slow = reference_conv2d_int8(x, weights, stride, shift)
            assert fast.shape == slow.shape
            np.testing.assert_array_equal(fast, slow)

    def test_largest_zoo_sum_is_exact(self):
        # K = 288 taps (the zoo's widest patch, a 3x3x32 resblock conv)
        # of (-128) * (-128): the largest accumulator the float64
        # matmul must carry exactly.
        x = np.full((6, 6, 32), -128, dtype=np.int8)
        weights = np.full((3, 3, 32, 2), -128, dtype=np.int8)
        np.testing.assert_array_equal(
            conv2d_int8(x, weights, 1, 0), reference_conv2d_int8(x, weights, 1, 0)
        )
        np.testing.assert_array_equal(
            conv2d_int8(x, weights, 1, 23), reference_conv2d_int8(x, weights, 1, 23)
        )
