"""Unit tests for quantized tensors and images."""

import numpy as np
import pytest

from repro.errors import ImageFormatError
from repro.vitis.image import PROFILING_MARKER, WHITE_MARKER, Image
from repro.vitis.tensor import QuantizedTensor


class TestQuantizedTensor:
    def test_requires_int8(self):
        with pytest.raises(TypeError):
            QuantizedTensor(np.zeros(4, dtype=np.float32))

    def test_fix_point_bounds(self):
        with pytest.raises(ValueError):
            QuantizedTensor(np.zeros(4, dtype=np.int8), fix_point=40)

    def test_shape_and_nbytes(self):
        tensor = QuantizedTensor(np.zeros((2, 3), dtype=np.int8))
        assert tensor.shape == (2, 3)
        assert tensor.nbytes == 6

    def test_dequantize(self):
        tensor = QuantizedTensor(np.array([64, -64], dtype=np.int8), fix_point=6)
        assert tensor.dequantize().tolist() == [1.0, -1.0]

    def test_bytes_roundtrip(self):
        values = np.arange(-8, 8, dtype=np.int8).reshape(4, 4)
        tensor = QuantizedTensor(values, fix_point=3)
        rebuilt = QuantizedTensor.from_bytes(tensor.to_bytes(), (4, 4), 3)
        assert np.array_equal(rebuilt.values, values)

    def test_from_bytes_length_checked(self):
        with pytest.raises(ValueError):
            QuantizedTensor.from_bytes(b"\x00" * 5, (2, 2))

    def test_quantize_saturates(self):
        tensor = QuantizedTensor.quantize(np.array([10.0, -10.0]), fix_point=7)
        assert tensor.values.tolist() == [127, -128]

    def test_quantize_rounds(self):
        tensor = QuantizedTensor.quantize(np.array([0.5]), fix_point=1)
        assert tensor.values.tolist() == [1]


class TestImageConstruction:
    def test_solid(self):
        image = Image.solid(4, 3, (1, 2, 3))
        assert image.width == 4
        assert image.height == 3
        assert image.pixels[0, 0].tolist() == [1, 2, 3]

    def test_test_pattern_deterministic(self):
        first = Image.test_pattern(16, 16, seed=3)
        second = Image.test_pattern(16, 16, seed=3)
        assert np.array_equal(first.pixels, second.pixels)

    def test_test_pattern_seed_changes_content(self):
        first = Image.test_pattern(16, 16, seed=3)
        second = Image.test_pattern(16, 16, seed=4)
        assert not np.array_equal(first.pixels, second.pixels)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ImageFormatError):
            Image.test_pattern(0, 4)

    @staticmethod
    def _uncached_test_pattern(width: int, height: int, seed: int) -> np.ndarray:
        """The test pattern built from scratch, planes and grid included."""
        ys = np.linspace(0.0, 1.0, height)[:, None]
        xs = np.linspace(0.0, 1.0, width)[None, :]
        red = 255.0 * xs * np.ones_like(ys)
        green = 255.0 * ys * np.ones_like(xs)
        blue = 255.0 * (0.5 + 0.5 * np.sin(6.0 * np.pi * (xs + ys) / 2.0))
        pixels = np.stack([red, green, blue], axis=2)
        rng = np.random.default_rng(seed)
        yy, xx = np.mgrid[0:height, 0:width]
        for _ in range(4):
            cx = rng.uniform(0.2, 0.8) * width
            cy = rng.uniform(0.2, 0.8) * height
            radius = rng.uniform(0.08, 0.2) * min(width, height)
            colour = rng.uniform(0, 255, size=3)
            disc = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2
            pixels[disc] = colour
        return np.clip(pixels, 0, 255).astype(np.uint8)

    @pytest.mark.parametrize(
        "width,height",
        [(1, 1), (2, 3), (8, 5), (16, 16), (17, 31), (32, 32), (48, 24), (224, 224)],
    )
    def test_cached_planes_match_the_uncached_construction(self, width, height):
        for seed in (0, 1, 7, 42, 2**31 - 1):
            expected = self._uncached_test_pattern(width, height, seed)
            pixels = Image.test_pattern(width, height, seed=seed).pixels
            assert pixels.dtype == expected.dtype
            assert np.array_equal(pixels, expected), (width, height, seed)

    def test_cached_planes_never_leak_between_images(self):
        first = Image.test_pattern(16, 16, seed=3)
        assert first.pixels.flags.writeable
        first.pixels[:] = 0
        assert np.array_equal(
            Image.test_pattern(16, 16, seed=3).pixels,
            self._uncached_test_pattern(16, 16, 3),
        )

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ImageFormatError):
            Image(np.zeros((4, 4, 3), dtype=np.float32))

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(ImageFormatError):
            Image(np.zeros((4, 4, 4), dtype=np.uint8))


class TestRawBytes:
    def test_raw_rgb_layout_is_row_major_rgb(self):
        pixels = np.zeros((1, 2, 3), dtype=np.uint8)
        pixels[0, 0] = (1, 2, 3)
        pixels[0, 1] = (4, 5, 6)
        assert Image(pixels).to_raw_rgb() == bytes([1, 2, 3, 4, 5, 6])

    def test_from_raw_roundtrip(self):
        image = Image.test_pattern(8, 6, seed=1)
        rebuilt = Image.from_raw_rgb(image.to_raw_rgb(), 8, 6)
        assert np.array_equal(rebuilt.pixels, image.pixels)

    def test_from_raw_length_checked(self):
        with pytest.raises(ImageFormatError):
            Image.from_raw_rgb(b"\x00" * 10, 2, 2)

    def test_solid_white_is_all_ff_bytes(self):
        """0xFFFFFF pixels = solid 0xFF bytes = the Fig. 12 pattern."""
        image = Image.solid(4, 4, WHITE_MARKER)
        assert image.to_raw_rgb() == b"\xff" * 48

    def test_profiling_marker_is_all_55_bytes(self):
        image = Image.solid(4, 4, PROFILING_MARKER)
        assert image.to_raw_rgb() == b"\x55" * 48


class TestCorruption:
    def test_corrupts_top_fraction(self):
        image = Image.test_pattern(10, 10, seed=1)
        corrupted = image.corrupted(0.2)
        assert corrupted.marker_fraction(WHITE_MARKER) == pytest.approx(0.2)

    def test_rest_of_image_untouched(self):
        image = Image.test_pattern(10, 10, seed=1)
        corrupted = image.corrupted(0.2)
        assert np.array_equal(corrupted.pixels[2:], image.pixels[2:])

    def test_full_corruption(self):
        corrupted = Image.test_pattern(8, 8).corrupted(1.0)
        assert corrupted.marker_fraction(WHITE_MARKER) == 1.0

    def test_bad_fraction_rejected(self):
        with pytest.raises(ImageFormatError):
            Image.test_pattern(8, 8).corrupted(0.0)

    def test_original_not_mutated(self):
        image = Image.test_pattern(8, 8, seed=1)
        before = image.pixels.copy()
        image.corrupted(0.5)
        assert np.array_equal(image.pixels, before)


class TestComparison:
    def test_pixel_match_rate_identical(self):
        image = Image.test_pattern(8, 8)
        assert image.pixel_match_rate(image) == 1.0

    def test_pixel_match_rate_partial(self):
        image = Image.solid(10, 10, (0, 0, 0))
        other = image.corrupted(0.3)
        assert other.pixel_match_rate(image) == pytest.approx(0.7)

    def test_psnr_identical_is_inf(self):
        image = Image.test_pattern(8, 8)
        assert image.psnr(image) == float("inf")

    def test_psnr_decreases_with_noise(self):
        image = Image.solid(16, 16, (128, 128, 128))
        slightly_off = Image(np.clip(image.pixels + 1, 0, 255).astype(np.uint8))
        very_off = Image(np.clip(image.pixels + 64, 0, 255).astype(np.uint8))
        assert image.psnr(slightly_off) > image.psnr(very_off)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ImageFormatError):
            Image.test_pattern(8, 8).pixel_match_rate(Image.test_pattern(4, 4))
