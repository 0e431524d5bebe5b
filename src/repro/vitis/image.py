"""RGB images: generation, corruption markers, raw-byte layout.

The paper's experiment hinges on how images look *as DRAM bytes*: the
input picture is stored as a contiguous raw RGB24 buffer, so replacing
its pixels with ``0xFFFFFF`` produces the solid ``FFFF FFFF`` hexdump
rows of Fig. 12, and an all-``0x555555`` profiling image produces the
``5555 5555`` marker the offline pass searches for.

No image-file codecs are needed: the board-side application decodes the
JPEG before inference, and the attack only ever sees the decoded
buffer, so the simulation works directly with decoded pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.errors import ImageFormatError

WHITE_MARKER = (0xFF, 0xFF, 0xFF)
"""The corruption marker of paper Fig. 4 (pixels forced to 0xFFFFFF)."""

PROFILING_MARKER = (0x55, 0x55, 0x55)
"""The offline-profiling marker (pixels forced to 0x555555)."""


@lru_cache(maxsize=16)
def _test_pattern_base(
    width: int, height: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seed-free part of a test pattern, shared read-only per size.

    Returns the float gradient planes (height x width x 3) and the
    ``mgrid`` row and column indices the seeded discs are drawn over.
    """
    ys = np.linspace(0.0, 1.0, height)[:, None]
    xs = np.linspace(0.0, 1.0, width)[None, :]
    red = 255.0 * xs * np.ones_like(ys)
    green = 255.0 * ys * np.ones_like(xs)
    blue = 255.0 * (0.5 + 0.5 * np.sin(6.0 * np.pi * (xs + ys) / 2.0))
    planes = np.stack([red, green, blue], axis=2)
    yy, xx = np.mgrid[0:height, 0:width]
    for array in (planes, yy, xx):
        array.flags.writeable = False
    return planes, yy, xx


@dataclass(frozen=True)
class Image:
    """A decoded RGB image (uint8, height x width x 3)."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        if self.pixels.dtype != np.uint8:
            raise ImageFormatError(f"pixels must be uint8, got {self.pixels.dtype}")
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ImageFormatError(
                f"pixels must be HxWx3, got shape {self.pixels.shape}"
            )

    # -- constructors -----------------------------------------------------

    @classmethod
    def solid(cls, width: int, height: int, color: tuple[int, int, int]) -> "Image":
        """A single-colour image (used for the profiling marker)."""
        pixels = np.empty((height, width, 3), dtype=np.uint8)
        pixels[:, :] = color
        return cls(pixels)

    @classmethod
    def test_pattern(cls, width: int, height: int, seed: int = 0) -> "Image":
        """A deterministic synthetic photo standing in for Xilinx's demo JPEG.

        Smooth gradients plus a few seeded discs — structured enough
        that reconstruction fidelity is visually meaningful, fully
        reproducible across runs.
        """
        if width <= 0 or height <= 0:
            raise ImageFormatError(f"bad dimensions {width}x{height}")
        planes, yy, xx = _test_pattern_base(width, height)
        pixels = planes.copy()
        rng = np.random.default_rng(seed)
        for _ in range(4):
            cx = rng.uniform(0.2, 0.8) * width
            cy = rng.uniform(0.2, 0.8) * height
            radius = rng.uniform(0.08, 0.2) * min(width, height)
            colour = rng.uniform(0, 255, size=3)
            disc = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2
            pixels[disc] = colour
        return cls(np.clip(pixels, 0, 255).astype(np.uint8))

    @classmethod
    def from_raw_rgb(cls, data: bytes, width: int, height: int) -> "Image":
        """Rebuild an image from a raw RGB24 buffer (the attack's view)."""
        expected = width * height * 3
        if len(data) != expected:
            raise ImageFormatError(
                f"need {expected} bytes for {width}x{height}, got {len(data)}"
            )
        pixels = (
            np.frombuffer(data, dtype=np.uint8).reshape(height, width, 3).copy()
        )
        return cls(pixels)

    # -- properties ----------------------------------------------------------

    @property
    def width(self) -> int:
        """Width in pixels."""
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        """Height in pixels."""
        return self.pixels.shape[0]

    @property
    def nbytes(self) -> int:
        """Raw RGB24 size."""
        return self.width * self.height * 3

    # -- byte layout -----------------------------------------------------------

    def to_raw_rgb(self) -> bytes:
        """Row-major R,G,B bytes — the buffer the runtime hands the DPU."""
        return self.pixels.tobytes()

    @classmethod
    def from_ppm(cls, data: bytes) -> "Image":
        """Parse a binary PPM (P6, maxval 255) image.

        Only the subset this package emits is accepted; PPM is used so
        recovered images can be saved and eyeballed with any viewer.
        """
        fields: list[bytes] = []
        cursor = 0
        while len(fields) < 4:
            while cursor < len(data) and data[cursor : cursor + 1].isspace():
                cursor += 1
            if data[cursor : cursor + 1] == b"#":
                end = data.find(b"\n", cursor)
                cursor = end + 1 if end >= 0 else len(data)
                continue
            start = cursor
            while cursor < len(data) and not data[cursor : cursor + 1].isspace():
                cursor += 1
            if start == cursor:
                raise ImageFormatError("truncated PPM header")
            fields.append(data[start:cursor])
        if fields[0] != b"P6":
            raise ImageFormatError(f"not a P6 PPM: magic {fields[0]!r}")
        width, height, maxval = (int(field) for field in fields[1:])
        if maxval != 255:
            raise ImageFormatError(f"unsupported PPM maxval {maxval}")
        payload = data[cursor + 1 : cursor + 1 + width * height * 3]
        return cls.from_raw_rgb(payload, width, height)

    def to_ppm(self) -> bytes:
        """Serialize as binary PPM (P6) for external viewers."""
        header = f"P6\n{self.width} {self.height}\n255\n".encode()
        return header + self.to_raw_rgb()

    # -- transformations ----------------------------------------------------------

    def corrupted(
        self,
        fraction: float = 0.2,
        color: tuple[int, int, int] = WHITE_MARKER,
    ) -> "Image":
        """Replace the top *fraction* of rows with *color*.

        Reproduces the paper's Fig. 4 manipulation ("about 20% of the
        image"): the corrupted band is what shows up as solid marker
        rows in the scraped hexdump.
        """
        if not 0.0 < fraction <= 1.0:
            raise ImageFormatError(f"fraction must be in (0, 1], got {fraction}")
        rows = max(1, int(round(self.height * fraction)))
        pixels = self.pixels.copy()
        pixels[:rows, :] = color
        return Image(pixels)

    def marker_fraction(self, color: tuple[int, int, int]) -> float:
        """Fraction of pixels exactly equal to *color*."""
        matches = np.all(self.pixels == np.array(color, dtype=np.uint8), axis=2)
        return float(matches.mean())

    # -- comparison ----------------------------------------------------------------

    def pixel_match_rate(self, other: "Image") -> float:
        """Fraction of pixels identical between two same-sized images."""
        if other.pixels.shape != self.pixels.shape:
            raise ImageFormatError("images differ in shape")
        same = np.all(self.pixels == other.pixels, axis=2)
        return float(same.mean())

    def psnr(self, other: "Image") -> float:
        """Peak signal-to-noise ratio in dB (inf for identical images)."""
        if other.pixels.shape != self.pixels.shape:
            raise ImageFormatError("images differ in shape")
        diff = self.pixels.astype(np.float64) - other.pixels.astype(np.float64)
        mse = float(np.mean(diff**2))
        if mse == 0.0:
            return float("inf")
        return 10.0 * np.log10(255.0**2 / mse)
