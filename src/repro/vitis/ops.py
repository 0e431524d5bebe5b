"""INT8 inference kernels and the compiled-subgraph object the DPU runs.

These are real computations (im2col convolutions, pooling, residual
blocks, fully-connected heads) on int8 data with int32 accumulation
and shift-based requantization — the arithmetic model of the
DPUCZDX8G.  The zoo's models are *miniature*: structurally faithful
layer stacks with far fewer channels than production networks, because
what the attack observes is memory layout, not FLOPs, and small models
keep the test suite fast.  The memory-relevant quantities (buffer
order, string placement, image bytes) are unaffected by channel count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_VALID_KINDS = ("conv2d", "relu", "maxpool", "resblock", "gap", "fc")


@dataclass
class LayerSpec:
    """One layer of a compiled subgraph.

    ``weights`` layout: conv/resblock ``(kh, kw, cin, cout)`` int8,
    fc ``(cin, cout)`` int8.  ``shift`` is the requantization
    right-shift applied to the int32 accumulator.
    """

    kind: str
    name: str
    weights: np.ndarray | None = None
    stride: int = 1
    shift: int = 7
    extra_weights: np.ndarray | None = None
    """Second conv of a residual block."""

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind in ("conv2d", "resblock", "fc") and self.weights is None:
            raise ValueError(f"{self.kind} layer {self.name!r} needs weights")
        for array in (self.weights, self.extra_weights):
            if array is not None and array.dtype != np.int8:
                raise TypeError(f"weights of {self.name!r} must be int8")
        if self.kind == "resblock" and self.extra_weights is None:
            raise ValueError(f"resblock {self.name!r} needs extra_weights")

    def weight_bytes(self) -> bytes:
        """All weight payload bytes, in declaration order."""
        parts = []
        if self.weights is not None:
            parts.append(self.weights.tobytes())
        if self.extra_weights is not None:
            parts.append(self.extra_weights.tobytes())
        return b"".join(parts)


def _requantize(acc: np.ndarray, shift: int) -> np.ndarray:
    """Integer accumulator -> int8 with rounding right-shift and saturation."""
    rounded = (acc + (1 << (shift - 1))) >> shift if shift > 0 else acc
    return np.clip(rounded, -128, 127).astype(np.int8)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> tuple[np.ndarray, int, int]:
    """SAME-padded float64 patch matrix of *x* (H, W, C) for a kh x kw window.

    Row ``oy * out_w + ox`` holds the window at ``(oy, ox) * stride`` in
    ``(kh, kw, C)`` order, matching the ``(kh, kw, cin, cout)`` weights.
    """
    height, width, channels = x.shape
    pad_h, pad_w = kh // 2, kw // 2
    padded = np.zeros((height + 2 * pad_h, width + 2 * pad_w, channels))
    padded[pad_h : pad_h + height, pad_w : pad_w + width] = x
    windows = sliding_window_view(padded, (kh, kw), axis=(0, 1))[::stride, ::stride]
    out_h, out_w = windows.shape[:2]
    columns = windows.transpose(0, 1, 3, 4, 2).reshape(out_h * out_w, -1)
    return columns, out_h, out_w


def conv2d_int8(x: np.ndarray, weights: np.ndarray, stride: int, shift: int) -> np.ndarray:
    """SAME conv, int8 in/out, exact integer accumulate (x: HWC, w: KKIO).

    The patch matmul runs in float64, so numpy hands it to BLAS.  It is
    exact: a product of two int8 values is at most 2**14 in magnitude,
    so any sum of fewer than 2**39 of them stays below 2**53, where
    every integer is a float64.
    """
    kh, kw, cin, cout = weights.shape
    if x.shape[2] != cin:
        raise ValueError(f"input has {x.shape[2]} channels, weights expect {cin}")
    columns, out_h, out_w = _im2col(x, kh, kw, stride)
    acc = columns @ weights.reshape(kh * kw * cin, cout).astype(np.float64)
    return _requantize(acc.astype(np.int64), shift).reshape(out_h, out_w, cout)


def relu_int8(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x)."""
    return np.maximum(x, 0).astype(np.int8)


def maxpool2_int8(x: np.ndarray) -> np.ndarray:
    """2x2 stride-2 max pooling (odd trailing row/column dropped)."""
    height, width, channels = x.shape
    height -= height % 2
    width -= width % 2
    trimmed = x[:height, :width, :]
    reshaped = trimmed.reshape(height // 2, 2, width // 2, 2, channels)
    return reshaped.max(axis=(1, 3)).astype(np.int8)


def global_avgpool_int8(x: np.ndarray) -> np.ndarray:
    """Spatial mean per channel, requantized to int8 (shape (C,))."""
    mean = x.astype(np.int32).mean(axis=(0, 1))
    return np.clip(np.round(mean), -128, 127).astype(np.int8)


def fc_int8(x: np.ndarray, weights: np.ndarray, shift: int) -> np.ndarray:
    """Fully-connected head: (cin,) @ (cin, cout) -> int8 (cout,)."""
    if x.ndim != 1 or weights.shape[0] != x.shape[0]:
        raise ValueError(
            f"fc shape mismatch: input {x.shape}, weights {weights.shape}"
        )
    acc = x.astype(np.int32) @ weights.astype(np.int32)
    return _requantize(acc, shift)


def resblock_int8(
    x: np.ndarray, w1: np.ndarray, w2: np.ndarray, stride: int, shift: int
) -> np.ndarray:
    """conv-relu-conv plus (possibly downsampled, channel-padded) skip."""
    branch = conv2d_int8(x, w1, stride, shift)
    branch = relu_int8(branch)
    branch = conv2d_int8(branch, w2, 1, shift)
    skip = x[::stride, ::stride, :]
    out_channels = branch.shape[2]
    if skip.shape[2] < out_channels:
        padding = out_channels - skip.shape[2]
        skip = np.pad(skip, ((0, 0), (0, 0), (0, padding)))
    elif skip.shape[2] > out_channels:
        skip = skip[:, :, :out_channels]
    skip = skip[: branch.shape[0], : branch.shape[1], :]
    total = branch.astype(np.int32) + skip.astype(np.int32)
    return relu_int8(np.clip(total, -128, 127).astype(np.int8))


@dataclass
class CompiledSubgraph:
    """An executable layer stack — what the runtime hands the DPU.

    Implements the :class:`~repro.hw.dpu.DpuKernel` protocol: the DPU
    gathers the raw RGB input from DRAM, calls :meth:`execute`, and
    scatters the returned class scores back to DRAM.
    """

    input_height: int
    input_width: int
    layers: list[LayerSpec] = field(default_factory=list)

    def execute(self, input_blob: bytes) -> bytes:
        """Raw RGB24 bytes in, int8 class scores out."""
        expected = self.input_height * self.input_width * 3
        if len(input_blob) != expected:
            raise ValueError(
                f"subgraph expects {expected} input bytes, got {len(input_blob)}"
            )
        raw = np.frombuffer(input_blob, dtype=np.uint8).reshape(
            self.input_height, self.input_width, 3
        )
        # Input quantization: centre uint8 RGB onto the int8 range.
        x = (raw.astype(np.int32) - 128).astype(np.int8)
        for layer in self.layers:
            x = self._run_layer(layer, x)
        return x.tobytes()

    @staticmethod
    def _run_layer(layer: LayerSpec, x: np.ndarray) -> np.ndarray:
        if layer.kind == "conv2d":
            return conv2d_int8(x, layer.weights, layer.stride, layer.shift)
        if layer.kind == "relu":
            return relu_int8(x)
        if layer.kind == "maxpool":
            return maxpool2_int8(x)
        if layer.kind == "resblock":
            return resblock_int8(
                x, layer.weights, layer.extra_weights, layer.stride, layer.shift
            )
        if layer.kind == "gap":
            return global_avgpool_int8(x)
        if layer.kind == "fc":
            return fc_int8(x, layer.weights, layer.shift)
        raise ValueError(f"unknown layer kind {layer.kind!r}")

    @property
    def macs(self) -> int:
        """Total multiply-accumulates for one inference (shape-derived)."""
        total = 0
        height, width = self.input_height, self.input_width
        channels = 3
        for layer in self.layers:
            if layer.kind == "conv2d":
                kh, kw, cin, cout = layer.weights.shape
                height = (height + 2 * (kh // 2) - kh) // layer.stride + 1
                width = (width + 2 * (kw // 2) - kw) // layer.stride + 1
                total += height * width * kh * kw * cin * cout
                channels = cout
            elif layer.kind == "resblock":
                for weights, stride in (
                    (layer.weights, layer.stride),
                    (layer.extra_weights, 1),
                ):
                    kh, kw, cin, cout = weights.shape
                    height = (height + 2 * (kh // 2) - kh) // stride + 1
                    width = (width + 2 * (kw // 2) - kw) // stride + 1
                    total += height * width * kh * kw * cin * cout
                    channels = cout
            elif layer.kind == "maxpool":
                height //= 2
                width //= 2
            elif layer.kind == "gap":
                height = width = 1
            elif layer.kind == "fc":
                cin, cout = layer.weights.shape
                total += cin * cout
                channels = cout
        return total

    def output_classes(self) -> int:
        """Width of the final fc layer (number of classes)."""
        for layer in reversed(self.layers):
            if layer.kind == "fc":
                return layer.weights.shape[1]
        raise ValueError("subgraph has no fc head")
