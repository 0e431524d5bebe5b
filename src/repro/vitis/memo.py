"""Content-keyed memos: each stock model's victim work, done once.

Every board runs the same Vitis AI stack with the same library models,
so much of what a simulated victim does is a pure function of a few
byte strings.  The **model memo** (:data:`MODEL_MEMO`) does that work
once per process: the xmodel bytes
:func:`~repro.petalinux.rootfs.install_vitis_ai` writes per
``(name, input_hw)`` (:func:`installed_xmodel`); per file blob, the
parsed model, its bytes and its layer weight payloads
(:func:`load_xmodel`); and the runtime's fixed-seed metadata blob
(:func:`repro.vitis.runner.runtime_blob`).  Results are read-only
(``bytes``, weight arrays with ``writeable = False``); heap
allocations, frames and the DPU's DRAM gather and scatter stay per
victim.  Custom models (:func:`~repro.vitis.zoo.fine_tune` builds) are
never installed files and bypass the memo, and a key is content, never
a name, so a fine-tuned model cannot receive its stock model's entry.

Inside an :func:`inference_memo` block,
:meth:`~repro.vitis.runner.DpuRunner.run` also reuses the subgraph
output of any ``(model digest, input bytes)`` pair already computed
there; the DPU job itself still runs.  The defense arena opens one
block per sweep, whose profiles replay one schedule.  A campaign gives
every victim its own image, so a process-wide inference memo would hit
only where a benchmark re-runs one seeded campaign.

Both memos are bounded by bytes and stop admitting when full instead
of evicting: a sweep replays its schedule in order, so eviction would
drop exactly the entries the next profile asks for.  One lock guards
both, and a forked child replaces it, so a fork taken while another
thread held it cannot deadlock the child.
"""

from __future__ import annotations

import hashlib
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

from repro.vitis.ops import CompiledSubgraph
from repro.vitis.xmodel import XModel
from repro.vitis.zoo import build_model

T = TypeVar("T")

MODEL_MEMO_BYTES = 64 * 1024 * 1024
"""Byte budget of the model memo: all eight zoo models at a handful of
input sizes, with room to spare."""

INFERENCE_MEMO_BYTES = 16 * 1024 * 1024
"""Byte budget of one sweep's inference memo (inputs plus outputs)."""

_lock = threading.Lock()


def _reset_lock() -> None:
    global _lock
    _lock = threading.Lock()


os.register_at_fork(after_in_child=_reset_lock)


class ContentMemo:
    """A content-keyed table bounded by bytes; when full it stops admitting."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.nbytes = 0
        self.hits = 0
        self.misses = 0
        self._table: dict = {}

    def __len__(self) -> int:
        return len(self._table)

    def lookup(
        self, key: object, compute: Callable[[], T], size: Callable[[T], int]
    ) -> T:
        """The value stored under *key*, else ``compute()``, admitted if
        its ``size`` still fits the budget.

        *compute* runs outside the lock; two threads missing the same
        key both compute it, and the first to finish is the one kept.
        """
        with _lock:
            if key in self._table:
                self.hits += 1
                return self._table[key]
            self.misses += 1
        value = compute()
        cost = size(value)
        with _lock:
            if key not in self._table and self.nbytes + cost <= self.max_bytes:
                self._table[key] = value
                self.nbytes += cost
        return value

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with _lock:
            self._table.clear()
            self.nbytes = self.hits = self.misses = 0


MODEL_MEMO = ContentMemo(MODEL_MEMO_BYTES)
"""The process-wide model memo."""


@dataclass(frozen=True)
class LoadedModel:
    """What loading one xmodel file yields, ready for the runner."""

    model: XModel
    blob: bytes
    """The serialized file, as it lands in the heap."""
    payloads: tuple[bytes, ...]
    """The non-empty layer weight payloads, in layer order."""
    digest: bytes
    """sha256 of :attr:`blob`: the model half of an inference key."""

    @classmethod
    def of(cls, model: XModel, blob: bytes | None = None) -> "LoadedModel":
        """Load *model* without the memo (custom models take this path)."""
        if blob is None:
            blob = model.serialize()
        payloads = tuple(
            payload
            for payload in (layer.weight_bytes() for layer in model.subgraph.layers)
            if payload
        )
        return cls(model, blob, payloads, hashlib.sha256(blob).digest())

    @property
    def nbytes(self) -> int:
        """Bytes held: the blob, the payloads and the parsed arrays."""
        return len(self.blob) + 2 * sum(map(len, self.payloads))


def _parse_read_only(blob: bytes) -> LoadedModel:
    model = XModel.parse(blob)
    for layer in model.subgraph.layers:
        for array in (layer.weights, layer.extra_weights):
            if array is not None:
                array.flags.writeable = False
    return LoadedModel.of(model, blob)


def load_xmodel(blob: bytes) -> LoadedModel:
    """Parse an installed xmodel file, once per distinct blob."""
    return MODEL_MEMO.lookup(
        ("load", blob), lambda: _parse_read_only(blob), lambda loaded: loaded.nbytes
    )


def installed_xmodel(name: str, input_hw: int) -> bytes:
    """The file bytes the zoo installs for *name* at *input_hw*."""
    return MODEL_MEMO.lookup(
        ("installed", name, input_hw),
        lambda: build_model(name, input_hw=input_hw).serialize(),
        len,
    )


# -- the inference memo -----------------------------------------------------

_sweep_memo: ContentMemo | None = None


@contextmanager
def inference_memo() -> Iterator[ContentMemo]:
    """Share subgraph outputs among the inferences run inside the block.

    The memo admits up to :data:`INFERENCE_MEMO_BYTES`.  A block opened
    while another is open (a nested call, or a sweep on a second
    thread) joins it, and the memo is dropped when the outer block
    closes.
    """
    global _sweep_memo
    with _lock:
        owner = _sweep_memo is None
        if owner:
            _sweep_memo = ContentMemo(INFERENCE_MEMO_BYTES)
        memo = _sweep_memo
    try:
        yield memo
    finally:
        if owner:
            with _lock:
                _sweep_memo = None


@dataclass(frozen=True)
class _MemoizedSubgraph:
    """A :class:`~repro.hw.dpu.DpuKernel` that consults the inference memo."""

    memo: ContentMemo
    digest: bytes
    subgraph: CompiledSubgraph

    def execute(self, input_blob: bytes) -> bytes:
        return self.memo.lookup(
            (self.digest, input_blob),
            lambda: self.subgraph.execute(input_blob),
            lambda output: len(self.digest) + len(input_blob) + len(output),
        )

    @property
    def macs(self) -> int:
        return self.subgraph.macs


def dpu_kernel(loaded: LoadedModel) -> "CompiledSubgraph | _MemoizedSubgraph":
    """What the runner hands the DPU: the subgraph, memoized in a block."""
    memo = _sweep_memo
    if memo is None:
        return loaded.model.subgraph
    return _MemoizedSubgraph(memo, loaded.digest, loaded.model.subgraph)
