"""The VART-style DPU runner: model loading and inference.

This is the part of the stack that *creates the residue*.  Loading a
model pulls the xmodel file, the unpacked weights, and the runtime's
own metadata into the process heap; running inference writes the raw
input image and the output scores there too.  Everything is placed by
the process's deterministic bump arena, so buffer offsets from the
heap base are a pure function of the model — the invariant the
paper's offline profiling exploits.

The bytes a load writes are a pure function of the model file, so
:mod:`repro.vitis.memo` derives them once per file; the writes
themselves stay per process.

Buffer order (all in the heap, ascending):

1. runtime metadata blob (library paths, handle tables),
2. the serialized xmodel file,
3. per-layer unpacked weight buffers,
4. the input tensor (raw RGB24 — what Fig. 12 recovers),
5. the output tensor (int8 class scores).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.dpu import DpuCore, DpuJob
from repro.mmu.paging import PAGE_MASK, PAGE_SHIFT
from repro.petalinux.process import Process
from repro.vitis.image import Image
from repro.vitis.memo import MODEL_MEMO, LoadedModel, dpu_kernel
from repro.vitis.xmodel import XModel

RUNTIME_LIBRARY_STRINGS = (
    "/usr/lib/libvart-runner.so.3.5",
    "/usr/lib/libvart-dpu-controller.so.3.5",
    "/usr/lib/libxir.so.3.5",
    "/usr/lib/libvitis_ai_library-dpu_task.so.3.5",
    "vart::Runner::create_runner",
    "xir::Subgraph::get_attr",
)
"""Strings the runtime itself leaves in the heap alongside the model."""

DEFAULT_RUNTIME_OVERHEAD = 64 * 1024
"""Bytes of runtime metadata written before the model blob — stands in
for the allocator chatter, handle tables and library structures a real
VART process accumulates before the model file lands in the heap."""


def build_runtime_blob(length: int, seed: int = 0x5EED) -> bytes:
    """Deterministic runtime-metadata filler with embedded strings."""
    rng = np.random.default_rng(seed)
    body = bytearray(rng.integers(0, 256, size=length, dtype=np.uint8).tobytes())
    cursor = 64
    for text in RUNTIME_LIBRARY_STRINGS:
        encoded = text.encode() + b"\x00"
        if cursor + len(encoded) >= length:
            break
        body[cursor : cursor + len(encoded)] = encoded
        cursor += len(encoded) + 192
    return bytes(body)


def runtime_blob(length: int) -> bytes:
    """:func:`build_runtime_blob` at the fixed seed, from the model memo."""
    return MODEL_MEMO.lookup(
        ("runtime", length), lambda: build_runtime_blob(length), len
    )


@dataclass(frozen=True)
class InferenceResult:
    """What one ``run`` returns to the application."""

    scores: np.ndarray
    top_class: int
    macs: int
    estimated_cycles: int

    def top_k(self, k: int = 5) -> list[tuple[int, int]]:
        """(class_id, score) pairs for the k best classes."""
        order = np.argsort(self.scores)[::-1][:k]
        return [(int(index), int(self.scores[index])) for index in order]


class DpuRunner:
    """One model loaded into one process, executable on the DPU.

    *loaded* comes from :func:`~repro.vitis.memo.load_xmodel` for a
    stock model file, or from :meth:`~repro.vitis.memo.LoadedModel.of`
    for any other :class:`~repro.vitis.xmodel.XModel`.
    """

    def __init__(
        self,
        process: Process,
        dpu: DpuCore,
        loaded: LoadedModel,
        runtime_overhead: int = DEFAULT_RUNTIME_OVERHEAD,
    ) -> None:
        if process.heap_arena is None:
            raise ValueError(f"pid {process.pid} has no heap arena")
        self._process = process
        self._dpu = dpu
        self._loaded = loaded
        self._model = loaded.model
        arena = process.heap_arena
        heap = process.address_space.heap()
        assert heap is not None
        self._heap_base = heap.start

        self.runtime_blob_address = arena.allocate_and_write(
            runtime_blob(runtime_overhead)
        )
        self.model_blob_address = arena.allocate_and_write(loaded.blob)
        self.weight_addresses = [
            arena.allocate_and_write(payload) for payload in loaded.payloads
        ]
        subgraph = self._model.subgraph
        input_nbytes = subgraph.input_height * subgraph.input_width * 3
        self.input_address = arena.allocate(input_nbytes)
        self.input_nbytes = input_nbytes
        output_classes = subgraph.output_classes()
        self.output_address = arena.allocate(output_classes)
        self.output_nbytes = output_classes
        self.runs_completed = 0

    # -- layout ground truth (evaluation only) ------------------------------

    @property
    def model(self) -> XModel:
        """The loaded model."""
        return self._model

    @property
    def input_heap_offset(self) -> int:
        """Input buffer offset from the heap base.

        Ground truth the evaluation compares the attacker's *profiled*
        offset against; the attack itself never reads this.
        """
        return self.input_address - self._heap_base

    @property
    def model_blob_heap_offset(self) -> int:
        """Model file offset from the heap base (ground truth)."""
        return self.model_blob_address - self._heap_base

    # -- physical scatter-gather ----------------------------------------------

    def _physical_segments(self, address: int, length: int) -> list[tuple[int, int]]:
        """VA range -> coalesced global-physical-address segments."""
        soc = self._dpu.soc
        segments: list[tuple[int, int]] = []
        for frame_space, chunk in self._process.address_space.physical_segments(
            address, length
        ):
            cursor = frame_space
            remaining = chunk
            while remaining > 0:
                frame = cursor >> PAGE_SHIFT
                in_page = cursor & PAGE_MASK
                take = min(remaining, (1 << PAGE_SHIFT) - in_page)
                physical = soc.dram_frame_to_physical(frame) + in_page
                if segments and segments[-1][0] + segments[-1][1] == physical:
                    segments[-1] = (segments[-1][0], segments[-1][1] + take)
                else:
                    segments.append((physical, take))
                cursor += take
                remaining -= take
        return segments

    # -- inference ----------------------------------------------------------------

    def run(self, image: Image) -> InferenceResult:
        """Execute one inference on *image*.

        The image bytes are written into the heap input buffer (and
        therefore into physical DRAM) before the DPU job launches;
        they are never cleared afterwards — the residue the attack
        harvests.
        """
        if image.height != self._model.subgraph.input_height or (
            image.width != self._model.subgraph.input_width
        ):
            raise ValueError(
                f"model {self._model.name} expects "
                f"{self._model.subgraph.input_height}x"
                f"{self._model.subgraph.input_width}, got "
                f"{image.height}x{image.width}"
            )
        self._process.require_alive()
        arena = self._process.heap_arena
        assert arena is not None
        arena.write(self.input_address, image.to_raw_rgb())
        job = DpuJob(
            kernel=dpu_kernel(self._loaded),
            input_segments=self._physical_segments(
                self.input_address, self.input_nbytes
            ),
            output_segments=self._physical_segments(
                self.output_address, self.output_nbytes
            ),
        )
        job_result = self._dpu.run(job)
        scores = np.frombuffer(
            arena.read(self.output_address, self.output_nbytes), dtype=np.int8
        ).copy()
        self.runs_completed += 1
        return InferenceResult(
            scores=scores,
            top_class=int(np.argmax(scores)),
            macs=job_result.macs,
            estimated_cycles=job_result.estimated_cycles,
        )
