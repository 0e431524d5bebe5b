"""Tests for weight extraction from scraped dumps."""

import numpy as np
import pytest

from repro.attack.addressing import AddressHarvester
from repro.attack.extraction import MemoryScraper
from repro.attack.weights import (
    ExtractedWeights,
    WeightExtractor,
    matching_bytes,
    profile_weight_layout,
)
from repro.errors import ReconstructionError
from repro.evaluation.scenarios import BoardSession
from repro.vitis.zoo import build_model, fine_tune

INPUT_HW = 32


def _scrape_victim_running(session, model_name, model=None):
    run = session.victim_application().launch(model_name, model=model)
    harvester = AddressHarvester(
        session.attacker_shell.procfs, caller=session.attacker_shell.user
    )
    harvested = harvester.harvest(run.pid)
    run.terminate()
    scraper = MemoryScraper(
        session.attacker_shell.devmem_tool, session.attacker_shell.user
    )
    return scraper.scrape(harvested)


class TestFineTune:
    def test_same_architecture_different_weights(self):
        stock = build_model("resnet50_pt", input_hw=INPUT_HW)
        tuned = fine_tune(stock, seed=42)
        assert tuned.name == stock.name
        assert len(tuned.subgraph.layers) == len(stock.subgraph.layers)
        for tuned_layer, stock_layer in zip(
            tuned.subgraph.layers, stock.subgraph.layers
        ):
            if stock_layer.weights is None:
                continue
            assert tuned_layer.weights.shape == stock_layer.weights.shape
            assert not np.array_equal(tuned_layer.weights, stock_layer.weights)

    def test_deterministic_in_seed(self):
        stock = build_model("resnet50_pt", input_hw=INPUT_HW)
        assert fine_tune(stock, 1).serialize() == fine_tune(stock, 1).serialize()
        assert fine_tune(stock, 1).serialize() != fine_tune(stock, 2).serialize()

    def test_serialization_roundtrip(self):
        from repro.vitis.xmodel import XModel

        tuned = fine_tune(build_model("squeezenet_pt", input_hw=INPUT_HW), 7)
        assert XModel.parse(tuned.serialize()) == tuned


class TestWeightLayoutProfile:
    def test_profiles_every_weighted_layer(self, session):
        layout = profile_weight_layout(
            session.attacker_shell, "resnet50_pt", input_hw=INPUT_HW
        )
        stock = build_model("resnet50_pt", input_hw=INPUT_HW)
        weighted = [
            layer for layer in stock.subgraph.layers if layer.weight_bytes()
        ]
        assert len(layout.buffers) == len(weighted)
        assert layout.total_nbytes() == stock.weight_nbytes()

    def test_offsets_are_the_unpacked_buffers(self, session):
        """Offsets must point past the serialized xmodel blob."""
        layout = profile_weight_layout(
            session.attacker_shell, "resnet50_pt", input_hw=INPUT_HW
        )
        stock = build_model("resnet50_pt", input_hw=INPUT_HW)
        blob_size = len(stock.serialize())
        # The model file lands early in the heap; unpacked buffers after.
        for buffer in layout.buffers:
            assert buffer.heap_offset > blob_size


class TestWeightExtraction:
    def test_stock_weights_recovered_exactly(self, session):
        layout = profile_weight_layout(
            session.attacker_shell, "resnet50_pt", input_hw=INPUT_HW
        )
        dump = _scrape_victim_running(session, "resnet50_pt")
        extracted = WeightExtractor(layout).extract(dump)
        stock = build_model("resnet50_pt", input_hw=INPUT_HW)
        assert extracted.match_fraction(stock) == 1.0

    def test_fine_tuned_private_weights_recovered(self, session):
        """The interesting threat: victim runs private weights."""
        layout = profile_weight_layout(
            session.attacker_shell, "resnet50_pt", input_hw=INPUT_HW
        )
        stock = build_model("resnet50_pt", input_hw=INPUT_HW)
        private = fine_tune(stock, seed=1234)
        dump = _scrape_victim_running(session, "resnet50_pt", model=private)
        extracted = WeightExtractor(layout).extract(dump)
        # Bit-exact against the victim's private model...
        assert extracted.match_fraction(private) == 1.0
        # ...and clearly NOT the stock library weights.
        assert extracted.match_fraction(stock) < 0.5

    def test_extracted_shapes_match_architecture(self, session):
        layout = profile_weight_layout(
            session.attacker_shell, "resnet50_pt", input_hw=INPUT_HW
        )
        dump = _scrape_victim_running(session, "resnet50_pt")
        extracted = WeightExtractor(layout).extract(dump)
        arrays = extracted.layer("conv1")
        assert arrays[0].shape == (7, 7, 3, 12)
        assert arrays[0].dtype == np.int8

    def test_resblock_buffers_split_into_two_kernels(self, session):
        layout = profile_weight_layout(
            session.attacker_shell, "resnet50_pt", input_hw=INPUT_HW
        )
        dump = _scrape_victim_running(session, "resnet50_pt")
        extracted = WeightExtractor(layout).extract(dump)
        blocks = extracted.layer("layer1/block0")
        assert len(blocks) == 2

    def test_truncated_dump_rejected(self, session):
        from repro.attack.extraction import ScrapedDump

        layout = profile_weight_layout(
            session.attacker_shell, "resnet50_pt", input_hw=INPUT_HW
        )
        tiny = ScrapedDump(
            pid=1, heap_start=0, data=b"\x00" * 64,
            pages_read=1, pages_skipped=0, devmem_reads=16,
        )
        with pytest.raises(ReconstructionError):
            WeightExtractor(layout).extract(tiny)

    @pytest.mark.parametrize(
        "left,right",
        [
            (b"", b""),
            (b"", b"abc"),
            (b"abc", b""),
            (b"abcdef", b"abcdef"),
            (b"abcdef", b"abXdeY"),
            (b"abcdef", b"abc"),
            (b"ab", b"abcdef"),
            (bytes(range(256)), bytes(reversed(range(256)))),
        ],
    )
    def test_matching_bytes_counts_like_the_zip_loop(self, left, right):
        loop = sum(1 for a, b in zip(left, right) if a == b)
        assert matching_bytes(left, right) == loop

    def test_match_fraction_counts_like_the_zip_loop(self):
        """Recovered layers shorter than, equal to and unlike the model's."""
        reference = build_model("resnet50_pt", input_hw=INPUT_HW)
        private = fine_tune(reference, seed=5)
        arrays = {}
        for index, layer in enumerate(private.subgraph.layers):
            pieces = tuple(
                array
                for array in (layer.weights, layer.extra_weights)
                if array is not None
            )
            if pieces and index % 3 == 0:
                pieces = (pieces[0].reshape(-1)[: pieces[0].size // 2],)
            if pieces:
                arrays[layer.name] = pieces
        extracted = ExtractedWeights(model_name="resnet50_pt", arrays=arrays)
        matched = total = 0
        for layer in reference.subgraph.layers:
            payload = layer.weight_bytes()
            if not payload or layer.name not in arrays:
                continue
            recovered = b"".join(array.tobytes() for array in arrays[layer.name])
            total += len(payload)
            matched += sum(1 for a, b in zip(recovered, payload) if a == b)
        assert extracted.match_fraction(reference) == matched / total

    def test_match_fraction_requires_comparable_layers(self):
        from repro.attack.extraction import ScrapedDump
        from repro.attack.weights import ExtractedWeights

        empty = ExtractedWeights(model_name="x", arrays={})
        with pytest.raises(ReconstructionError):
            empty.match_fraction(build_model("resnet50_pt", input_hw=INPUT_HW))
