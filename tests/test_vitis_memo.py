"""The content-keyed model and inference memos of ``repro.vitis.memo``.

Every memoized result must equal its uncached construction
(``build_model(...).serialize()``, ``XModel.parse``,
``LoadedModel.of``, ``build_runtime_blob``, a cleared ``MODEL_MEMO``),
stay read-only, and leave every per-victim side effect in place; a
custom model must never see a stock model's entry; and a sweep must
give the same rows whether its inference memo admits everything,
something or nothing.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import sys
import threading
import time

import pytest

from repro.campaign import CampaignSpec, prepare_offline, run_campaign
from repro.defense import run_defense_arena
from repro.defense.matrix import HOST_TIME_COLUMNS
from repro.evaluation.scenarios import BoardSession
from repro.vitis import memo
from repro.vitis.image import Image
from repro.vitis.memo import (
    MODEL_MEMO,
    ContentMemo,
    LoadedModel,
    dpu_kernel,
    inference_memo,
    installed_xmodel,
    load_xmodel,
)
from repro.vitis.runner import build_runtime_blob, runtime_blob
from repro.vitis.xmodel import XModel
from repro.vitis.zoo import MODEL_NAMES, build_model, fine_tune

SMALL = CampaignSpec(
    boards=2,
    victims=4,
    model_mix=("resnet50_pt", "squeezenet_pt"),
    wave_size=2,
    seed=11,
    input_hw=16,
)


class TestModelMemo:
    @pytest.mark.parametrize("input_hw", (16, 32))
    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_results_equal_the_uncached_builds(self, name, input_hw):
        blob = installed_xmodel(name, input_hw)
        assert blob == build_model(name, input_hw=input_hw).serialize()
        loaded = load_xmodel(blob)
        parsed = XModel.parse(blob)
        assert loaded.model == parsed
        assert loaded.blob == blob
        assert loaded.payloads == tuple(
            layer.weight_bytes()
            for layer in parsed.subgraph.layers
            if layer.weight_bytes()
        )
        assert loaded.digest == hashlib.sha256(blob).digest()
        assert loaded == LoadedModel.of(parsed)

    def test_repeat_lookups_share_one_entry(self):
        blob = installed_xmodel("resnet50_pt", 32)
        assert installed_xmodel("resnet50_pt", 32) is blob
        hits = MODEL_MEMO.hits
        assert load_xmodel(blob) is load_xmodel(blob)
        assert MODEL_MEMO.hits > hits

    def test_results_are_read_only(self):
        loaded = load_xmodel(installed_xmodel("resnet18_pt", 32))
        arrays = [
            array
            for layer in loaded.model.subgraph.layers
            for array in (layer.weights, layer.extra_weights)
            if array is not None
        ]
        assert arrays
        assert not any(array.flags.writeable for array in arrays)
        with pytest.raises(ValueError):
            arrays[0][...] = 0

    @pytest.mark.parametrize("length", (64 * 1024, 4096, 100))
    def test_runtime_blob_equals_the_uncached_blob(self, length):
        assert runtime_blob(length) == build_runtime_blob(length)
        assert runtime_blob(length) is runtime_blob(length)

    def test_cleared_memo_rebuilds_equal_bytes(self):
        before = installed_xmodel("vgg16_pt", 16)
        MODEL_MEMO.clear()
        assert len(MODEL_MEMO) == 0
        after = installed_xmodel("vgg16_pt", 16)
        assert after == before
        assert after is not before

    def test_fine_tuned_model_never_receives_the_stock_entry(self):
        session = BoardSession.boot(input_hw=32)
        application = session.victim_application()
        stock = application.launch("resnet50_pt")
        stock.terminate()
        private = fine_tune(build_model("resnet50_pt", input_hw=32), seed=9)
        entries = len(MODEL_MEMO)
        run = application.launch("resnet50_pt", model=private)
        assert len(MODEL_MEMO) == entries
        assert run.model is private
        assert run.runner.model is private
        heap = run.process.heap_arena
        blob = private.serialize()
        assert blob != installed_xmodel("resnet50_pt", 32)
        assert heap.read(run.runner.model_blob_address, len(blob)) == blob
        payloads = [
            layer.weight_bytes()
            for layer in private.subgraph.layers
            if layer.weight_bytes()
        ]
        for address, payload in zip(run.runner.weight_addresses, payloads):
            assert heap.read(address, len(payload)) == payload

    def test_cold_and_warm_memo_give_identical_reports(self):
        prep = prepare_offline(SMALL)
        MODEL_MEMO.clear()
        cold = run_campaign(SMALL, *prep).to_json()
        hits = MODEL_MEMO.hits
        warm = run_campaign(SMALL, *prep).to_json()
        assert MODEL_MEMO.hits > hits
        assert warm == cold


class TestContentMemo:
    def test_a_full_memo_stops_admitting_and_never_evicts(self):
        table = ContentMemo(max_bytes=10)
        assert table.lookup("a", lambda: b"12345678", len) == b"12345678"
        assert table.lookup("b", lambda: b"xyz", len) == b"xyz"
        assert len(table) == 1 and table.nbytes == 8
        assert table.lookup("a", lambda: b"recomputed", len) == b"12345678"
        assert table.lookup("b", lambda: b"xyz", len) == b"xyz"
        assert (table.hits, table.misses) == (1, 3)

    def test_threads_lose_no_update(self):
        """Eight threads missing the same keys at once: every lookup is
        counted once and every admitted entry is charged once.

        *compute* and *size* give the interpreter lock away, as numpy
        and hashing do, so the threads interleave inside ``lookup``.
        """
        rounds = 500
        table = ContentMemo(max_bytes=8 * rounds)
        start = threading.Barrier(8)

        def compute() -> bytes:
            time.sleep(0)
            return bytes(8)

        def size(value: bytes) -> int:
            time.sleep(0)
            return len(value)

        def hammer() -> None:
            start.wait(30)
            for key in range(rounds):
                table.lookup(key, compute, size)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert table.hits + table.misses == 8 * rounds
        assert len(table) == rounds
        assert table.nbytes == 8 * rounds

    def test_a_failed_compute_stores_nothing(self):
        table = ContentMemo(max_bytes=1024)

        def fail() -> bytes:
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            table.lookup("a", fail, len)
        assert len(table) == 0


def _touch_the_memos() -> None:
    """A forked child's memo work: needs the memo lock in the child."""
    blob = installed_xmodel("squeezenet_pt", 16)
    load_xmodel(blob)
    with inference_memo():
        pass


class TestInferenceMemo:
    def test_block_scopes_the_memo(self):
        loaded = load_xmodel(installed_xmodel("resnet50_pt", 16))
        assert dpu_kernel(loaded) is loaded.model.subgraph
        with inference_memo() as outer:
            kernel = dpu_kernel(loaded)
            assert kernel is not loaded.model.subgraph
            assert kernel.macs == loaded.model.subgraph.macs
            with inference_memo() as inner:
                assert inner is outer
            assert dpu_kernel(loaded).memo is outer
        assert dpu_kernel(loaded) is loaded.model.subgraph

    def test_repeated_inference_reuses_the_output_but_runs_the_job(self):
        image = Image.test_pattern(16, 16, seed=4)
        plain = BoardSession.boot(input_hw=16).victim_application()
        expected = plain.launch("resnet50_pt", image=image).result.scores
        boards = [BoardSession.boot(input_hw=16, fill_seed=seed) for seed in (1, 2)]
        with inference_memo() as table:
            runs = [
                board.victim_application().launch("resnet50_pt", image=image)
                for board in boards
            ]
        assert (table.hits, table.misses) == (1, 1)
        for board, run in zip(boards, runs):
            assert run.result.scores.tolist() == expected.tolist()
            stats = board.kernel.dpu.stats
            assert stats.jobs_completed == 1
            assert stats.bytes_scattered == run.runner.output_nbytes
            scores = run.process.heap_arena.read(
                run.runner.output_address, run.runner.output_nbytes
            )
            assert scores == expected.tobytes()

    @pytest.mark.parametrize("max_bytes", (0, 1024))
    def test_a_sweep_beyond_the_cap_gives_identical_rows(
        self, monkeypatch, max_bytes
    ):
        """Caps admitting nothing and one 16x16 inference."""
        def sweep() -> list[dict]:
            matrix = run_defense_arena(
                SMALL,
                profiles=("none", "zero_on_free", "scrub_pool"),
                scrape_delay_ticks=1,
                weight_theft=True,
            )
            return [
                {
                    name: value
                    for name, value in vars(row).items()
                    if name not in HOST_TIME_COLUMNS
                }
                for row in matrix.rows
            ]

        reference = sweep()
        monkeypatch.setattr(memo, "INFERENCE_MEMO_BYTES", max_bytes)
        assert sweep() == reference

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs fork",
    )
    def test_a_forked_child_does_not_deadlock_on_the_memo_lock(self):
        """A fork taken while another thread holds the lock."""
        held = threading.Event()
        release = threading.Event()

        def hold() -> None:
            with memo._lock:
                held.set()
                release.wait(60)

        holder = threading.Thread(target=hold)
        holder.start()
        held.wait(10)
        child = multiprocessing.get_context("fork").Process(
            target=_touch_the_memos
        )
        try:
            child.start()
            child.join(30)
            alive = child.is_alive()
            if alive:
                child.kill()
                child.join()
        finally:
            release.set()
            holder.join()
        assert not alive, "the forked child deadlocked on the memo lock"
        assert child.exitcode == 0
