"""Unit tests for the DPU runner and the victim application."""

import numpy as np
import pytest

from repro.petalinux.shell import Shell
from repro.vitis.app import VictimApplication
from repro.vitis.image import Image
from repro.vitis.memo import LoadedModel
from repro.vitis.runner import DpuRunner
from repro.vitis.zoo import build_model

INPUT_HW = 32


@pytest.fixture
def victim_app(shells) -> VictimApplication:
    _, victim_shell = shells
    return VictimApplication(victim_shell, input_hw=INPUT_HW)


class TestRunnerLayout:
    def test_buffers_ordered_in_heap(self, shells):
        _, victim_shell = shells
        process = victim_shell.run(["./resnet50_pt"])
        model = build_model("resnet50_pt", input_hw=INPUT_HW)
        runner = DpuRunner(process, victim_shell.kernel.dpu, LoadedModel.of(model))
        assert runner.runtime_blob_address < runner.model_blob_address
        assert runner.model_blob_address < runner.input_address
        assert runner.input_address < runner.output_address

    def test_layout_deterministic_across_processes(self, shells):
        _, victim_shell = shells
        offsets = []
        for _ in range(2):
            process = victim_shell.run(["./resnet50_pt"])
            loaded = LoadedModel.of(build_model("resnet50_pt", input_hw=INPUT_HW))
            runner = DpuRunner(process, victim_shell.kernel.dpu, loaded)
            offsets.append(runner.input_heap_offset)
            victim_shell.kernel.exit_process(process.pid)
        assert offsets[0] == offsets[1]

    def test_layout_differs_across_models(self, shells):
        _, victim_shell = shells
        offsets = {}
        for name in ("resnet50_pt", "squeezenet_pt"):
            process = victim_shell.run([f"./{name}"])
            loaded = LoadedModel.of(build_model(name, input_hw=INPUT_HW))
            runner = DpuRunner(process, victim_shell.kernel.dpu, loaded)
            offsets[name] = runner.input_heap_offset
            victim_shell.kernel.exit_process(process.pid)
        assert offsets["resnet50_pt"] != offsets["squeezenet_pt"]

    def test_model_blob_readable_from_heap(self, shells):
        _, victim_shell = shells
        process = victim_shell.run(["./resnet50_pt"])
        model = build_model("resnet50_pt", input_hw=INPUT_HW)
        runner = DpuRunner(process, victim_shell.kernel.dpu, LoadedModel.of(model))
        blob = process.heap_arena.read(
            runner.model_blob_address, len(model.serialize())
        )
        assert blob == model.serialize()

    def test_runtime_strings_in_heap(self, shells):
        _, victim_shell = shells
        process = victim_shell.run(["./resnet50_pt"])
        model = build_model("resnet50_pt", input_hw=INPUT_HW)
        DpuRunner(process, victim_shell.kernel.dpu, LoadedModel.of(model))
        heap = process.address_space.heap()
        data = process.address_space.read_virtual(heap.start, heap.length)
        assert b"/usr/lib/libvart-runner.so.3.5" in data

    def test_runner_requires_heap_arena(self, shells, kernel):
        _, victim_shell = shells
        process = victim_shell.run(["./x"])
        process.heap_arena = None
        with pytest.raises(ValueError):
            DpuRunner(
                process,
                kernel.dpu,
                LoadedModel.of(build_model("resnet50_pt", INPUT_HW)),
            )


class TestInference:
    def test_run_returns_scores(self, victim_app, test_image):
        run = victim_app.launch("resnet50_pt", image=test_image)
        assert run.result is not None
        assert len(run.result.scores) == 100
        assert 0 <= run.result.top_class < 100

    def test_wrong_image_size_rejected(self, victim_app):
        run = victim_app.launch("resnet50_pt", infer=False)
        with pytest.raises(ValueError):
            run.infer(Image.test_pattern(16, 16))

    def test_image_bytes_land_in_heap(self, victim_app, test_image):
        run = victim_app.launch("resnet50_pt", image=test_image)
        recovered = run.process.heap_arena.read(
            run.runner.input_address, test_image.nbytes
        )
        assert recovered == test_image.to_raw_rgb()

    def test_inference_via_dpu_updates_stats(self, victim_app, test_image):
        kernel = victim_app._shell.kernel
        jobs_before = kernel.dpu.stats.jobs_completed
        victim_app.launch("resnet50_pt", image=test_image)
        assert kernel.dpu.stats.jobs_completed == jobs_before + 1

    def test_top_k_ordering(self, victim_app, test_image):
        run = victim_app.launch("resnet50_pt", image=test_image)
        top = run.result.top_k(5)
        scores = [score for _, score in top]
        assert scores == sorted(scores, reverse=True)
        assert top[0][0] == run.result.top_class

    def test_repeated_inference_allowed(self, victim_app, test_image):
        run = victim_app.launch("resnet50_pt", image=test_image)
        second = run.infer(Image.test_pattern(INPUT_HW, INPUT_HW, seed=9))
        assert run.runner.runs_completed == 2
        assert second is run.result

    def test_dead_process_cannot_infer(self, victim_app, test_image):
        run = victim_app.launch("resnet50_pt", image=test_image)
        run.terminate()
        from repro.errors import ProcessStateError

        with pytest.raises(ProcessStateError):
            run.infer(test_image)


class TestVictimLifecycle:
    def test_launch_shows_in_ps(self, shells, victim_app):
        attacker_shell, _ = shells
        run = victim_app.launch("resnet50_pt")
        assert str(run.pid) in attacker_shell.ps_ef()
        assert run.alive

    def test_cmdline_contains_install_path(self, victim_app):
        run = victim_app.launch("resnet50_pt")
        assert (
            "/usr/share/vitis_ai_library/models/resnet50_pt/resnet50_pt.xmodel"
            in run.process.command
        )

    def test_terminate_removes_pid(self, victim_app):
        run = victim_app.launch("resnet50_pt")
        run.terminate()
        assert not run.alive

    def test_default_image_used_when_none_given(self, victim_app):
        run = victim_app.launch("resnet50_pt")
        assert run.result is not None

    def test_launch_without_inference(self, victim_app):
        run = victim_app.launch("resnet50_pt", infer=False)
        assert run.result is None
