"""The victim application — ``./resnet50_pt <xmodel> <image>``.

Bundles the full victim workflow of the paper's §IV: launch a process
from a terminal, load a zoo model into its heap, run inference on an
input image, and (when the experiment says so) terminate.  Both the
genuine victim and the attacker's offline-profiling runs use this same
class, because the attack's premise is that attacker and victim run
*the same* Xilinx application stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.petalinux.kernel import PetaLinuxKernel
from repro.petalinux.process import Process
from repro.petalinux.shell import Shell
from repro.vitis.image import Image
from repro.vitis.memo import LoadedModel, installed_xmodel, load_xmodel
from repro.vitis.runner import DpuRunner, InferenceResult
from repro.vitis.xmodel import XModel
from repro.vitis.zoo import model_install_path


@dataclass
class VictimRun:
    """A launched (possibly still running) victim application."""

    kernel: PetaLinuxKernel
    process: Process
    model: XModel
    runner: DpuRunner
    result: InferenceResult | None = None

    @property
    def pid(self) -> int:
        """The victim's process id — what the attacker polls for."""
        return self.process.pid

    def infer(self, image: Image) -> InferenceResult:
        """Run one more inference in the live process."""
        self.result = self.runner.run(image)
        return self.result

    def terminate(self) -> None:
        """End the process; its heap frames go back to the allocator.

        Under the default kernel config nothing scrubs them — the
        paper's vulnerability window opens here.
        """
        self.kernel.exit_process(self.pid)

    @property
    def alive(self) -> bool:
        """Whether the pid is still in the process table."""
        return self.kernel.has_process(self.pid)


class VictimApplication:
    """Factory for victim runs on one booted board."""

    def __init__(self, shell: Shell, input_hw: int = 32) -> None:
        self._shell = shell
        self._input_hw = input_hw

    @property
    def input_hw(self) -> int:
        """Input edge length every model on this board uses."""
        return self._input_hw

    def _load_installed_model(self, model_name: str) -> LoadedModel:
        """Read the xmodel from the rootfs, like the real application.

        Falls back to the zoo's build when the library is not installed
        on this board, or when the installed model was built for a
        different input size than this application targets.  Either
        way the file is parsed through the model memo, once per blob.
        """
        from repro.errors import OsError

        rootfs = self._shell.kernel.rootfs
        try:
            blob = rootfs.read_file(
                model_install_path(model_name), caller=self._shell.user
            )
        except OsError:
            blob = installed_xmodel(model_name, self._input_hw)
        loaded = load_xmodel(blob)
        if loaded.model.subgraph.input_height != self._input_hw:
            loaded = load_xmodel(installed_xmodel(model_name, self._input_hw))
        return loaded

    def launch(
        self,
        model_name: str,
        image: Image | None = None,
        image_path: str = "../images/001.jpg",
        infer: bool = True,
        model: XModel | None = None,
    ) -> VictimRun:
        """Start ``./<model_name> <xmodel path> <image path>``.

        Loads the model into the fresh process's heap and, when
        *infer* is true, immediately runs one inference on *image*
        (default: the deterministic test pattern standing in for the
        Xilinx demo JPEG).  Pass *model* to run a custom build — e.g.
        a :func:`~repro.vitis.zoo.fine_tune`\\ d variant with private
        weights — instead of the stock library model.

        The stock model is read from the board's root filesystem when
        the Vitis AI library is installed there (the real load path —
        the file bytes are what land in the heap); boards without the
        installation fall back to building the model directly.
        """
        loaded = (
            self._load_installed_model(model_name)
            if model is None
            else LoadedModel.of(model)
        )
        process = self._shell.run(
            [f"./{model_name}", model_install_path(model_name), image_path]
        )
        runner = DpuRunner(process, self._shell.kernel.dpu, loaded)
        run = VictimRun(
            kernel=self._shell.kernel,
            process=process,
            model=loaded.model,
            runner=runner,
        )
        if infer:
            if image is None:
                image = Image.test_pattern(self._input_hw, self._input_hw)
            run.infer(image)
        return run
