"""Unit tests for the offline profiler and profile store."""

import pytest

from repro.attack.config import AttackConfig
from repro.attack.identify import SignatureDatabase
from repro.attack.profiling import ModelProfile, OfflineProfiler, ProfileStore
from repro.attack.weights import profile_weight_layout
from repro.campaign import CampaignSpec, prepare_offline
from repro.defense.arena import prepare_weight_probe
from repro.errors import ProfilingError
from repro.evaluation.scenarios import BoardSession
from repro.petalinux.kernel import KernelConfig
from repro.petalinux.sanitizer import SanitizePolicy
from repro.vitis.zoo import MODEL_NAMES

INPUT_HW = 32
COALESCED = AttackConfig(coalesce_reads=True)


class TestProfileModel:
    def test_finds_marker_offset(self, shells):
        attacker_shell, _ = shells
        profiler = OfflineProfiler(attacker_shell, input_hw=INPUT_HW)
        profile = profiler.profile_model("resnet50_pt")
        assert profile.model_name == "resnet50_pt"
        assert profile.image_offset > 0
        assert profile.image_nbytes == INPUT_HW * INPUT_HW * 3
        assert profile.heap_size > profile.image_offset

    def test_offset_matches_runner_ground_truth(self, shells):
        attacker_shell, victim_shell = shells
        from repro.vitis.app import VictimApplication

        profiler = OfflineProfiler(attacker_shell, input_hw=INPUT_HW)
        profile = profiler.profile_model("resnet50_pt")
        run = VictimApplication(victim_shell, input_hw=INPUT_HW).launch(
            "resnet50_pt"
        )
        assert profile.image_offset == run.runner.input_heap_offset

    def test_profile_transfers_across_boards(self):
        """The determinism claim: profile on board A, attack board B."""
        first = BoardSession.boot(input_hw=INPUT_HW)
        second = BoardSession.boot(input_hw=INPUT_HW)
        profile_a = OfflineProfiler(
            first.attacker_shell, input_hw=INPUT_HW
        ).profile_model("resnet50_pt")
        profile_b = OfflineProfiler(
            second.attacker_shell, input_hw=INPUT_HW
        ).profile_model("resnet50_pt")
        assert profile_a.image_offset == profile_b.image_offset

    def test_strings_include_model_tokens(self, shells):
        attacker_shell, _ = shells
        profiler = OfflineProfiler(attacker_shell, input_hw=INPUT_HW)
        profile = profiler.profile_model("resnet50_pt")
        assert any("resnet50" in text for text in profile.strings)

    def test_hexdump_row_property(self):
        profile = ModelProfile(
            model_name="m", image_offset=646768 * 16,
            image_height=224, image_width=224, heap_size=2**24,
        )
        assert profile.hexdump_row == 646768

    def test_profiling_fails_on_sanitizing_board(self):
        session = BoardSession.boot(
            config=KernelConfig(sanitize_policy=SanitizePolicy.ZERO_ON_FREE),
            input_hw=INPUT_HW,
        )
        profiler = OfflineProfiler(session.attacker_shell, input_hw=INPUT_HW)
        with pytest.raises(ProfilingError):
            profiler.profile_model("resnet50_pt")

    def test_profile_library_covers_all_requested(self, shells):
        attacker_shell, _ = shells
        profiler = OfflineProfiler(attacker_shell, input_hw=INPUT_HW)
        store = profiler.profile_library(["resnet50_pt", "squeezenet_pt"])
        assert store.model_names() == ["resnet50_pt", "squeezenet_pt"]

    def test_profiler_cleans_up_its_own_processes(self, shells):
        attacker_shell, _ = shells
        profiler = OfflineProfiler(attacker_shell, input_hw=INPUT_HW)
        profiler.profile_model("resnet50_pt")
        commands = [p.command for p in attacker_shell.kernel.processes()]
        assert not any("resnet50_pt" in command for command in commands)


class TestReadModeIndependence:
    """Prep may coalesce: a profile or weight layout holds only offsets,
    sizes and strings, and every read mode scrapes the same bytes."""

    @pytest.mark.parametrize("input_hw", [16, 32])
    def test_profiles_equal_under_word_and_coalesced_reads(self, input_hw):
        word = BoardSession.boot(input_hw=input_hw).profile(list(MODEL_NAMES))
        coalesced = BoardSession.boot(input_hw=input_hw).profile(
            list(MODEL_NAMES), config=COALESCED
        )
        assert coalesced.profiles() == word.profiles()
        assert coalesced.to_json() == word.to_json()

    @pytest.mark.parametrize("input_hw", [16, 32])
    def test_weight_layouts_equal_under_word_and_coalesced_reads(
        self, input_hw
    ):
        word = BoardSession.boot(input_hw=input_hw).attacker_shell
        coalesced = BoardSession.boot(input_hw=input_hw).attacker_shell
        for model in MODEL_NAMES:
            assert profile_weight_layout(
                coalesced, model, input_hw=input_hw, config=COALESCED
            ) == profile_weight_layout(word, model, input_hw=input_hw), model

    def test_prep_matches_word_reads_whatever_the_fleet_read_mode(self):
        spec = CampaignSpec()
        word = BoardSession.boot(input_hw=spec.input_hw).profile(
            sorted(set(spec.model_mix))
        )
        word_payload = SignatureDatabase.from_profiles(word).to_payload()
        for fleet in (spec, CampaignSpec(coalesce_reads=False)):
            profiles, database = prepare_offline(fleet)
            assert profiles.to_json() == word.to_json()
            assert database.to_payload() == word_payload

    def test_probe_prep_matches_the_word_read_layout(self):
        layout, _ = prepare_weight_probe(input_hw=INPUT_HW)
        shell = BoardSession.boot(input_hw=INPUT_HW).attacker_shell
        assert layout == profile_weight_layout(
            shell, layout.model_name, input_hw=INPUT_HW
        )

    def test_coalesced_profiler_still_fails_on_sanitizing_board(self):
        session = BoardSession.boot(
            config=KernelConfig(sanitize_policy=SanitizePolicy.ZERO_ON_FREE),
            input_hw=INPUT_HW,
        )
        profiler = OfflineProfiler(
            session.attacker_shell, input_hw=INPUT_HW, config=COALESCED
        )
        with pytest.raises(ProfilingError):
            profiler.profile_model("resnet50_pt")


class TestProfileStore:
    def _store(self) -> ProfileStore:
        store = ProfileStore()
        store.add(
            ModelProfile(
                model_name="resnet50_pt", image_offset=0x1000,
                image_height=32, image_width=32, heap_size=0x10000,
                strings=frozenset({"resnet50_pt", "shared"}),
            )
        )
        store.add(
            ModelProfile(
                model_name="squeezenet_pt", image_offset=0x800,
                image_height=32, image_width=32, heap_size=0x8000,
                strings=frozenset({"squeezenet_pt", "shared"}),
            )
        )
        return store

    def test_contains_and_get(self):
        store = self._store()
        assert "resnet50_pt" in store
        assert "ghost" not in store
        assert store.get("resnet50_pt").image_offset == 0x1000

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            self._store().get("ghost")

    def test_json_roundtrip(self):
        store = self._store()
        rebuilt = ProfileStore.from_json(store.to_json())
        assert rebuilt.model_names() == store.model_names()
        for name in store.model_names():
            original = store.get(name)
            copy = rebuilt.get(name)
            assert copy.image_offset == original.image_offset
            assert copy.strings == original.strings

    def test_add_replaces(self):
        store = self._store()
        store.add(
            ModelProfile(
                model_name="resnet50_pt", image_offset=0x2000,
                image_height=32, image_width=32, heap_size=0x10000,
            )
        )
        assert store.get("resnet50_pt").image_offset == 0x2000
        assert len(store.profiles()) == 2
