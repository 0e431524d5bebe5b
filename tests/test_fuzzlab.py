"""Tests for the fuzzlab: generator, oracles, shrinking, corpus.

The acceptance contract pinned here:

- ``run_fuzz`` is byte-deterministic for a fixed ``(seed, budget)``;
- every committed corpus seed under ``tests/corpus/fuzzlab`` replays
  green;
- an intentionally planted oracle violation is detected by the right
  oracle, shrunk to a minimal scenario, serialized, and reproduced by
  a replay of the serialized seed alone.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

import repro.fuzzlab.runner as fuzz_runner
from repro.fuzzlab import (
    ORACLES,
    PLANTED_FAULTS,
    WORLD_INTEGRITY,
    Scenario,
    ScenarioGenerator,
    ScenarioVerdict,
    check_world,
    iter_corpus,
    load_scenario,
    oracle_names,
    replay,
    run_fuzz,
    run_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    shrink,
    with_plant,
)

CORPUS_DIR = Path(__file__).parent / "corpus" / "fuzzlab"


def small_scenario(**overrides) -> Scenario:
    """A cheap but non-trivial world for plant/shrink tests."""
    fields = dict(
        scenario_id=0,
        seed=3,
        boards=2,
        victims=3,
        tenants_per_board=2,
        wave_size=2,
        model_mix=("resnet50_pt", "squeezenet_pt"),
        board_names=("ZCU104",),
        input_hw=16,
        corruption_fraction=0.2,
        coalesce_reads=True,
        executor="inprocess",
        processes=None,
        resume_executor="inprocess",
        interrupt_after=2,
        defense_profile="none",
        scrape_delay_ticks=1,
        carve_window=256,
        analysis_cap=4096,
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestScenarioGenerator:
    def test_same_seed_same_stream(self):
        assert (
            ScenarioGenerator(seed=5).generate(8)
            == ScenarioGenerator(seed=5).generate(8)
        )

    def test_scenario_k_independent_of_batch(self):
        generator = ScenarioGenerator(seed=5)
        assert generator.generate(8)[6] == generator.scenario(6)

    def test_different_seeds_differ(self):
        assert (
            ScenarioGenerator(seed=1).generate(4)
            != ScenarioGenerator(seed=2).generate(4)
        )

    def test_generated_scenarios_are_valid_and_diverse(self):
        scenarios = ScenarioGenerator(seed=0).generate(40)
        for scenario in scenarios:
            scenario.to_spec()  # revalidates every spec-shaped field
            assert 1 <= scenario.interrupt_after <= scenario.victims
        assert len({s.defense_profile for s in scenarios}) >= 4
        assert {s.executor for s in scenarios} == {
            "inprocess",
            "multiprocess",
        }

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="budget"):
            ScenarioGenerator().generate(0)

    def test_round_trip(self):
        scenario = ScenarioGenerator(seed=9).scenario(3)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_round_trip_through_json(self):
        scenario = small_scenario(planted_fault="resume-tamper")
        payload = json.loads(json.dumps(scenario_to_dict(scenario)))
        assert scenario_from_dict(payload) == scenario


class TestScenarioValidation:
    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            small_scenario(executor="quantum")

    def test_interrupt_after_clamped_to_victims(self):
        with pytest.raises(ValueError, match="interrupt_after"):
            small_scenario(victims=2, interrupt_after=3)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            small_scenario(defense_profile="adamantium")

    def test_tiny_analysis_cap_rejected(self):
        with pytest.raises(ValueError, match="analysis_cap"):
            small_scenario(analysis_cap=16)

    def test_spec_validation_is_shared(self):
        with pytest.raises(ValueError, match="unknown models"):
            small_scenario(model_mix=("resnet50_pt", "notanet"))

    def test_label_mentions_the_essentials(self):
        label = small_scenario(planted_fault="spool-tamper").label()
        assert "2b/3v" in label
        assert "crash@2" in label
        assert "plant=spool-tamper" in label

    def test_fabric_axis_validated_and_labelled(self):
        with pytest.raises(ValueError, match="fabric_workers"):
            small_scenario(fabric_workers=0)
        with pytest.raises(ValueError, match="fabric_kill_after_waves"):
            small_scenario(fabric_kill_after_waves=-1)
        label = small_scenario(
            fabric_workers=2, fabric_kill_after_waves=1
        ).label()
        assert "fabric=2w!kill@1" in label
        # The default drill (one worker, no kill) stays out of the label.
        assert "fabric" not in small_scenario().label()


class TestOracleRegistry:
    def test_expected_oracles_registered(self):
        assert oracle_names() == (
            "allocator_equivalence",
            "backing_equivalence",
            "defense_monotonicity",
            "extraction_equivalence",
            "fabric_identity",
            "memo_neutrality",
            "region_partition",
            "report_consistency",
            "resume_identity",
            "scan_equivalence",
            "spool_integrity",
        )

    def test_world_integrity_is_reserved_not_registered(self):
        assert WORLD_INTEGRITY not in ORACLES

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            check_world(object(), ("not_an_oracle",))

    def test_scan_equivalence_catches_a_diverging_marker_search(
        self, monkeypatch
    ):
        from repro.utils.hexdump import HexDump

        original = HexDump.marker_run_rows

        def off_by_one(self, marker_word, minimum_rows=2):
            return original(self, marker_word, minimum_rows) + [len(self)]

        monkeypatch.setattr(HexDump, "marker_run_rows", off_by_one)
        verdict = run_scenario(small_scenario())
        assert "scan_equivalence" in verdict.violated_oracles
        assert any(
            "marker rows" in violation.message
            for violation in verdict.violations
        )

    def test_scan_equivalence_catches_diverging_strings(self, monkeypatch):
        from repro.fuzzlab import oracles
        from repro.utils.strings import StringHit

        original = oracles.extract_strings

        def with_a_phantom_hit(data, minimum_length=4):
            return original(data, minimum_length) + [StringHit(len(data), "x")]

        monkeypatch.setattr(oracles, "extract_strings", with_a_phantom_hit)
        verdict = run_scenario(small_scenario())
        assert "scan_equivalence" in verdict.violated_oracles
        assert any(
            "strings (runs of >= 6)" in violation.message
            for violation in verdict.violations
        )

    def test_allocator_equivalence_catches_a_diverging_pool(
        self, monkeypatch
    ):
        from repro.mmu.frame_alloc import _SparsePool

        original = _SparsePool.take

        def reversed_draws(self, count, randrange):
            return original(self, count, randrange)[::-1]

        monkeypatch.setattr(_SparsePool, "take", reversed_draws)
        verdict = run_scenario(small_scenario())
        assert verdict.violated_oracles == ("allocator_equivalence",)
        assert any(
            "random pool over frames" in violation.message
            for violation in verdict.violations
        )


class TestFuzzDeterminism:
    def test_same_seed_same_bytes_and_all_green(self):
        first = run_fuzz(budget=3, seed=0)
        second = run_fuzz(budget=3, seed=0)
        assert first.to_json() == second.to_json()
        assert first.ok, [v.violations for v in first.failures()]

    def test_verdicts_round_trip(self):
        report = run_fuzz(budget=2, seed=0)
        for verdict in report.verdicts:
            assert (
                ScenarioVerdict.from_dict(verdict.to_dict()) == verdict
            )

    def test_render_summarizes(self):
        report = run_fuzz(budget=2, seed=0)
        rendered = report.render()
        assert "seed 0, budget 2" in rendered
        assert "2 ok, 0 violating" in rendered


class TestPlantedFaults:
    """Each plant must be caught by the oracle aimed at it."""

    EXPECTED = {
        "map-tamper": "region_partition",
        "resume-tamper": "resume_identity",
        "spool-tamper": "spool_integrity",
        "residue-tamper": "defense_monotonicity",
        "report-tamper": "report_consistency",
        "backing-tamper": "backing_equivalence",
        "fabric-lost-outcome": "fabric_identity",
        "memo-tamper": "memo_neutrality",
    }

    def test_every_fault_has_an_expectation(self):
        assert sorted(self.EXPECTED) == sorted(PLANTED_FAULTS)

    @pytest.mark.parametrize("fault", sorted(PLANTED_FAULTS))
    def test_plant_fires_its_oracle(self, fault):
        verdict = run_scenario(with_plant(small_scenario(), fault))
        assert not verdict.ok
        assert self.EXPECTED[fault] in verdict.violated_oracles

    def test_unknown_plant_rejected(self):
        from repro.fuzzlab import plant_fault

        with pytest.raises(ValueError, match="unknown planted fault"):
            plant_fault(object(), "no-such-fault")

    def test_plant_survives_empty_worlds(self):
        # A pinned-Xen fleet spools nothing; the map plant must still
        # produce a detectable corruption.
        scenario = with_plant(
            small_scenario(defense_profile="pinned_xen"), "map-tamper"
        )
        verdict = run_scenario(scenario)
        assert "region_partition" in verdict.violated_oracles

    def test_backing_plant_survives_empty_worlds(self):
        # No spooled residue means no backings either; the plant forges
        # a probe for an object the bytes side never read.
        scenario = with_plant(
            small_scenario(defense_profile="pinned_xen"), "backing-tamper"
        )
        verdict = run_scenario(scenario)
        assert "backing_equivalence" in verdict.violated_oracles


class TestWorldIntegrity:
    def test_stack_crash_is_a_finding_not_an_exception(
        self, monkeypatch, tmp_path
    ):
        def explode(scenario, workdir):
            raise RuntimeError(f"boom in {workdir}")

        monkeypatch.setattr(fuzz_runner, "build_world", explode)
        verdict = run_scenario(small_scenario(), workdir=tmp_path)
        assert verdict.violated_oracles == (WORLD_INTEGRITY,)
        message = verdict.violations[0].message
        assert "RuntimeError" in message
        # Temp paths are scrubbed so verdicts stay byte-deterministic.
        assert str(tmp_path) not in message
        assert "<workdir>" in message

    def test_fabric_kill_drill_stays_green(self):
        # Worker-count/crash-point axis: two racing workers, the first
        # killed mid-board, its shard re-leased — the fabric_identity
        # oracle must still see a byte-identical report.
        verdict = run_scenario(
            small_scenario(fabric_workers=2, fabric_kill_after_waves=1)
        )
        assert verdict.ok, verdict.violations

    def test_zero_corruption_regression_stays_fixed(self):
        # Found by the shrinker: corruption_fraction=0.0 used to crash
        # the board worker via Image.corrupted's (0, 1] contract.
        verdict = run_scenario(
            small_scenario(victims=1, boards=1, interrupt_after=1,
                           corruption_fraction=0.0)
        )
        assert verdict.ok, verdict.violations


class TestShrink:
    def test_green_scenario_refuses_to_shrink(self):
        with pytest.raises(ValueError, match="violates no oracle"):
            shrink(small_scenario(victims=1, boards=1, interrupt_after=1))

    def test_planted_violation_shrinks_to_minimal_and_replays(
        self, tmp_path
    ):
        # Inflate the world, plant a resume fault, and demand the
        # shrinker strip everything incidental.
        fat = with_plant(
            small_scenario(
                boards=3,
                victims=6,
                wave_size=3,
                tenants_per_board=3,
                interrupt_after=4,
                defense_profile="scrub_pool",
                scrape_delay_ticks=3,
                model_mix=("resnet50_pt", "squeezenet_pt", "vgg16_pt"),
                carve_window=48,
                seed=77,
            ),
            "resume-tamper",
        )
        result = shrink(fat)
        minimal = result.scenario
        assert minimal.boards == 1
        assert minimal.victims == 1
        assert minimal.wave_size == 1
        assert minimal.tenants_per_board == 1
        assert minimal.model_mix == ("resnet50_pt",)
        assert minimal.defense_profile == "none"
        assert minimal.scrape_delay_ticks == 0
        assert minimal.seed == 0
        assert minimal.planted_fault == "resume-tamper"
        assert result.steps  # the triage narrative is recorded
        assert "resume_identity" in result.verdict.violated_oracles

        # The minimal scenario serializes, and replaying the seed file
        # alone reproduces the violation.
        seed_path = save_scenario(
            minimal, tmp_path / "minimal.json", note="planted"
        )
        results = replay([seed_path])
        assert len(results) == 1
        _, verdict = results[0]
        assert "resume_identity" in verdict.violated_oracles

    def test_shrink_reuses_a_provided_verdict(self, monkeypatch):
        # A caller holding the verdict (the fuzz CLI) must not pay a
        # redundant whole-world rebuild just to re-learn it.
        # (importlib: the package exports a `shrink` *function* that
        # shadows the module on plain attribute-style imports.)
        import importlib

        fuzz_shrink = importlib.import_module("repro.fuzzlab.shrink")

        minimal = with_plant(
            small_scenario(
                boards=1, victims=1, tenants_per_board=1, wave_size=1,
                model_mix=("resnet50_pt",), interrupt_after=1,
                scrape_delay_ticks=0, corruption_fraction=0.0, seed=0,
            ),
            "resume-tamper",
        )
        verdict = run_scenario(minimal)
        calls = []
        monkeypatch.setattr(
            fuzz_shrink,
            "run_scenario",
            lambda scenario, oracles=None: calls.append(scenario),
        )
        result = shrink(minimal, verdict=verdict)
        assert calls == []  # already minimal: nothing re-ran at all
        assert result.reruns == 0
        assert result.verdict is verdict

    def test_shrink_respects_rerun_budget(self):
        fat = with_plant(
            small_scenario(boards=3, victims=6, interrupt_after=4),
            "resume-tamper",
        )
        result = shrink(fat, max_reruns=3)
        assert result.reruns <= 3
        assert not result.verdict.ok


class TestCorpus:
    def test_save_load_round_trip(self, tmp_path):
        scenario = small_scenario()
        path = save_scenario(
            scenario, tmp_path / "seed.json", note="why it matters"
        )
        loaded, note = load_scenario(path)
        assert loaded == scenario
        assert note == "why it matters"

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_scenario(path)

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": 99, "scenario": {}}))
        with pytest.raises(ValueError, match="not a fuzzlab seed"):
            load_scenario(path)

    def test_load_rejects_non_object_json(self, tmp_path):
        # Valid JSON that is not an object must be one clean ValueError,
        # not an AttributeError from the error message itself.
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="a JSON list"):
            load_scenario(path)

    def test_load_rejects_invalid_scenario(self, tmp_path):
        payload = {
            "format": 1,
            "scenario": {"scenario_id": 1, "victims": -3},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="invalid scenario"):
            load_scenario(path)

    def test_iter_corpus_expands_directories_sorted(self, tmp_path):
        for name in ("b.json", "a.json"):
            save_scenario(small_scenario(), tmp_path / name)
        assert [p.name for p in iter_corpus([tmp_path])] == [
            "a.json",
            "b.json",
        ]

    def test_iter_corpus_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            iter_corpus([tmp_path / "ghost.json"])


class TestCommittedCorpus:
    """Every committed regression seed must replay green, forever."""

    def test_corpus_exists_and_is_non_trivial(self):
        seeds = iter_corpus([CORPUS_DIR])
        assert len(seeds) >= 5
        notes = [load_scenario(path)[1] for path in seeds]
        assert all(notes), "every committed seed carries a triage note"

    @pytest.mark.parametrize(
        "seed_path",
        sorted(CORPUS_DIR.glob("*.json")),
        ids=lambda p: p.stem,
    )
    def test_seed_replays_green(self, seed_path):
        scenario, note = load_scenario(seed_path)
        verdict = run_scenario(scenario)
        assert verdict.ok, (note, verdict.violations)
