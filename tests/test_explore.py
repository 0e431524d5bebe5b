"""The explorer: genomes, evolution determinism, Pareto frontiers."""

from __future__ import annotations

import random

import pytest

from repro.defense.arena import probe_weight_theft
from repro.explore import (
    AttackGenome,
    EvolutionConfig,
    FrontierReport,
    GenomeEvaluator,
    attack_report,
    crossover,
    defense_report,
    deployment_overhead,
    dominates,
    evolve,
    export_elites,
    genome_from_dict,
    genome_to_dict,
    mutate,
    pareto_front,
    random_genome,
    sweep_defense_space,
)
from repro.explore import fitness
from repro.explore.genome import (
    CARVE_WINDOWS,
    CORRUPTION_LEVELS,
    DELAY_TICKS,
    MODEL_POOL,
)

TINY = EvolutionConfig(seed=0, population=3, generations=2, elites=1)


# -- genomes ------------------------------------------------------------------


class TestGenome:
    def test_random_genomes_are_valid_and_seeded(self):
        first = [random_genome(random.Random(11)) for _ in range(8)]
        second = [random_genome(random.Random(11)) for _ in range(8)]
        assert first == second

    def test_dict_round_trip(self):
        genome = random_genome(random.Random(5))
        assert genome_from_dict(genome_to_dict(genome)) == genome

    def test_mutation_changes_exactly_one_gene(self):
        rng = random.Random(13)
        for _ in range(50):
            genome = random_genome(rng)
            mutant = mutate(genome, rng)
            before = genome_to_dict(genome)
            after = genome_to_dict(mutant)
            changed = [k for k in before if before[k] != after[k]]
            assert len(changed) == 1

    def test_crossover_stays_in_parent_gene_pools(self):
        rng = random.Random(17)
        for _ in range(50):
            a, b = random_genome(rng), random_genome(rng)
            child = genome_to_dict(crossover(a, b, rng))
            da, db = genome_to_dict(a), genome_to_dict(b)
            for gene, value in child.items():
                assert value in (da[gene], db[gene])

    def test_out_of_pool_genes_rejected(self):
        genome = random_genome(random.Random(0))
        fields = genome_to_dict(genome)
        fields["delay_ticks"] = max(DELAY_TICKS) + 1
        with pytest.raises(ValueError, match="delay_ticks"):
            genome_from_dict(fields)
        fields = genome_to_dict(genome)
        fields["model_mix"] = ["yolov3_voc_tf"]
        with pytest.raises(ValueError, match="outside the genome pool"):
            genome_from_dict(fields)
        fields = genome_to_dict(genome)
        fields["model_mix"] = sorted(MODEL_POOL[:2], reverse=True)
        with pytest.raises(ValueError, match="sorted"):
            genome_from_dict(fields)

    def test_to_scenario_is_runnable_and_deterministic(self):
        genome = random_genome(random.Random(2))
        scenario = genome.to_scenario()
        assert scenario == genome.to_scenario()
        assert scenario.carve_window in CARVE_WINDOWS
        assert scenario.corruption_fraction in CORRUPTION_LEVELS
        assert scenario.executor == "inprocess"


# -- fitness ------------------------------------------------------------------


class TestGenomeEvaluator:
    def test_scores_cached_by_genome_identity(self):
        evaluator = GenomeEvaluator(fitness="residue")
        genome = random_genome(random.Random(4))
        clone = genome_from_dict(genome_to_dict(genome))
        first = evaluator.score(genome)
        assert evaluator.score(clone) == first
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits == 1

    def test_hardened_profile_scores_no_higher(self):
        genome = random_genome(random.Random(4))
        open_score = GenomeEvaluator(profile="none").score(genome)
        hard_score = GenomeEvaluator(profile="zero_on_free").score(genome)
        assert hard_score <= open_score
        assert hard_score == 0.0

    def test_unknown_fitness_rejected(self):
        with pytest.raises(ValueError, match="unknown fitness"):
            GenomeEvaluator(fitness="vibes")

    def test_weights_fitness_scores_the_probe_without_a_campaign(
        self, monkeypatch
    ):
        def no_campaign(*args, **kwargs):
            raise AssertionError("the weights fitness ran a campaign")

        monkeypatch.setattr(fitness, "evaluate_world", no_campaign)
        evaluator = GenomeEvaluator(fitness="weights", input_hw=16)
        genome = random_genome(random.Random(4))
        spec = genome.to_scenario(input_hw=16).to_spec()
        expected = probe_weight_theft(
            evaluator.profile.kernel_config(spec),
            input_hw=16,
            delay_ticks=genome.delay_ticks,
        )
        assert expected > 0.0
        assert evaluator.score(genome) == expected
        clone = genome_from_dict(genome_to_dict(genome))
        assert evaluator.score(clone) == expected
        assert evaluator.evaluations == 1
        assert evaluator.cache_hits == 1


# -- evolution ----------------------------------------------------------------


class TestEvolve:
    def test_same_seed_byte_identical_report(self):
        first = attack_report({"none": evolve(TINY)}, seed=0, params={})
        second = attack_report({"none": evolve(TINY)}, seed=0, params={})
        assert first.to_json() == second.to_json()

    def test_different_seeds_diverge(self):
        other = EvolutionConfig(
            seed=1, population=3, generations=2, elites=1
        )
        assert evolve(TINY).frontier != evolve(other).frontier

    def test_frontier_is_ranked_and_distinct(self):
        result = evolve(TINY)
        scores = [score for score, _ in result.frontier]
        assert scores == sorted(scores, reverse=True)
        keys = [genome.key() for _, genome in result.frontier]
        assert len(keys) == len(set(keys))

    def test_stats_track_every_generation(self):
        result = evolve(TINY)
        assert [s.generation for s in result.stats] == [0, 1]
        assert all(s.best >= s.mean for s in result.stats)
        assert result.evaluations + result.cache_hits >= (
            TINY.population * TINY.generations
        )

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError, match="population"):
            EvolutionConfig(population=1)
        with pytest.raises(ValueError, match="elites"):
            EvolutionConfig(population=4, elites=4)
        with pytest.raises(ValueError, match="tournament"):
            EvolutionConfig(population=4, tournament=5)
        with pytest.raises(ValueError, match="mutation_rate"):
            EvolutionConfig(mutation_rate=1.5)
        with pytest.raises(ValueError, match="unknown fitness"):
            EvolutionConfig(fitness="vibes")


# -- pareto -------------------------------------------------------------------


class TestParetoFront:
    def test_dominates_is_strict(self):
        assert dominates((1, 1), (2, 2))
        assert dominates((1, 2), (2, 2))
        assert not dominates((2, 2), (2, 2))
        assert not dominates((1, 3), (2, 2))
        with pytest.raises(ValueError, match="arity"):
            dominates((1,), (1, 2))

    def test_front_membership_property(self):
        # Property: a flagged point is dominated by nobody; an
        # unflagged point is dominated by at least one flagged point.
        rng = random.Random(23)
        for _ in range(20):
            points = [
                (rng.randrange(8), rng.randrange(8)) for _ in range(12)
            ]
            flags = pareto_front(points)
            assert any(flags)
            for i, (point, flag) in enumerate(zip(points, flags)):
                dominators = [
                    j
                    for j, other in enumerate(points)
                    if j != i and dominates(other, point)
                ]
                if flag:
                    assert not dominators
                else:
                    assert any(flags[j] for j in dominators)

    def test_equal_points_share_the_front(self):
        assert pareto_front([(1, 1), (1, 1), (2, 2)]) == (
            True, True, False,
        )


class TestDefenseSweep:
    @pytest.fixture(scope="class")
    def points(self):
        genome = AttackGenome(
            boards=1,
            victims=2,
            wave_size=1,
            tenants_per_board=1,
            model_mix=("resnet50_pt",),
            coalesce_reads=True,
            delay_ticks=2,
            carve_window=256,
            corruption=0.0,
            seed=0,
        )
        return sweep_defense_space(genome, scrub_rates=(16,))

    def test_swept_front_is_non_dominated(self, points):
        front = [p for p in points if p.on_front]
        assert front
        for point in front:
            assert not any(
                dominates(other.objectives, point.objectives)
                for other in points
            )

    def test_dominated_points_are_flagged_off_front(self, points):
        for point in points:
            if not point.on_front:
                assert any(
                    other.on_front
                    and dominates(other.objectives, point.objectives)
                    for other in points
                )

    def test_undefended_point_pays_zero_overhead(self, points):
        by_name = {p.config.name: p for p in points}
        none = by_name["none"]
        assert none.overhead == 0
        assert none.leakage_bytes > 0
        assert none.on_front  # nothing can beat free

    def test_overhead_model_is_deterministic(self, points):
        for point in points:
            assert point.overhead >= 0
            assert isinstance(point.overhead, int)

    def test_sweep_is_deterministic(self, points):
        genome = AttackGenome(
            boards=1,
            victims=2,
            wave_size=1,
            tenants_per_board=1,
            model_mix=("resnet50_pt",),
            coalesce_reads=True,
            delay_ticks=2,
            carve_window=256,
            corruption=0.0,
            seed=0,
        )
        again = sweep_defense_space(genome, scrub_rates=(16,))
        assert again == points


# -- reports and elites -------------------------------------------------------


class TestFrontierReport:
    def test_attack_report_round_trip(self):
        report = attack_report(
            {"none": evolve(TINY)}, seed=0, params={"population": 3}
        )
        rebuilt = FrontierReport.from_json(report.to_json())
        assert rebuilt == report
        assert rebuilt.elite_genomes() == report.elite_genomes()

    def test_unsupported_format_rejected(self):
        report = attack_report({"none": evolve(TINY)}, seed=0, params={})
        broken = report.to_json().replace('"format": 1', '"format": 99')
        with pytest.raises(ValueError, match="frontier format"):
            FrontierReport.from_json(broken)

    def test_defense_report_has_no_elites(self):
        genome = random_genome(random.Random(0))
        report = defense_report(
            sweep_defense_space(genome, scrub_rates=(16,)),
            seed=0,
            params={},
        )
        with pytest.raises(ValueError, match="attack"):
            report.elite_genomes()
        assert "frontier" in report.render()

    def test_elites_replay_green_as_corpus_seeds(self, tmp_path):
        from repro.fuzzlab import replay

        report = attack_report({"none": evolve(TINY)}, seed=0, params={})
        paths = export_elites(report, tmp_path / "elites")
        assert len(paths) == len(report.entries)
        verdicts = replay([str(tmp_path / "elites")])
        assert verdicts
        assert all(verdict.ok for _, verdict in verdicts)

    def test_export_is_stable_across_reruns(self, tmp_path):
        report = attack_report({"none": evolve(TINY)}, seed=0, params={})
        first = export_elites(report, tmp_path / "a")
        second = export_elites(report, tmp_path / "b")
        for one, two in zip(first, second):
            assert one.name == two.name
            assert one.read_bytes() == two.read_bytes()
