"""Fitness functions — how the explorer scores an attacker genome.

Every fitness routes through the real stack.  The campaign fitnesses
lower the genome to a :class:`~repro.fuzzlab.scenario.Scenario`, run
it through :func:`repro.fuzzlab.evaluate_world` (the same campaign
engine the fuzzlab and arena drive), and pick one number off the
resulting :class:`~repro.fuzzlab.WorldEval`; ``weights`` runs the
arena's weight-theft probe under the same kernel instead.  Nothing is
simulated on the side, so a genome the search crowns champion is a
strategy the actual attack pipeline executes — and its exported
corpus seed replays green.

Three fitnesses map to the paper's three questions:

- ``residue``  — raw leaked bytes surviving teardown (table-2 axis);
- ``window``   — fraction of victims scraped inside the window of
  vulnerability (the race the async scrubber loses);
- ``weights``  — recovered fraction of a privately fine-tuned model's
  weights (the weight-theft escalation): the arena's probe alone, with
  no campaign, since nothing of the campaign enters the score.

:class:`GenomeEvaluator` memoizes by genome identity, so re-visited
genomes (elites, crossover duplicates) cost nothing — the counters it
keeps feed the bench lane and report provenance.
"""

from __future__ import annotations

from typing import Callable

from repro.defense.arena import prepare_weight_probe, probe_weight_theft
from repro.defense.profiles import DefenseConfig, defense_profile
from repro.explore.genome import AttackGenome
from repro.fuzzlab.runner import WorldEval, evaluate_world

FITNESS_FUNCTIONS: dict[str, Callable[[WorldEval], float]] = {
    "residue": lambda world: float(world.residue_bytes),
    "window": lambda world: world.window_hit_rate,
}
"""Campaign-only fitnesses: a pure projection of the world eval.
``weights`` is handled separately because it needs the probe."""

FITNESS_NAMES = ("residue", "weights", "window")
"""Every fitness the CLI accepts, alphabetical."""


class GenomeEvaluator:
    """Score genomes under one defense profile, memoizing by identity.

    The evaluator owns everything a fitness needs beyond the genome:
    the resolved :class:`DefenseConfig`, the input size, and (for
    ``weights``) the lazily-built offline probe half.  Scores are
    cached on :meth:`AttackGenome.key`, which makes re-evaluating an
    elite free and keeps the whole evolution's campaign count equal to
    the number of *distinct* genomes visited.
    """

    def __init__(
        self,
        fitness: str = "residue",
        profile: str | DefenseConfig = "none",
        input_hw: int = 16,
    ) -> None:
        if fitness not in FITNESS_NAMES:
            raise ValueError(
                f"unknown fitness {fitness!r}; choose from {FITNESS_NAMES}"
            )
        self.fitness = fitness
        self.profile = (
            profile
            if isinstance(profile, DefenseConfig)
            else defense_profile(profile)
        )
        self.input_hw = input_hw
        self.evaluations = 0
        self.cache_hits = 0
        self._scores: dict[tuple, float] = {}
        self._probe_prep = None

    def _weight_theft(self, genome: AttackGenome) -> float:
        if self._probe_prep is None:
            self._probe_prep = prepare_weight_probe(input_hw=self.input_hw)
        spec = genome.to_scenario(input_hw=self.input_hw).to_spec()
        return probe_weight_theft(
            self.profile.kernel_config(spec),
            input_hw=self.input_hw,
            delay_ticks=genome.delay_ticks,
            prepared=self._probe_prep,
        )

    def score(self, genome: AttackGenome) -> float:
        """The genome's fitness (higher is a stronger attack)."""
        key = genome.key()
        if key in self._scores:
            self.cache_hits += 1
            return self._scores[key]
        self.evaluations += 1
        if self.fitness == "weights":
            value = self._weight_theft(genome)
        else:
            world = evaluate_world(
                genome.to_scenario(input_hw=self.input_hw),
                defense=self.profile,
            )
            value = FITNESS_FUNCTIONS[self.fitness](world)
        self._scores[key] = value
        return value
