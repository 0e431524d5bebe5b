"""Pareto-front discovery over the defense-configuration space.

The fixed named-profile sweep of ``repro defense sweep`` answers "how
do these five profiles compare?"; this module answers the harder
question the paper's defense discussion actually poses: *which
configurations are worth deploying at all?*  Every point in
:func:`repro.defense.defense_config_space` is evaluated against one
attacker scenario through the real campaign engine, scored on two
axes — bytes leaked and deployment overhead — and the non-dominated
set (no other config leaks less *and* costs less) is flagged as the
frontier.  Dominated configs are kept in the ranking for context but
marked; the frontier is what ``docs/defenses.md`` cites.

The overhead axis is a deterministic cost model, not wall-clock:
campaign outcomes record no host time, and a byte-reproducible
frontier could not stand on it.  Costs count
work the defense *causes* — frames scrubbed synchronously on the
teardown path, frames the background daemon scrubbed, plus flat
per-board charges for address-space randomization and hypervisor
pinning:

- ``SYNC_FRAME_COST``  (4) — a zero-on-free frame blocks teardown;
- ``ASYNC_FRAME_COST`` (1) — a daemon-scrubbed frame runs off-path;
- ``ASLR_OVERHEAD_PER_BOARD`` (64) — remap churn per hardened board;
- ``XEN_OVERHEAD_PER_BOARD`` (96) — a pinned Xen domain per board.

The generic :func:`pareto_front` (minimization over equal-length
objective tuples) is exposed on its own so the property tests can
hammer it with synthetic points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.defense.profiles import (
    DEFAULT_SCRUB_RATES,
    DefenseConfig,
    SanitizePolicy,
    XenPolicy,
    defense_config_space,
)
from repro.explore.genome import AttackGenome
from repro.fuzzlab.runner import WorldEval, evaluate_world

SYNC_FRAME_COST = 4
ASYNC_FRAME_COST = 1
ASLR_OVERHEAD_PER_BOARD = 64
XEN_OVERHEAD_PER_BOARD = 96


def dominates(
    first: Sequence[float], second: Sequence[float]
) -> bool:
    """True if *first* Pareto-dominates *second* (minimization).

    Dominance requires no-worse on every objective and strictly
    better on at least one; equal points do not dominate each other.
    """
    if len(first) != len(second):
        raise ValueError(
            f"objective arity mismatch: {len(first)} vs {len(second)}"
        )
    no_worse = all(a <= b for a, b in zip(first, second))
    return no_worse and any(a < b for a, b in zip(first, second))


def pareto_front(points: Sequence[Sequence[float]]) -> tuple[bool, ...]:
    """Per-point membership flags for the non-dominated set.

    Quadratic scan — config spaces here are tens of points, and the
    simple algorithm is obviously correct, which matters more for a
    module whose output is cited as ground truth.
    """
    flags = []
    for i, candidate in enumerate(points):
        dominated = any(
            dominates(other, candidate)
            for j, other in enumerate(points)
            if j != i
        )
        flags.append(not dominated)
    return tuple(flags)


def deployment_overhead(
    config: DefenseConfig, world: WorldEval, boards: int = 1
) -> int:
    """Deterministic cost units one config spent defending *world*."""
    cost = (
        world.frames_scrubbed_sync * SYNC_FRAME_COST
        + world.frames_scrubbed_async * ASYNC_FRAME_COST
    )
    if config.physical_aslr or config.virtual_aslr:
        cost += ASLR_OVERHEAD_PER_BOARD * boards
    if config.xen is not XenPolicy.NONE:
        cost += XEN_OVERHEAD_PER_BOARD * boards
    return cost


@dataclass(frozen=True)
class DefensePoint:
    """One evaluated defense configuration."""

    config: DefenseConfig
    leakage_bytes: int
    overhead: int
    window_hit_rate: float
    success_rate: float
    on_front: bool

    @property
    def objectives(self) -> tuple[int, int]:
        return (self.leakage_bytes, self.overhead)


def sweep_defense_space(
    genome: AttackGenome,
    input_hw: int = 16,
    scrub_rates: tuple[int, ...] = DEFAULT_SCRUB_RATES,
) -> tuple[DefensePoint, ...]:
    """Evaluate the whole config space against one attacker genome.

    Returns every point ranked frontier-first, then by (leakage,
    overhead, name) — a total, deterministic order.  The attacker is
    held fixed across configs (same genome, same campaign schedule),
    so points differ only in the defense, exactly like arena rows.
    """
    scenario = genome.to_scenario(input_hw=input_hw)
    evaluated = []
    for config in defense_config_space(scrub_rates):
        world = evaluate_world(scenario, defense=config)
        evaluated.append(
            (
                config,
                world.residue_bytes,
                deployment_overhead(config, world, boards=genome.boards),
                world,
            )
        )
    flags = pareto_front(
        [(leak, cost) for _, leak, cost, _ in evaluated]
    )
    points = [
        DefensePoint(
            config=config,
            leakage_bytes=leak,
            overhead=cost,
            window_hit_rate=world.window_hit_rate,
            success_rate=world.success_rate,
            on_front=flag,
        )
        for (config, leak, cost, world), flag in zip(evaluated, flags)
    ]
    points.sort(
        key=lambda p: (
            not p.on_front,
            p.leakage_bytes,
            p.overhead,
            p.config.name,
        )
    )
    return tuple(points)


def describe_axes(config: DefenseConfig) -> dict:
    """JSON-friendly axis values for one config (report rows)."""
    return {
        "sanitize": config.sanitize_policy.name.lower(),
        "scrub_rate_per_tick": (
            config.scrub_rate_per_tick
            if config.sanitize_policy is SanitizePolicy.SCRUB_POOL
            else None
        ),
        "physical_aslr": config.physical_aslr,
        "virtual_aslr": config.virtual_aslr,
        "xen": config.xen.name.lower(),
    }
