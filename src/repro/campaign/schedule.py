"""Campaign specification and the deterministic victim scheduler.

A campaign is *N* boards times *M* victims: the scheduler decides
which board runs which model, under which tenant, in which launch
wave.  Everything is a pure function of :class:`CampaignSpec` — two
schedules built from equal specs are equal element for element, which
is what makes fleet experiments reproducible and lets the regression
tests pin exact assignments.

Victims on the same board and wave are *co-resident*: they are
launched together, live simultaneously (multi-tenant occupancy), and
terminate together before the next wave starts — the staggered
launch/terminate choreography one board of a busy cloud region sees.

Two equal specs always yield element-for-element equal schedules, and
a spec round-trips losslessly through :func:`spec_to_dict` /
:func:`spec_from_dict` — which is what lets the checkpointable runtime
rebuild the exact schedule from a run directory's ``spec.json`` and
lets multiprocess workers rebuild their own jobs from the spec alone:

>>> spec = CampaignSpec(boards=2, victims=4, seed=7)
>>> jobs = build_schedule(spec)
>>> [(j.job_id, j.board_index, j.launch_wave) for j in jobs]
[(0, 0, 0), (1, 1, 0), (2, 0, 0), (3, 1, 0)]
>>> build_schedule(spec_from_dict(spec_to_dict(spec))) == jobs
True
>>> sorted(jobs_by_board(jobs))
[0, 1]
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

from repro.vitis.zoo import MODEL_NAMES

DEFAULT_MODEL_MIX = ("resnet50_pt", "squeezenet_pt", "inception_v1_tf")


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that defines one fleet campaign.

    The spec is hashable and JSON-trivial so reports can embed it and
    a schedule can always be rebuilt from a report.
    """

    boards: int = 4
    victims: int = 8
    model_mix: tuple[str, ...] = DEFAULT_MODEL_MIX
    tenants_per_board: int = 2
    """Distinct victim-side users per board; co-resident victims cycle
    through them, so one wave genuinely spans user accounts."""
    wave_size: int = 2
    """Victims launched (and later terminated) together per board."""
    seed: int = 0
    input_hw: int = 32
    corruption_fraction: float = 0.2
    board_names: tuple[str, ...] = ("ZCU104", "ZCU102")
    coalesce_reads: bool = True
    """Campaigns default to the batched extraction hot path."""

    def __post_init__(self) -> None:
        if self.boards <= 0:
            raise ValueError(f"boards must be positive, got {self.boards}")
        if self.victims <= 0:
            raise ValueError(f"victims must be positive, got {self.victims}")
        if self.tenants_per_board <= 0:
            raise ValueError("tenants_per_board must be positive")
        if self.wave_size <= 0:
            raise ValueError("wave_size must be positive")
        if not self.model_mix:
            raise ValueError("model_mix cannot be empty")
        unknown = sorted(set(self.model_mix) - set(MODEL_NAMES))
        if unknown:
            raise ValueError(f"unknown models in mix: {unknown}")
        if not 0.0 <= self.corruption_fraction <= 1.0:
            raise ValueError("corruption_fraction must be in [0, 1]")


@dataclass(frozen=True)
class VictimJob:
    """One scheduled victim: where it runs, what it runs, when."""

    job_id: int
    board_index: int
    tenant_index: int
    launch_wave: int
    model_name: str
    image_seed: int
    corruption_fraction: float


def build_schedule(spec: CampaignSpec) -> list[VictimJob]:
    """Assign every victim a board, tenant, wave, model, and image.

    Boards are filled round-robin (even fleet utilization); the model
    and the secret-image seed come from one ``random.Random(seed)``
    stream, so a fixed spec seed reproduces the identical campaign.
    Returned jobs are ordered by ``job_id``.
    """
    rng = random.Random(spec.seed)
    jobs = []
    per_board_count = [0] * spec.boards
    for job_id in range(spec.victims):
        board_index = job_id % spec.boards
        sequence = per_board_count[board_index]
        per_board_count[board_index] += 1
        jobs.append(
            VictimJob(
                job_id=job_id,
                board_index=board_index,
                tenant_index=sequence % spec.tenants_per_board,
                launch_wave=sequence // spec.wave_size,
                model_name=rng.choice(spec.model_mix),
                image_seed=rng.randrange(1, 1 << 20),
                corruption_fraction=spec.corruption_fraction,
            )
        )
    return jobs


def jobs_by_board(jobs: list[VictimJob]) -> dict[int, list[VictimJob]]:
    """Group a schedule per board, preserving job order."""
    grouped: dict[int, list[VictimJob]] = {}
    for job in jobs:
        grouped.setdefault(job.board_index, []).append(job)
    return grouped


def spec_to_dict(spec: CampaignSpec) -> dict:
    """The spec as a JSON-trivial dict (tuples become lists)."""
    return asdict(spec)


def spec_from_dict(payload: dict) -> CampaignSpec:
    """Rebuild a spec from :func:`spec_to_dict` output (or its JSON).

    A ``max_workers`` key, written by older specs when the thread
    count was still a spec field, is dropped: placement never shaped
    the outcomes, so those reports and run directories load as-is.
    """
    fields = dict(payload)
    fields.pop("max_workers", None)
    for key in ("model_mix", "board_names"):
        fields[key] = tuple(fields[key])
    return CampaignSpec(**fields)
