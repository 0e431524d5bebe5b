"""Campaign results — per-victim outcomes rolled up to fleet stats.

:class:`CampaignReport` is the campaign analogue of the single-attack
:class:`~repro.attack.pipeline.AttackReport`: it keeps every
:class:`~repro.campaign.worker.VictimOutcome`, aggregates them per
model and per board, and renders one text summary.  Reports serialize
to JSON (spec included) so ``repro campaign run -o fleet.json`` and a
later ``repro campaign report fleet.json`` see identical numbers.  A
report records nothing of the host that ran it.

The breakdowns count straight from the outcomes, whatever their order:

>>> outcome = VictimOutcome(
...     job_id=0, board_index=0, board_name="ZCU104",
...     model_name="resnet50_pt", tenant_index=0, launch_wave=0,
...     pid=871, identified_model="resnet50_pt", pixel_match_rate=1.0,
...     nbytes=4096, devmem_reads=1, pages_read=1)
>>> report = CampaignReport(CampaignSpec(), [outcome])
>>> report.victims, report.success_rate
(1, 1.0)
>>> report.per_model()[0].identification_rate
1.0
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from repro.campaign.schedule import CampaignSpec, spec_from_dict
from repro.campaign.worker import VictimOutcome, outcome_from_dict


@dataclass(frozen=True)
class ModelBreakdown:
    """Aggregate outcomes for one model across the fleet."""

    model_name: str
    victims: int
    identified: int
    images_recovered: int

    @property
    def identification_rate(self) -> float:
        """Fraction of this model's victims correctly attributed."""
        return self.identified / self.victims if self.victims else 0.0


@dataclass(frozen=True)
class BoardBreakdown:
    """Aggregate outcomes for one fleet member."""

    board_index: int
    board_name: str
    victims: int
    succeeded: int
    nbytes: int
    devmem_reads: int


@dataclass
class CampaignReport:
    """Everything a finished campaign learned, fleet-wide."""

    spec: CampaignSpec
    outcomes: list[VictimOutcome]

    # -- fleet-level rates ---------------------------------------------------

    @property
    def victims(self) -> int:
        """Victims attacked (scheduled and attempted)."""
        return len(self.outcomes)

    @property
    def identification_rate(self) -> float:
        """Fraction of victims whose model was correctly attributed."""
        if not self.outcomes:
            return 0.0
        return sum(
            1 for outcome in self.outcomes if outcome.identified_correctly
        ) / len(self.outcomes)

    @property
    def image_recovery_rate(self) -> float:
        """Fraction of victims whose secret input was recovered."""
        if not self.outcomes:
            return 0.0
        return sum(
            1 for outcome in self.outcomes if outcome.image_recovered
        ) / len(self.outcomes)

    @property
    def success_rate(self) -> float:
        """Fraction of victims that leaked anything at all."""
        if not self.outcomes:
            return 0.0
        return sum(1 for outcome in self.outcomes if outcome.succeeded) / len(
            self.outcomes
        )

    @property
    def total_bytes(self) -> int:
        """Residue bytes scraped across the whole fleet."""
        return sum(outcome.nbytes for outcome in self.outcomes)

    @property
    def total_devmem_reads(self) -> int:
        """devmem invocations across the whole fleet."""
        return sum(outcome.devmem_reads for outcome in self.outcomes)

    # -- breakdowns ----------------------------------------------------------

    def per_model(self) -> list[ModelBreakdown]:
        """Outcome aggregates per model, sorted by model name."""
        by_model: dict[str, list[VictimOutcome]] = {}
        for outcome in self.outcomes:
            by_model.setdefault(outcome.model_name, []).append(outcome)
        return [
            ModelBreakdown(
                model_name=name,
                victims=len(group),
                identified=sum(o.identified_correctly for o in group),
                images_recovered=sum(o.image_recovered for o in group),
            )
            for name, group in sorted(by_model.items())
        ]

    def per_board(self) -> list[BoardBreakdown]:
        """Outcome aggregates per fleet member, by board index."""
        by_board: dict[int, list[VictimOutcome]] = {}
        for outcome in self.outcomes:
            by_board.setdefault(outcome.board_index, []).append(outcome)
        return [
            BoardBreakdown(
                board_index=index,
                board_name=group[0].board_name,
                victims=len(group),
                succeeded=sum(o.succeeded for o in group),
                nbytes=sum(o.nbytes for o in group),
                devmem_reads=sum(o.devmem_reads for o in group),
            )
            for index, group in sorted(by_board.items())
        ]

    def failures(self) -> list[VictimOutcome]:
        """Victims whose attack died mid-pipeline."""
        return [o for o in self.outcomes if o.failed_step is not None]

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """The fleet-wide text report ``repro campaign`` prints."""
        lines = [
            "=== Campaign report ===",
            (
                f"fleet: {self.spec.boards} boards "
                f"({', '.join(self.spec.board_names)}), "
                f"{self.victims} victims, "
                f"{self.spec.tenants_per_board} tenants/board, "
                f"wave size {self.spec.wave_size}, seed {self.spec.seed}"
            ),
            (
                f"success: {self.success_rate:.1%} overall "
                f"({self.identification_rate:.1%} models attributed, "
                f"{self.image_recovery_rate:.1%} images recovered)"
            ),
            f"devmem reads: {self.total_devmem_reads}",
            "",
            f"{'model':<18} {'victims':>7} {'identified':>10} {'images':>7}",
        ]
        for row in self.per_model():
            lines.append(
                f"{row.model_name:<18} {row.victims:>7} "
                f"{row.identified:>10} {row.images_recovered:>7}"
            )
        lines.append("")
        lines.append(
            f"{'board':<10} {'spec':<8} {'victims':>7} {'leaked':>7} "
            f"{'MiB':>8} {'reads':>8}"
        )
        for row in self.per_board():
            lines.append(
                f"board {row.board_index:<4} {row.board_name:<8} "
                f"{row.victims:>7} {row.succeeded:>7} "
                f"{row.nbytes / 1024**2:>8.1f} {row.devmem_reads:>8}"
            )
        failures = self.failures()
        if failures:
            lines.append("")
            lines.append(f"failures ({len(failures)}):")
            for outcome in failures:
                lines.append(
                    f"  job {outcome.job_id} ({outcome.model_name} on board "
                    f"{outcome.board_index}): {outcome.failed_step} — "
                    f"{outcome.detail}"
                )
        return "\n".join(lines)

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the report (spec and all outcomes) to JSON."""
        return json.dumps(
            {
                "spec": asdict(self.spec),
                "outcomes": [asdict(outcome) for outcome in self.outcomes],
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignReport":
        """Rebuild a report from :meth:`to_json` output, older ones too."""
        payload = json.loads(text)
        return cls(
            spec=spec_from_dict(payload["spec"]),
            outcomes=[
                outcome_from_dict(record) for record in payload["outcomes"]
            ],
        )
