"""The defense matrix — leakage versus overhead, per hardening profile.

One :class:`DefenseRow` summarizes a full fleet campaign executed under
one :class:`~repro.defense.profiles.DefenseConfig`: what still leaked
(success rates, nonzero residue bytes, the weight-theft probe, the
window-of-vulnerability hit rate) against what the defense cost
(teardown latency, sync/async scrub work, backlog left behind).
:class:`DefenseMatrix` collects the rows of one arena sweep, computes
leakage reduction against the baseline profile, serializes to JSON
(``repro defense sweep -o matrix.json`` / ``repro defense report``),
and renders both a fixed-width text table and a markdown table for the
docs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from repro.campaign.schedule import CampaignSpec, spec_from_dict
from repro.evaluation.metrics import leakage_reduction

_NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}
"""JSON-safe sentinel strings for the float values ``json.dumps`` would
otherwise emit as bare (invalid-JSON) tokens.  Rows built from
zero-victim runs or hand-computed rates can carry them; the round trip
preserves them explicitly instead of corrupting ``report.json``."""


def _encode_value(value: object) -> object:
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return "NaN"
        return "Infinity" if value > 0 else "-Infinity"
    return value


def _decode_value(value: object) -> object:
    if isinstance(value, str) and value in _NON_FINITE:
        return _NON_FINITE[value]
    return value


def _is_non_finite(value: float | None) -> bool:
    return value is not None and not math.isfinite(value)


HOST_TIME_COLUMNS = ("teardown_seconds", "wall_seconds")
"""The :class:`DefenseRow` columns that time the host.  Every other
column counts simulated work, a pure function of the sweep's spec,
profiles and scrape delay."""


@dataclass(frozen=True)
class DefenseRow:
    """One profile's leakage-vs-overhead summary across the fleet."""

    profile: str
    defenses: str
    """Human-readable axis summary (``DefenseConfig.describe()``)."""
    victims: int
    success_rate: float
    """Fraction of victims that leaked anything (model or image)."""
    identification_rate: float
    image_recovery_rate: float
    residue_bytes: int
    """Nonzero bytes recovered fleet-wide — the raw leakage."""
    bytes_scraped: int
    """Dump bytes read (scrubbed or not); the denominator of
    :attr:`residue_fraction`."""
    window_hit_rate: float
    """Fraction of victims scraped while residue still survived."""
    weight_theft_match: float | None
    """Match fraction of the fine-tuned-weight-theft probe under this
    profile (0.0 = private weights safe, 1.0 = fully stolen), or
    ``None`` when the sweep skipped the probe (rendered as ``-``)."""
    teardown_seconds: float
    """Total wall time the kernels spent terminating victims — where
    synchronous scrubbing charges its latency."""
    frames_scrubbed_sync: int
    frames_scrubbed_async: int
    scrub_backlog: int
    """Frames still waiting for the background scrubber when the
    campaign ended — residue a later attacker could still scrape."""
    wall_seconds: float

    @property
    def residue_fraction(self) -> float:
        """Recovered residue as a fraction of everything scraped."""
        if self.bytes_scraped == 0:
            return 0.0
        return self.residue_bytes / self.bytes_scraped


@dataclass
class DefenseMatrix:
    """Every profile of one arena sweep, ready to compare."""

    spec: CampaignSpec
    scrape_delay_ticks: int
    """Attacker latency between wave teardown and extraction — the
    scheduler ticks the async scrubber gets to close the window."""
    rows: list[DefenseRow]

    def row(self, profile: str) -> DefenseRow:
        """The row for *profile*; raises ``KeyError`` if absent."""
        for row in self.rows:
            if row.profile == profile:
                return row
        raise KeyError(f"no profile {profile!r} in matrix")

    @property
    def baseline(self) -> DefenseRow:
        """The undefended reference — the ``none`` row if present,
        else the first row of the sweep."""
        for row in self.rows:
            if row.profile == "none":
                return row
        return self.rows[0]

    def leakage_reduction_of(self, profile: str) -> float:
        """How much of the baseline's leaked residue *profile* removed."""
        return leakage_reduction(
            float(self.baseline.residue_bytes),
            float(self.row(profile).residue_bytes),
        )

    # -- rendering -----------------------------------------------------------

    _COLUMNS = (
        ("profile", "<22"),
        ("leak%", ">6"),
        ("ident%", ">6"),
        ("image%", ">6"),
        ("residue KiB", ">11"),
        ("window%", ">7"),
        ("weights%", ">8"),
        ("teardown ms", ">11"),
        ("scrub s/a", ">11"),
        ("backlog", ">7"),
    )

    @staticmethod
    def _percent(value: float | None) -> str:
        """A rate cell; ``None`` and non-finite rates render as ``-``.

        A ``nan%`` (or ``inf%``) in the table reads like data; an
        undefined rate — a zero-victim run, a degenerate sweep — is
        rendered as explicitly absent instead.
        """
        if value is None or _is_non_finite(value):
            return "-"
        return f"{value:.0%}"

    def _cells(self, row: DefenseRow) -> list[str]:
        return [
            row.profile,
            self._percent(row.success_rate),
            self._percent(row.identification_rate),
            self._percent(row.image_recovery_rate),
            f"{row.residue_bytes / 1024:.1f}",
            self._percent(row.window_hit_rate),
            self._percent(row.weight_theft_match),
            (
                "-"
                if _is_non_finite(row.teardown_seconds)
                else f"{row.teardown_seconds * 1000:.2f}"
            ),
            f"{row.frames_scrubbed_sync}/{row.frames_scrubbed_async}",
            str(row.scrub_backlog),
        ]

    def render(self) -> str:
        """The fixed-width table ``repro defense sweep`` prints."""
        lines = [
            "=== Defense matrix ===",
            (
                f"fleet: {self.spec.boards} boards, {self.spec.victims} "
                f"victims, seed {self.spec.seed}; attacker scrapes "
                f"{self.scrape_delay_ticks} tick(s) after teardown"
            ),
            " ".join(
                f"{title:{align}}" for title, align in self._COLUMNS
            ),
        ]
        for row in self.rows:
            lines.append(
                " ".join(
                    f"{cell:{align}}"
                    for cell, (_, align) in zip(
                        self._cells(row), self._COLUMNS
                    )
                )
            )
        baseline = self.baseline
        if baseline.residue_bytes:
            lines.append("")
            for row in self.rows:
                if row.profile == baseline.profile:
                    continue
                lines.append(
                    f"{row.profile}: "
                    f"{self.leakage_reduction_of(row.profile):.1%} of the "
                    f"baseline residue eliminated"
                )
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """The same matrix as a GitHub-flavored markdown table."""
        header = [title for title, _ in self._COLUMNS]
        lines = [
            "| " + " | ".join(header) + " |",
            "| " + " | ".join("---" for _ in header) + " |",
        ]
        for row in self.rows:
            lines.append("| " + " | ".join(self._cells(row)) + " |")
        return "\n".join(lines)

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        """Serialize the matrix (spec and all rows) to JSON.

        Non-finite rates are encoded as the explicit sentinel strings
        of :data:`_NON_FINITE` and ``allow_nan`` is off, so the output
        is always *valid* JSON — never a bare ``NaN`` token that only
        Python's parser accepts — and :meth:`from_json` restores the
        original floats exactly.
        """
        return json.dumps(
            {
                "spec": asdict(self.spec),
                "scrape_delay_ticks": self.scrape_delay_ticks,
                "rows": [
                    {
                        key: _encode_value(value)
                        for key, value in asdict(row).items()
                    }
                    for row in self.rows
                ],
            },
            indent=2,
            sort_keys=True,
            allow_nan=False,
        )

    @classmethod
    def from_json(cls, text: str) -> "DefenseMatrix":
        """Rebuild a matrix from :meth:`to_json` output."""
        payload = json.loads(text)
        return cls(
            spec=spec_from_dict(payload["spec"]),
            scrape_delay_ticks=payload["scrape_delay_ticks"],
            rows=[
                DefenseRow(
                    **{
                        key: _decode_value(value)
                        for key, value in record.items()
                    }
                )
                for record in payload["rows"]
            ],
        )
