"""The pure analysis core: ``analyze_dump(buffer, config)``.

Everything the attack pipeline learns from a dump *after* extraction —
region map, residue count, entropy, model attribution — is a pure
function of the bytes.  This module factors that out of the simulated
world: no :class:`~repro.os.BoardSession`, no
:class:`~repro.attack.extraction.ScrapedDump`, just a buffer and a
config.  The service daemon calls it on uploaded dumps it never
simulated; the batch CLI (``repro analyze``) calls the very same
function, which is what makes the streamed-vs-batch byte-identity
contract testable at all.

Determinism rules, load-bearing for that contract:

- Floats are rounded to 6 decimal places at construction.  JSON
  round-trips such floats exactly, so a delta streamed over the wire
  and re-serialized equals the value computed locally, byte for byte.
- :class:`AnalysisReport` keys on the dump's sha256 and carve preset
  — not job ids, not arrival order.  Duplicate submissions collapse
  to one row and rows sort by that pair, so any interleaving of
  clients aggregates to the same bytes.
- Signature databases come from :func:`mine_database`, which routes
  through the campaign's memoized offline prep — same mix, same
  resolution, same database object.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.attack.carving import DumpCartographer, byte_stats
from repro.attack.identify import ModelIdentifier, SignatureDatabase
from repro.campaign.engine import prepare_offline_cached
from repro.campaign.schedule import CampaignSpec
from repro.errors import IdentificationError


@dataclass(frozen=True)
class CarvePreset:
    """A named :class:`~repro.attack.carving.DumpCartographer` config.

    Clients pick presets by name on the wire instead of shipping raw
    cartographer parameters — the server stays in control of what a
    "fine" scan costs.
    """

    name: str
    window: int
    text_threshold: float = 0.85
    random_entropy: float = 7.0
    quantized_max_alphabet: int = 48

    def cartographer(self) -> DumpCartographer:
        """Build the cartographer this preset describes."""
        return DumpCartographer(
            window=self.window,
            text_threshold=self.text_threshold,
            random_entropy=self.random_entropy,
            quantized_max_alphabet=self.quantized_max_alphabet,
        )


CARVE_PRESETS: dict[str, CarvePreset] = {
    preset.name: preset
    for preset in (
        CarvePreset(name="default", window=256),
        CarvePreset(name="fine", window=64),
        CarvePreset(name="coarse", window=1024),
    )
}
"""The carve configs a client may request by name."""


@dataclass(frozen=True)
class AnalysisConfig:
    """Everything :func:`analyze_dump` needs beyond the bytes."""

    database: SignatureDatabase
    carve: CarvePreset = CARVE_PRESETS["default"]
    min_score: float = 0.3


@dataclass(frozen=True)
class DumpAnalysis:
    """What one dump yielded — the unit the service streams as a delta.

    ``identified_model`` is ``None`` when attribution failed (scrubbed
    dump, unprofiled model) — that is a *result*, not an error: the
    defense matrix counts exactly these.
    """

    sha256: str
    nbytes: int
    residue_nbytes: int
    entropy: float
    printable_fraction: float
    region_count: int
    kind_bytes: dict[str, int]
    identified_model: str | None
    identification_score: float
    matched_tokens: int
    carve_preset: str

    def to_payload(self) -> dict:
        """A JSON-safe dict; the wire form of a report delta."""
        return {
            "sha256": self.sha256,
            "nbytes": self.nbytes,
            "residue_nbytes": self.residue_nbytes,
            "entropy": self.entropy,
            "printable_fraction": self.printable_fraction,
            "region_count": self.region_count,
            "kind_bytes": dict(self.kind_bytes),
            "identified_model": self.identified_model,
            "identification_score": self.identification_score,
            "matched_tokens": self.matched_tokens,
            "carve_preset": self.carve_preset,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DumpAnalysis":
        """Rebuild from :meth:`to_payload` output (the client side)."""
        return cls(
            sha256=payload["sha256"],
            nbytes=payload["nbytes"],
            residue_nbytes=payload["residue_nbytes"],
            entropy=payload["entropy"],
            printable_fraction=payload["printable_fraction"],
            region_count=payload["region_count"],
            kind_bytes=dict(payload["kind_bytes"]),
            identified_model=payload["identified_model"],
            identification_score=payload["identification_score"],
            matched_tokens=payload["matched_tokens"],
            carve_preset=payload["carve_preset"],
        )


def analyze_dump(buffer, config: AnalysisConfig) -> DumpAnalysis:
    """Characterize and attribute one raw dump buffer.

    Pure: the result depends only on the bytes of *buffer* and the
    *config* — no boards, no clocks, no global state beyond the memoized
    scan tables.  *buffer* may be bytes, bytearray, memoryview, or an
    mmap-backed spool object; nothing here copies it, and every scan
    of it walks fixed-size blocks, so its scratch memory does not grow
    with the dump.  Entropy, printable fraction and residue all come
    from one byte histogram.

    >>> from repro.service.analysis import CARVE_PRESETS
    >>> CARVE_PRESETS["fine"].window
    64
    """
    digest = hashlib.sha256(buffer).hexdigest()
    regions = config.carve.cartographer().map_dump(buffer)
    stats = byte_stats(buffer)
    totals = DumpCartographer.kind_totals(regions)
    identifier = ModelIdentifier(config.database, min_score=config.min_score)
    try:
        result = identifier.identify_buffer(buffer)
        identified = result.best_model
        score = result.scores[result.best_model]
        matched = len(result.matched_tokens)
    except IdentificationError:
        identified = None
        score = 0.0
        matched = 0
    return DumpAnalysis(
        sha256=digest,
        nbytes=len(buffer),
        residue_nbytes=stats.nonzero,
        entropy=round(stats.entropy, 6),
        printable_fraction=round(stats.printable_fraction, 6),
        region_count=len(regions),
        kind_bytes={
            kind.value: total for kind, total in sorted(
                totals.items(), key=lambda item: item[0].value
            ) if total
        },
        identified_model=identified,
        identification_score=round(score, 6),
        matched_tokens=matched,
        carve_preset=config.carve.name,
    )


class AnalysisReport:
    """Aggregate of :class:`DumpAnalysis` rows, keyed by digest and preset.

    The order-independence contract lives here: rows are deduplicated
    by ``(sha256, carve_preset)`` (last write wins — analyses of
    identical bytes under the same config are identical anyway) and
    serialized sorted by that pair with canonical JSON, so a report
    assembled from streamed deltas in any arrival order is
    byte-identical to one assembled by a batch run over the same
    dumps.  A dump analyzed under two presets keeps both rows; a
    single-preset report sorts by digest alone.
    """

    def __init__(self) -> None:
        self._rows: dict[tuple[str, str], DumpAnalysis] = {}

    def add(self, analysis: DumpAnalysis) -> None:
        """Fold one dump's analysis into the aggregate."""
        self._rows[analysis.sha256, analysis.carve_preset] = analysis

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> list[DumpAnalysis]:
        """All rows, sorted by digest, then carve preset."""
        return [self._rows[key] for key in sorted(self._rows)]

    def to_json(self) -> str:
        """Canonical serialization — the byte-identity anchor."""
        return json.dumps(
            {
                "dumps": [row.to_payload() for row in self.rows()],
                "total": len(self._rows),
            },
            sort_keys=True,
            indent=2,
        ) + "\n"

    def render(self) -> str:
        """Human-readable summary table, one line per row."""
        lines = [
            f"{'sha256':<16} {'preset':<7} {'bytes':>10} {'residue':>10}  "
            f"model"
        ]
        for row in self.rows():
            model = row.identified_model or "-"
            lines.append(
                f"{row.sha256[:16]:<16} {row.carve_preset:<7} "
                f"{row.nbytes:>10} {row.residue_nbytes:>10}  {model}"
            )
        dumps = len({digest for digest, _ in self._rows})
        lines.append(f"{dumps} dump(s) in {len(self._rows)} row(s)")
        return "\n".join(lines)


def mine_database(models: tuple[str, ...], input_hw: int) -> SignatureDatabase:
    """Mine a signature database for *models* at *input_hw* resolution.

    Routed through the campaign's memoized offline prep
    (:func:`~repro.campaign.engine.prepare_offline_cached`), so a
    daemon and a batch CLI run in the same process — or repeated
    requests for the same mix — share one profiling pass and, more
    importantly for byte-identity, one database object.
    """
    spec = CampaignSpec(
        boards=1, victims=1, model_mix=tuple(models), input_hw=input_hw
    )
    _, database = prepare_offline_cached(spec)
    return database
