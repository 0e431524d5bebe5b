"""The run directory — spec, journal, spool, telemetry, report.

A checkpointable campaign lives in one directory::

    <run_dir>/
      spec.json        the CampaignSpec the run was started with
      journal.jsonl    append-only outcome journal (one line per wave)
      spool/           content-addressed dump store (see spool.py)
      telemetry.json   real wall-clock numbers (non-canonical)
      report.json      the final CampaignReport, written at completion
      leases.json      per-board lease-epoch watermarks (fabric only)

**Journal format** — one JSON object per line, flushed and fsynced per
wave so a kill at any instant loses at most the wave in flight::

    {"type": "wave", "board": 1, "wave": 0, "outcomes": [...]}
    {"type": "board_complete", "board": 1}

**Canonical outcomes.**  A :class:`~repro.campaign.worker.VictimOutcome`
records no host timing: every field — pids, byte counts, scores, scrub
work, dump digests — is a pure function of the spec, so outcomes are
journaled as they come and an interrupted-and-resumed campaign
produces a ``report.json`` byte-identical to an uninterrupted one.
The run's wall clock lands in ``telemetry.json`` only.

**Resume unit = the board.**  Waves on one board share kernel state
(scheduler ticks, the frame allocator, pid numbering, DRAM residue),
so a wave cannot be replayed in isolation; boards are fully
independent simulations.  The journal therefore records per wave (for
progress observability — ``tail -f journal.jsonl``) but resume reuses
only boards whose ``board_complete`` marker landed, and re-runs the
rest from scratch — deterministically, because each board's simulation
is a pure function of ``(spec, board_index)``.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable

from repro.campaign.report import CampaignReport
from repro.campaign.schedule import (
    CampaignSpec,
    spec_from_dict,
    spec_to_dict,
)
from repro.campaign.runtime.spool import DumpSpool
from repro.campaign.worker import VictimOutcome, outcome_from_dict

SPEC_FORMAT = 1


@dataclass
class JournalState:
    """What a journal says happened so far."""

    complete_boards: set[int] = field(default_factory=set)
    outcomes_by_board: dict[int, list[VictimOutcome]] = field(
        default_factory=dict
    )
    journaled_outcomes: int = 0

    def reusable_outcomes(self) -> list[VictimOutcome]:
        """Outcomes of boards that finished — what resume keeps."""
        return [
            outcome
            for board in sorted(self.complete_boards)
            for outcome in self.outcomes_by_board.get(board, [])
        ]


class RunDirectory:
    """One checkpointable campaign's on-disk home."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self._root = Path(root)

    # -- creation / opening --------------------------------------------------

    @classmethod
    def create(
        cls, root: str | os.PathLike[str], spec: CampaignSpec
    ) -> "RunDirectory":
        """Initialize a fresh run directory for *spec*.

        Refuses a directory that already holds a campaign (resume it
        instead — silently restarting would orphan its journal).
        """
        run_dir = cls(root)
        if run_dir.spec_path.exists():
            raise ValueError(
                f"{run_dir._root} already holds a campaign "
                f"(spec.json exists); resume it or pick a fresh directory"
            )
        run_dir._root.mkdir(parents=True, exist_ok=True)
        run_dir.spec_path.write_text(
            json.dumps(
                {"format": SPEC_FORMAT, "spec": spec_to_dict(spec)},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        return run_dir

    @classmethod
    def open(cls, root: str | os.PathLike[str]) -> "RunDirectory":
        """Open an existing run directory (for resume or inspection)."""
        run_dir = cls(root)
        if not run_dir.spec_path.exists():
            raise FileNotFoundError(
                f"{run_dir._root} is not a run directory (no spec.json)"
            )
        return run_dir

    # -- paths ---------------------------------------------------------------

    @property
    def root(self) -> Path:
        """The run directory itself."""
        return self._root

    @property
    def spec_path(self) -> Path:
        """``spec.json`` — the campaign spec the run was started with."""
        return self._root / "spec.json"

    @property
    def journal_path(self) -> Path:
        """``journal.jsonl`` — the append-only outcome journal."""
        return self._root / "journal.jsonl"

    @property
    def report_path(self) -> Path:
        """``report.json`` — the canonical final report."""
        return self._root / "report.json"

    @property
    def telemetry_path(self) -> Path:
        """``telemetry.json`` — real wall-clock numbers, non-canonical."""
        return self._root / "telemetry.json"

    @property
    def lease_epochs_path(self) -> Path:
        """``leases.json`` — per-board lease-epoch watermarks.

        Fencing tokens must stay unique across *coordinator* restarts,
        not just within one coordinator's lifetime: a restarted
        coordinator that restarted epoch numbering from zero would
        re-issue a token some fenced-off worker still holds.  The
        fabric persists each board's highest issued epoch here and
        resumes numbering above it.
        """
        return self._root / "leases.json"

    @functools.cached_property
    def spool(self) -> DumpSpool:
        """The run's content-addressed dump store: one handle (one
        writer) per run directory object."""
        return DumpSpool(self._root / "spool")

    # -- spec ----------------------------------------------------------------

    def load_spec(self) -> CampaignSpec:
        """The spec this run was started with."""
        payload = json.loads(self.spec_path.read_text())
        if payload.get("format") != SPEC_FORMAT:
            raise ValueError(
                f"{self.spec_path}: unsupported format "
                f"{payload.get('format')!r} (expected {SPEC_FORMAT})"
            )
        return spec_from_dict(payload["spec"])

    # -- journal -------------------------------------------------------------

    def append_wave(
        self, board: int, wave: int, outcomes: list[VictimOutcome]
    ) -> None:
        """Journal one completed wave.

        The line is flushed and fsynced before returning, so a crash
        immediately after a wave never loses it.
        """
        line = json.dumps(
            {
                "type": "wave",
                "board": board,
                "wave": wave,
                "outcomes": [asdict(outcome) for outcome in outcomes],
            },
            sort_keys=True,
        )
        self._append_line(line)

    def mark_board_complete(self, board: int) -> None:
        """Journal that every wave of *board* has been recorded."""
        self._append_line(
            json.dumps({"type": "board_complete", "board": board})
        )

    def _append_line(self, line: str) -> None:
        with open(self.journal_path, "a+b") as handle:
            # A previous run killed mid-write can leave a torn final
            # line with no newline; terminate it first so the fragment
            # stays its own (skipped) line instead of corrupting this
            # record.  (Append mode: every write lands at the end.)
            handle.seek(0, os.SEEK_END)
            if handle.tell() > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
            handle.write(line.encode("utf-8") + b"\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load_journal(self) -> JournalState:
        """Replay the journal into a :class:`JournalState`.

        A truncated trailing line (crash mid-write) is ignored — the
        wave it described is simply re-run.  A job journaled twice
        (an interrupted attempt left partial waves, and the resume
        re-ran that board from scratch) is kept once: outcomes are
        deterministic, so the copies are identical and the first wins.
        """
        state = JournalState()
        if not self.journal_path.exists():
            return state
        seen_jobs: set[int] = set()
        for line in self.journal_path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn trailing write; its wave re-runs
            if record["type"] == "wave":
                outcomes = state.outcomes_by_board.setdefault(
                    record["board"], []
                )
                for payload in record["outcomes"]:
                    if payload["job_id"] in seen_jobs:
                        continue  # re-run of a partially journaled board
                    seen_jobs.add(payload["job_id"])
                    outcomes.append(outcome_from_dict(payload))
                    state.journaled_outcomes += 1
            elif record["type"] == "board_complete":
                state.complete_boards.add(record["board"])
        return state

    # -- lease epochs --------------------------------------------------------

    def load_lease_epochs(self) -> dict[int, int]:
        """Per-board epoch watermarks from a previous coordinator.

        Empty when the run never served leases (fresh directory, or a
        single-host run) — epoch numbering then starts at 1 as usual.
        An *empty file* is treated the same way: ``save_lease_epochs``
        never writes one (atomic rename), but a crashed pre-rename
        writer or an operator ``touch`` can leave one behind, and it
        carries the same information as no file at all.

        Anything else unreadable — torn JSON, a non-object payload,
        non-numeric entries — raises ``ValueError`` naming the file.
        Epochs are fencing tokens: silently treating a corrupt
        watermark file as empty would restart numbering at 1 and
        re-issue tokens some fenced-off worker may still hold, so
        corruption here must stop the resume, not be papered over.
        Entries for boards the spec no longer knows are preserved
        as-is; the fabric only consults watermarks for boards it
        actually leases, so stale extras are harmless.
        """
        if not self.lease_epochs_path.exists():
            return {}
        text = self.lease_epochs_path.read_text()
        if not text.strip():
            return {}
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict) or not isinstance(
                payload.get("epochs", {}), dict
            ):
                raise ValueError("payload is not an epochs object")
            return {
                int(board): int(epoch)
                for board, epoch in payload.get("epochs", {}).items()
            }
        except (json.JSONDecodeError, TypeError, ValueError) as error:
            raise ValueError(
                f"{self.lease_epochs_path}: corrupt lease-epoch "
                f"watermarks ({error}); refusing to resume — restarting "
                f"epoch numbering could re-issue a fencing token a "
                f"partitioned worker still holds.  Restore the file or "
                f"delete it only if no worker from the previous "
                f"coordinator can still be alive."
            ) from None

    def save_lease_epochs(self, epochs: dict[int, int]) -> None:
        """Persist the highest epoch issued per board (atomic rename).

        Written on every lease issue; the write-then-rename keeps a
        coordinator killed mid-save from leaving a torn file that a
        resume would misread as "no epochs ever issued".
        """
        tmp_path = self.lease_epochs_path.with_suffix(".json.tmp")
        tmp_path.write_text(
            json.dumps(
                {
                    "epochs": {
                        str(board): epoch
                        for board, epoch in sorted(epochs.items())
                    }
                },
                sort_keys=True,
            )
            + "\n"
        )
        os.replace(tmp_path, self.lease_epochs_path)

    # -- results -------------------------------------------------------------

    def write_report(
        self, spec: CampaignSpec, outcomes: Iterable[VictimOutcome]
    ) -> CampaignReport:
        """Build and persist the canonical report and spool manifest.

        Outcomes are sorted by ``job_id``.  Every completion path — the
        local :class:`~repro.campaign.runtime.runner.CampaignRuntime`
        and the distributed fabric coordinator — finishes here, so
        ``report.json`` and ``spool/manifest.json`` come out the same
        bytes however the campaign ran.  The manifest maps each job
        that produced a dump to its content digest.
        """
        ordered = sorted(outcomes, key=lambda outcome: outcome.job_id)
        report = CampaignReport(spec=spec, outcomes=ordered)
        self.report_path.write_text(report.to_json() + "\n")
        self.spool.write_manifest(
            [
                {
                    "job_id": outcome.job_id,
                    "board": outcome.board_index,
                    "wave": outcome.launch_wave,
                    "model": outcome.model_name,
                    "sha256": outcome.dump_sha256,
                    "nbytes": outcome.nbytes,
                }
                for outcome in ordered
                if outcome.dump_sha256 is not None
            ]
        )
        return report

    def write_telemetry(self, telemetry: dict) -> Path:
        """Persist the run's real (non-canonical) operational numbers."""
        self.telemetry_path.write_text(
            json.dumps(telemetry, indent=2, sort_keys=True) + "\n"
        )
        return self.telemetry_path
