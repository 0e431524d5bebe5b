"""Tests for the checkpointable, process-parallel campaign runtime.

The acceptance claims, pinned:

- a campaign interrupted mid-run and resumed yields a ``report.json``
  **byte-identical** to an uninterrupted run's, on both executors (and
  even when the resume uses a different executor than the interrupted
  run);
- the in-process and multiprocess executors produce identical
  reports;
- every scraped dump lands in the content-addressed spool and no dump
  object survives the campaign in memory (the flat-memory property);
- the journal survives torn writes, and board-completion markers bound
  what resume may reuse.
"""

import gc
import json
import threading
import weakref
from dataclasses import asdict

import pytest

from repro.attack.extraction import ScrapedDump
from repro.campaign import (
    CampaignReport,
    CampaignRuntime,
    CampaignSpec,
    DumpSpool,
    RunDirectory,
    run_campaign,
    spec_from_dict,
    spec_to_dict,
)
from repro.campaign.runtime import (
    InProcessExecutor,
    MultiprocessExecutor,
    resolve_executor,
)
from repro.campaign.worker import BoardEnd, VictimOutcome, outcome_from_dict
from repro.errors import CampaignInterrupted

SPEC = CampaignSpec(boards=3, victims=9, seed=5)

LEGACY_TIMINGS = {"wall_seconds": 0.25, "teardown_seconds": 0.002}
"""The two host-timing keys of outcome records written before they went."""


class TestSpool:
    def _dump(self, data: bytes) -> ScrapedDump:
        return ScrapedDump(
            pid=1,
            heap_start=0,
            data=data,
            pages_read=1,
            pages_skipped=0,
            devmem_reads=1,
        )

    def test_round_trip(self, tmp_path):
        spool = DumpSpool(tmp_path / "spool")
        entry = spool.put(self._dump(b"leaked bytes"))
        assert spool.read(entry.sha256) == b"leaked bytes"
        assert entry.sha256 in spool
        assert not entry.deduplicated

    def test_concurrent_same_digest_puts_from_threads(self, tmp_path):
        """Board threads share one pid; racing on one digest must not
        crash either writer (the all-zero-residue case)."""
        import threading

        spool = DumpSpool(tmp_path / "spool")
        dump = self._dump(b"\x00" * 65536)
        errors: list[Exception] = []

        def hammer() -> None:
            try:
                for _ in range(50):
                    spool.put(dump)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert spool.read(dump.sha256) == dump.data
        assert len(spool.digests()) == 1

    def test_content_addressing_dedupes(self, tmp_path):
        spool = DumpSpool(tmp_path / "spool")
        first = spool.put(self._dump(b"\x00" * 4096))
        second = spool.put(self._dump(b"\x00" * 4096))
        assert first.sha256 == second.sha256
        assert second.deduplicated
        assert len(spool.digests()) == 1
        assert spool.total_bytes() == 4096

    def test_digest_matches_dump_property(self, tmp_path):
        dump = self._dump(b"abc")
        assert DumpSpool(tmp_path).put(dump).sha256 == dump.sha256

    def test_missing_digest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DumpSpool(tmp_path).read("0" * 64)

    def test_manifest_round_trip(self, tmp_path):
        spool = DumpSpool(tmp_path)
        records = [{"job_id": 0, "sha256": "f" * 64, "nbytes": 12}]
        spool.write_manifest(records)
        assert spool.load_manifest() == records


class TestRunDirectory:
    def test_create_then_open_preserves_spec(self, tmp_path):
        RunDirectory.create(tmp_path / "run", SPEC)
        assert RunDirectory.open(tmp_path / "run").load_spec() == SPEC

    def test_create_refuses_existing_run(self, tmp_path):
        RunDirectory.create(tmp_path / "run", SPEC)
        with pytest.raises(ValueError, match="already holds a campaign"):
            RunDirectory.create(tmp_path / "run", SPEC)

    def test_open_refuses_non_run_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RunDirectory.open(tmp_path / "nowhere")

    def _outcome(self, job_id: int, wave: int = 0) -> VictimOutcome:
        return VictimOutcome(
            job_id=job_id,
            board_index=0,
            board_name="ZCU104",
            model_name="resnet50_pt",
            tenant_index=0,
            launch_wave=wave,
            pid=800 + job_id,
            identified_model="resnet50_pt",
            pixel_match_rate=1.0,
            nbytes=4096,
            devmem_reads=1,
            pages_read=1,
        )

    def test_journal_round_trip(self, tmp_path):
        run = RunDirectory.create(tmp_path / "run", SPEC)
        run.append_wave(0, 0, [self._outcome(0), self._outcome(1)])
        run.append_wave(0, 1, [self._outcome(2, wave=1)])
        run.mark_board_complete(0)
        state = run.load_journal()
        assert state.complete_boards == {0}
        assert state.journaled_outcomes == 3
        assert [o.job_id for o in state.reusable_outcomes()] == [0, 1, 2]

    def test_incomplete_board_not_reusable(self, tmp_path):
        run = RunDirectory.create(tmp_path / "run", SPEC)
        run.append_wave(1, 0, [self._outcome(4)])
        state = run.load_journal()
        assert state.complete_boards == set()
        assert state.reusable_outcomes() == []
        assert state.journaled_outcomes == 1

    def test_torn_trailing_write_is_ignored(self, tmp_path):
        run = RunDirectory.create(tmp_path / "run", SPEC)
        run.append_wave(0, 0, [self._outcome(0)])
        with open(run.journal_path, "a") as handle:
            handle.write('{"type": "wave", "board": 0, "wa')  # kill -9 here
        state = run.load_journal()
        assert state.journaled_outcomes == 1

    def test_append_after_torn_write_does_not_glue(self, tmp_path):
        """A resume appending onto a torn tail must not corrupt its record."""
        run = RunDirectory.create(tmp_path / "run", SPEC)
        run.append_wave(0, 0, [self._outcome(0)])
        with open(run.journal_path, "a") as handle:
            handle.write('{"type": "wave", "board": 1, "wa')  # kill -9 here
        run.append_wave(1, 0, [self._outcome(4)])
        run.mark_board_complete(1)
        state = run.load_journal()
        assert state.journaled_outcomes == 2
        assert state.complete_boards == {1}
        assert [o.job_id for o in state.reusable_outcomes()] == [4]

    def test_specs_with_a_thread_count_still_load(self, tmp_path):
        """Reports, defense matrices, run directories and fabric
        ``hello`` payloads from before the thread count left the spec
        carry ``max_workers``; every loader goes through
        ``spec_from_dict``, which drops it."""
        from repro.defense.matrix import DefenseMatrix

        legacy = {**spec_to_dict(SPEC), "max_workers": 1}
        assert spec_from_dict(legacy) == SPEC
        assert "max_workers" not in spec_to_dict(SPEC)

        for artifact in (
            CampaignReport(spec=SPEC, outcomes=[]),
            DefenseMatrix(spec=SPEC, scrape_delay_ticks=0, rows=[]),
        ):
            payload = json.loads(artifact.to_json())
            payload["spec"] = legacy
            assert type(artifact).from_json(json.dumps(payload)).spec == SPEC

        run = RunDirectory.create(tmp_path / "run", SPEC)
        stored = json.loads(run.spec_path.read_text())
        stored["spec"] = legacy
        run.spec_path.write_text(json.dumps(stored))
        assert RunDirectory.open(run.root).load_spec() == SPEC

    def test_journals_with_host_timings_still_resume(self, tmp_path):
        """Journals written while outcomes still carried
        ``wall_seconds`` and ``teardown_seconds`` resume to the same
        ``report.json`` as a fresh run.  One thread makes board 0
        finish before the interrupt, so resume reuses its legacy
        records."""
        sequential = InProcessExecutor(max_workers=1)
        CampaignRuntime(SPEC, tmp_path / "full", executor=sequential).run()
        crashed = RunDirectory.create(tmp_path / "crashed", SPEC)
        with pytest.raises(CampaignInterrupted):
            CampaignRuntime(
                SPEC, crashed, executor=sequential, interrupt_after=4
            ).run()
        lines = []
        for line in crashed.journal_path.read_text().splitlines():
            record = json.loads(line)
            for outcome in record.get("outcomes", []):
                outcome.update(LEGACY_TIMINGS)
            lines.append(json.dumps(record, sort_keys=True))
        crashed.journal_path.write_text("\n".join(lines) + "\n")
        assert 0 in crashed.load_journal().complete_boards
        CampaignRuntime.resume(crashed.root).run()
        assert crashed.report_path.read_bytes() == (
            tmp_path / "full" / "report.json"
        ).read_bytes()

    def test_reports_with_host_timings_still_load(self):
        report = CampaignReport(
            spec=SPEC, outcomes=[self._outcome(0), self._outcome(1)]
        )
        payload = json.loads(report.to_json())
        payload["wall_seconds"] = 1.5
        for record in payload["outcomes"]:
            record.update(LEGACY_TIMINGS)
        rebuilt = CampaignReport.from_json(json.dumps(payload))
        assert rebuilt.to_json() == report.to_json()

    def test_records_with_other_unknown_keys_still_raise(self, tmp_path):
        record = {**asdict(self._outcome(0)), **LEGACY_TIMINGS}
        assert outcome_from_dict(record) == self._outcome(0)
        record["cpu_seconds"] = 1.0
        with pytest.raises(TypeError, match="cpu_seconds"):
            outcome_from_dict(record)
        payload = json.loads(
            CampaignReport(spec=SPEC, outcomes=[]).to_json()
        )
        payload["outcomes"] = [record]
        with pytest.raises(TypeError, match="cpu_seconds"):
            CampaignReport.from_json(json.dumps(payload))
        run = RunDirectory.create(tmp_path / "run", SPEC)
        line = {"type": "wave", "board": 0, "wave": 0, "outcomes": [record]}
        run.journal_path.write_text(json.dumps(line) + "\n")
        with pytest.raises(TypeError, match="cpu_seconds"):
            run.load_journal()


class TestLeaseEpochWatermarks:
    """Edge cases of ``RunDirectory`` reading ``leases.json``.

    Epochs are fencing tokens, so the reader's contract is asymmetric:
    *absence* of information (no file, empty file) safely means "no
    epochs ever issued", but *unreadable* information must stop the
    resume — restarting epoch numbering could re-issue a token a
    partitioned worker still holds.
    """

    def _run(self, tmp_path):
        return RunDirectory.create(tmp_path / "run", SPEC)

    def test_missing_file_means_no_epochs(self, tmp_path):
        assert self._run(tmp_path).load_lease_epochs() == {}

    def test_empty_file_means_no_epochs(self, tmp_path):
        run = self._run(tmp_path)
        run.lease_epochs_path.write_text("")
        assert run.load_lease_epochs() == {}

    def test_whitespace_only_file_means_no_epochs(self, tmp_path):
        run = self._run(tmp_path)
        run.lease_epochs_path.write_text("\n  \n")
        assert run.load_lease_epochs() == {}

    def test_round_trip(self, tmp_path):
        run = self._run(tmp_path)
        run.save_lease_epochs({0: 3, 2: 7})
        assert run.load_lease_epochs() == {0: 3, 2: 7}

    def test_torn_final_line_refuses_resume(self, tmp_path):
        run = self._run(tmp_path)
        run.save_lease_epochs({0: 3, 1: 5})
        text = run.lease_epochs_path.read_text()
        # A non-atomic writer killed mid-write: valid prefix, torn tail.
        run.lease_epochs_path.write_text(text[: len(text) // 2])
        with pytest.raises(ValueError, match="corrupt lease-epoch"):
            run.load_lease_epochs()

    def test_non_object_payload_refuses_resume(self, tmp_path):
        run = self._run(tmp_path)
        run.lease_epochs_path.write_text('[1, 2, 3]\n')
        with pytest.raises(ValueError, match="corrupt lease-epoch"):
            run.load_lease_epochs()

    def test_non_numeric_epoch_refuses_resume(self, tmp_path):
        run = self._run(tmp_path)
        run.lease_epochs_path.write_text(
            '{"epochs": {"0": "three"}}\n'
        )
        with pytest.raises(ValueError, match="corrupt lease-epoch"):
            run.load_lease_epochs()

    def test_unknown_board_entries_are_preserved(self, tmp_path):
        # SPEC has 3 boards (0..2); board 99 is from an older, wider
        # spec.  The reader keeps it — the fabric only consults
        # watermarks for boards it actually leases.
        run = self._run(tmp_path)
        run.save_lease_epochs({0: 2, 99: 11})
        epochs = run.load_lease_epochs()
        assert epochs == {0: 2, 99: 11}


DEFENDED_SPEC = CampaignSpec(boards=8, victims=16, seed=5)


def _run_defended(executor: str, processes: int | None = None):
    """Run DEFENDED_SPEC under ``scrub_pool`` with a 2-tick scrape delay;
    return its report JSON and each board's async-scrub counters."""
    from repro.defense import defense_profile

    ends: dict[int, BoardEnd] = {}
    report = run_campaign(
        DEFENDED_SPEC,
        kernel_config=defense_profile("scrub_pool").kernel_config(
            DEFENDED_SPEC
        ),
        scrape_delay_ticks=2,
        executor=executor,
        processes=processes,
        on_board_complete=ends.__setitem__,
    )
    counters = {
        board: (end.frames_scrubbed_async, end.scrub_backlog)
        for board, end in ends.items()
    }
    return report.to_json(), counters


class TestExecutorEquivalence:
    def test_multiprocess_matches_inprocess(self):
        inproc = run_campaign(SPEC, executor="inprocess")
        multi = run_campaign(SPEC, executor="multiprocess", processes=2)
        assert inproc.to_json() == multi.to_json()

    def test_process_count_does_not_change_outcomes(self):
        one = run_campaign(SPEC, executor="multiprocess", processes=1)
        three = run_campaign(SPEC, executor="multiprocess", processes=3)
        assert one.to_json() == three.to_json()

    def test_inprocess_runs_every_board_on_one_thread(self):
        """The default in-process executor runs the boards one after
        another on one worker thread, and reports what four threads do."""
        spec = CampaignSpec(boards=4, victims=8, seed=5)
        threads: list[int] = []

        def record_thread(board: int, end: BoardEnd) -> None:
            threads.append(threading.get_ident())

        one = run_campaign(
            spec, executor=InProcessExecutor(), on_board_complete=record_thread
        )
        assert len(threads) == spec.boards
        assert len(set(threads)) == 1
        assert threads[0] != threading.get_ident()
        four = run_campaign(spec, executor=InProcessExecutor(max_workers=4))
        assert one.to_json() == four.to_json()

    def test_resolve_auto_small_fleet_is_threads(self):
        chosen = resolve_executor(SPEC, "auto")
        assert isinstance(chosen, InProcessExecutor)

    def test_resolve_auto_large_fleet_is_processes(self):
        large = CampaignSpec(boards=8, victims=8)
        assert isinstance(resolve_executor(large, "auto"), MultiprocessExecutor)

    def test_auto_places_a_defended_campaign_by_fleet_size(self):
        """``auto`` ignores the defense: an 8-board ``scrub_pool``
        campaign with a scrape delay goes multiprocess, as an
        undefended one does, and matches the in-process report and
        per-board scrub counters."""
        assert isinstance(
            resolve_executor(DEFENDED_SPEC, "auto"), MultiprocessExecutor
        )
        inproc = _run_defended("inprocess")
        assert sorted(inproc[1]) == list(range(DEFENDED_SPEC.boards))
        assert any(frames for frames, _ in inproc[1].values())
        assert _run_defended("auto") == inproc

    def test_multiprocess_runs_a_defended_campaign(self):
        """A scrape delay is plain data, so the multiprocess executor
        takes a defended campaign: on one or two processes it gives the
        in-process report and per-board scrub counters (host seconds
        aside)."""
        inproc = _run_defended("inprocess")
        assert any(frames for frames, _ in inproc[1].values())
        assert _run_defended("multiprocess", processes=1) == inproc
        assert _run_defended("multiprocess", processes=2) == inproc

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            resolve_executor(SPEC, "distributed")

    def test_custom_database_ships_to_multiprocess_workers(self):
        """A hand-tuned database reaches the shards and changes nothing.

        Workers used to re-mine their own database from the shipped
        profiles (so a custom one was refused); now each shard gets the
        caller's database object (inherited by fork, or unpickled), and
        both executors must score against the *same* database — custom
        or not.
        """
        from repro.attack.identify import SignatureDatabase
        from repro.campaign import prepare_offline

        profiles, database = prepare_offline(SPEC)
        assert isinstance(database, SignatureDatabase)
        inproc = run_campaign(
            SPEC, profiles=profiles, database=database, executor="inprocess"
        )
        multi = run_campaign(
            SPEC,
            profiles=profiles,
            database=database,
            executor="multiprocess",
            processes=2,
        )
        assert inproc.to_json() == multi.to_json()

    def test_auto_with_custom_database_goes_multiprocess(self):
        """The documented prep-reuse pattern keeps working at any fleet
        size: 'auto' no longer needs an in-process fallback for a
        custom database, because the shards get the caller's object."""
        from repro.campaign import prepare_offline
        from repro.campaign.runtime.executors import (
            MULTIPROCESS_AUTO_BOARDS,
        )

        spec = CampaignSpec(
            boards=MULTIPROCESS_AUTO_BOARDS,
            victims=MULTIPROCESS_AUTO_BOARDS,
            seed=2,
        )
        profiles, database = prepare_offline(spec)
        assert isinstance(
            resolve_executor(spec, "auto"), MultiprocessExecutor
        )
        report = run_campaign(spec, profiles=profiles, database=database)
        assert report.victims == spec.victims

    def test_silently_dying_workers_fail_fast(self, monkeypatch):
        """A shard killed before its loop must not hang the run."""
        import os as os_module

        from repro.campaign.runtime import executors
        from repro.campaign.runtime.executors import CampaignExecutionError

        monkeypatch.setattr(
            executors,
            "_run_shard",
            lambda *args: os_module._exit(1),
        )
        with pytest.raises(CampaignExecutionError, match="without"):
            run_campaign(SPEC, executor="multiprocess", processes=2)


class TestCheckpointResume:
    def _uninterrupted(self, tmp_path, **kwargs):
        return CampaignRuntime(
            SPEC, tmp_path / "full", **kwargs
        ).run()

    @pytest.mark.parametrize("executor", ["inprocess", "multiprocess"])
    def test_interrupt_then_resume_is_byte_identical(self, tmp_path, executor):
        full = self._uninterrupted(tmp_path, executor=executor, processes=2)
        with pytest.raises(CampaignInterrupted):
            CampaignRuntime(
                SPEC,
                tmp_path / "crashed",
                executor=executor,
                processes=2,
                interrupt_after=3,
            ).run()
        resumed = CampaignRuntime.resume(
            tmp_path / "crashed", executor=executor, processes=2
        ).run()
        assert resumed.to_json() == full.to_json()
        assert (tmp_path / "crashed" / "report.json").read_bytes() == (
            tmp_path / "full" / "report.json"
        ).read_bytes()

    def test_resume_across_executors(self, tmp_path):
        full = self._uninterrupted(tmp_path)
        with pytest.raises(CampaignInterrupted):
            CampaignRuntime(
                SPEC,
                tmp_path / "crashed",
                executor="multiprocess",
                processes=2,
                interrupt_after=2,
            ).run()
        resumed = CampaignRuntime.resume(
            tmp_path / "crashed", executor="inprocess"
        ).run()
        assert resumed.to_json() == full.to_json()

    def test_checkpointed_report_is_timing_free(self, tmp_path):
        self._uninterrupted(tmp_path)
        payload = json.loads((tmp_path / "full" / "report.json").read_text())
        keys = {*payload, *payload["spec"]}
        keys.update(key for record in payload["outcomes"] for key in record)
        assert not [key for key in keys if key.endswith("_seconds")]

    def test_checkpointed_matches_plain_spooled_run(self, tmp_path):
        self._uninterrupted(tmp_path)
        plain = run_campaign(SPEC, spool=DumpSpool(tmp_path / "spool"))
        assert (plain.to_json() + "\n").encode() == (
            tmp_path / "full" / "report.json"
        ).read_bytes()

    def test_interrupt_preserves_journal_and_telemetry(self, tmp_path):
        with pytest.raises(CampaignInterrupted):
            CampaignRuntime(
                SPEC, tmp_path / "run", interrupt_after=1
            ).run()
        run = RunDirectory.open(tmp_path / "run")
        assert run.load_journal().journaled_outcomes >= 1
        telemetry = json.loads(run.telemetry_path.read_text())
        assert telemetry["complete"] is False
        assert not run.report_path.exists()

    def test_resume_reuses_complete_boards(self, tmp_path):
        with pytest.raises(CampaignInterrupted):
            CampaignRuntime(
                SPEC, tmp_path / "run", interrupt_after=6
            ).run()
        before = RunDirectory.open(tmp_path / "run").load_journal()
        CampaignRuntime.resume(tmp_path / "run").run()
        telemetry = json.loads(
            (tmp_path / "run" / "telemetry.json").read_text()
        )
        assert telemetry["complete"] is True
        assert telemetry["boards_reused"] == sorted(before.complete_boards)
        assert telemetry["outcomes_reused"] == len(
            before.reusable_outcomes()
        )

    def test_double_interrupt_does_not_duplicate_outcomes(self, tmp_path):
        """An interrupted resume re-journals a board's waves; the next
        resume must keep each job once, not once per attempt.

        Sequential boards (one thread) make the choreography exact:
        attempt 1 leaves board 0 partially journaled (wave 0 only);
        attempt 2 re-journals board 0 fully — its wave-0 outcomes now
        appear twice — and crashes on board 1; attempt 3 reuses
        board 0 straight from the journal.
        """
        spec = CampaignSpec(boards=3, victims=9, seed=5)
        sequential = InProcessExecutor(max_workers=1)
        full = CampaignRuntime(
            spec, tmp_path / "full", executor=sequential
        ).run()
        crash_dir = tmp_path / "crashed"
        with pytest.raises(CampaignInterrupted):
            CampaignRuntime(
                spec, crash_dir, executor=sequential, interrupt_after=1
            ).run()
        with pytest.raises(CampaignInterrupted):
            CampaignRuntime.resume(
                crash_dir, executor=sequential, interrupt_after=4
            ).run()
        journal = RunDirectory.open(crash_dir).load_journal()
        assert 0 in journal.complete_boards  # the scenario is armed
        resumed = CampaignRuntime.resume(crash_dir, executor=sequential).run()
        assert resumed.victims == spec.victims
        assert resumed.to_json() == full.to_json()

    def test_interrupt_stops_every_board_thread(self, tmp_path):
        """Once one board thread interrupts, the others journal nothing
        more: only the wave that crossed the threshold may overshoot it."""
        spec = CampaignSpec(boards=4, victims=12)
        threads = InProcessExecutor(max_workers=4)
        CampaignRuntime(spec, tmp_path / "full", executor=threads).run()
        with pytest.raises(CampaignInterrupted):
            CampaignRuntime(
                spec, tmp_path / "crashed", executor=threads, interrupt_after=5
            ).run()
        journal = RunDirectory.open(tmp_path / "crashed").load_journal()
        assert 5 <= journal.journaled_outcomes <= 5 + spec.wave_size - 1
        CampaignRuntime.resume(tmp_path / "crashed", executor=threads).run()
        assert (tmp_path / "crashed" / "report.json").read_bytes() == (
            tmp_path / "full" / "report.json"
        ).read_bytes()

    def test_resume_of_finished_run_reuses_everything(self, tmp_path):
        first = self._uninterrupted(tmp_path)
        again = CampaignRuntime.resume(tmp_path / "full").run()
        assert again.to_json() == first.to_json()
        telemetry = json.loads(
            (tmp_path / "full" / "telemetry.json").read_text()
        )
        assert telemetry["outcomes_journaled_this_run"] == 0


class TestSpoolIntegration:
    def test_every_successful_outcome_is_spooled(self, tmp_path):
        runtime = CampaignRuntime(SPEC, tmp_path / "run")
        report = runtime.run()
        spool = runtime.run_dir.spool
        for outcome in report.outcomes:
            if outcome.failed_step is None:
                assert outcome.dump_sha256 is not None
                data = spool.read(outcome.dump_sha256)
                assert len(data) == outcome.nbytes

    def test_manifest_maps_jobs_to_digests(self, tmp_path):
        runtime = CampaignRuntime(SPEC, tmp_path / "run")
        report = runtime.run()
        manifest = runtime.run_dir.spool.load_manifest()
        assert [record["job_id"] for record in manifest] == [
            o.job_id for o in report.outcomes if o.dump_sha256
        ]

    def test_no_dump_survives_the_campaign_in_memory(self, tmp_path):
        """The flat-memory claim: dumps are spooled and dropped."""
        residents: list[weakref.ref] = []
        original_put = DumpSpool.put

        def tracking_put(self, dump):
            residents.append(weakref.ref(dump))
            return original_put(self, dump)

        DumpSpool.put = tracking_put
        try:
            report = CampaignRuntime(SPEC, tmp_path / "run").run()
        finally:
            DumpSpool.put = original_put
        succeeded = [o for o in report.outcomes if o.failed_step is None]
        assert len(residents) == len(succeeded)
        del report
        gc.collect()
        alive = [ref for ref in residents if ref() is not None]
        assert not alive, f"{len(alive)} dumps still resident after the run"

    def test_unspooled_run_has_no_digests(self):
        report = run_campaign(SPEC)
        assert all(o.dump_sha256 is None for o in report.outcomes)


class TestPlainEngineStillWorks:
    def test_spool_kwarg_on_run_campaign(self, tmp_path):
        spool = DumpSpool(tmp_path / "spool")
        report = run_campaign(SPEC, spool=spool)
        assert len(spool.digests()) > 0
        assert all(
            o.dump_sha256 in spool
            for o in report.outcomes
            if o.failed_step is None
        )
