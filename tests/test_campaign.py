"""The campaign engine: scheduling, aggregation, batching, end-to-end."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.attack.addressing import AddressHarvester, TranslationCache
from repro.attack.config import AttackConfig
from repro.attack.extraction import MemoryScraper
from repro.attack.pipeline import MemoryScrapingAttack
from repro.attack.polling import PidPoller
from repro.campaign import (
    BoardBreakdown,
    BoardWorker,
    CampaignReport,
    CampaignSpec,
    ModelBreakdown,
    VictimOutcome,
    build_schedule,
    jobs_by_board,
    prepare_offline,
    provision_board,
    run_campaign,
)
from repro.evaluation.metrics import ThroughputStats
from repro.evaluation.scenarios import BoardSession


# -- scheduling ---------------------------------------------------------------


class TestSchedule:
    def test_same_seed_same_schedule(self):
        spec = CampaignSpec(boards=3, victims=9, seed=42)
        assert build_schedule(spec) == build_schedule(spec)

    def test_different_seed_different_schedule(self):
        base = CampaignSpec(boards=3, victims=9, seed=0)
        other = CampaignSpec(boards=3, victims=9, seed=1)
        assert build_schedule(base) != build_schedule(other)

    def test_round_robin_board_assignment(self):
        jobs = build_schedule(CampaignSpec(boards=4, victims=10))
        assert [job.board_index for job in jobs] == [
            0, 1, 2, 3, 0, 1, 2, 3, 0, 1,
        ]

    def test_waves_and_tenants_cycle_per_board(self):
        spec = CampaignSpec(
            boards=2, victims=8, tenants_per_board=2, wave_size=2
        )
        board0 = jobs_by_board(build_schedule(spec))[0]
        assert [job.launch_wave for job in board0] == [0, 0, 1, 1]
        assert [job.tenant_index for job in board0] == [0, 1, 0, 1]

    def test_models_come_from_the_mix(self):
        spec = CampaignSpec(boards=2, victims=20, seed=3)
        for job in build_schedule(spec):
            assert job.model_name in spec.model_mix
            assert job.image_seed > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(boards=0)
        with pytest.raises(ValueError):
            CampaignSpec(victims=-1)
        with pytest.raises(ValueError):
            CampaignSpec(model_mix=("no_such_model",))
        with pytest.raises(ValueError):
            CampaignSpec(wave_size=0)


# -- report aggregation -------------------------------------------------------


def _outcome(**overrides) -> VictimOutcome:
    fields = dict(
        job_id=0,
        board_index=0,
        board_name="ZCU104",
        model_name="resnet50_pt",
        tenant_index=0,
        launch_wave=0,
        pid=100,
        identified_model="resnet50_pt",
        pixel_match_rate=1.0,
        nbytes=4096,
        devmem_reads=1,
        pages_read=1,
    )
    fields.update(overrides)
    return VictimOutcome(**fields)


class TestReportAggregation:
    def _report(self) -> CampaignReport:
        outcomes = [
            _outcome(job_id=0),
            _outcome(
                job_id=1,
                board_index=1,
                board_name="ZCU102",
                model_name="squeezenet_pt",
                identified_model="squeezenet_pt",
                pixel_match_rate=0.5,
                nbytes=8192,
                devmem_reads=2,
            ),
            _outcome(
                job_id=2,
                board_index=1,
                board_name="ZCU102",
                identified_model=None,
                pixel_match_rate=None,
                nbytes=0,
                devmem_reads=0,
                failed_step="step 3-4 (extract/analyze)",
                detail="scrubbed",
            ),
        ]
        return CampaignReport(
            spec=CampaignSpec(boards=2, victims=3), outcomes=outcomes
        )

    def test_fleet_rates(self):
        report = self._report()
        assert report.victims == 3
        assert report.identification_rate == pytest.approx(2 / 3)
        assert report.image_recovery_rate == pytest.approx(1 / 3)
        assert report.success_rate == pytest.approx(2 / 3)
        assert report.total_bytes == 4096 + 8192
        assert report.total_devmem_reads == 3

    def test_throughput_math(self):
        report = self._report()
        throughput = ThroughputStats(
            nbytes=report.total_bytes, victims=report.victims, wall_seconds=2.0
        )
        assert throughput.bytes_per_second == pytest.approx(6144.0)
        assert throughput.victims_per_second == pytest.approx(1.5)

    def test_per_model_breakdown(self):
        rows = {row.model_name: row for row in self._report().per_model()}
        assert rows["resnet50_pt"].victims == 2
        assert rows["resnet50_pt"].identified == 1
        assert rows["resnet50_pt"].identification_rate == pytest.approx(0.5)
        assert rows["squeezenet_pt"].victims == 1
        assert rows["squeezenet_pt"].images_recovered == 0

    def test_per_board_breakdown(self):
        rows = self._report().per_board()
        assert [row.board_index for row in rows] == [0, 1]
        assert rows[1].victims == 2
        assert rows[1].succeeded == 1
        assert rows[1].nbytes == 8192

    def test_failures_listed_and_rendered(self):
        report = self._report()
        assert len(report.failures()) == 1
        assert "scrubbed" in report.render()

    def test_empty_report_rates_are_zero(self):
        report = CampaignReport(spec=CampaignSpec(), outcomes=[])
        assert report.success_rate == 0.0
        assert report.total_bytes == 0
        assert report.per_model() == []
        assert report.per_board() == []

    def test_failed_victim_counts_as_a_victim_that_leaked_nothing(self):
        failed = _outcome(
            identified_model=None,
            pixel_match_rate=None,
            nbytes=0,
            devmem_reads=0,
            failed_step="step 3 (extract)",
        )
        report = CampaignReport(spec=CampaignSpec(), outcomes=[failed])
        assert report.per_model() == [
            ModelBreakdown("resnet50_pt", victims=1, identified=0,
                           images_recovered=0)
        ]
        assert report.per_board() == [
            BoardBreakdown(0, "ZCU104", victims=1, succeeded=0, nbytes=0,
                           devmem_reads=0)
        ]

    def test_two_board_breakdowns_ignore_outcome_order(self):
        report = self._report()
        models = [
            ModelBreakdown("resnet50_pt", victims=2, identified=1,
                           images_recovered=1),
            ModelBreakdown("squeezenet_pt", victims=1, identified=1,
                           images_recovered=0),
        ]
        boards = [
            BoardBreakdown(0, "ZCU104", victims=1, succeeded=1, nbytes=4096,
                           devmem_reads=1),
            BoardBreakdown(1, "ZCU102", victims=2, succeeded=1, nbytes=8192,
                           devmem_reads=2),
        ]
        # Rotated, the squeezenet victim on board 1 comes first.
        rotated = report.outcomes[1:] + report.outcomes[:1]
        for outcomes in (report.outcomes, rotated):
            reordered = CampaignReport(report.spec, outcomes)
            assert reordered.per_model() == models
            assert reordered.per_board() == boards

    def test_json_round_trip(self):
        report = self._report()
        rebuilt = CampaignReport.from_json(report.to_json())
        assert rebuilt.spec == report.spec
        assert rebuilt.outcomes == report.outcomes
        assert rebuilt.render() == report.render()


# -- batched extraction regression -------------------------------------------


class TestBatchedExtraction:
    @pytest.fixture()
    def harvested(self, session: BoardSession):
        run = session.victim_application().launch("resnet50_pt")
        harvester = AddressHarvester(
            session.attacker_shell.procfs, caller=session.attacker_shell.user
        )
        harvested = harvester.harvest(run.pid)
        run.terminate()
        return session, harvested

    def test_coalesced_dump_byte_identical_to_word_mode(self, harvested):
        session, harvested_range = harvested
        shell = session.attacker_shell
        word = MemoryScraper(
            shell.devmem_tool, shell.user, AttackConfig()
        ).scrape(harvested_range)
        coalesced = MemoryScraper(
            shell.devmem_tool, shell.user, AttackConfig(coalesce_reads=True)
        ).scrape(harvested_range)
        assert coalesced.data == word.data
        assert coalesced.pages_read == word.pages_read
        assert coalesced.pages_skipped == word.pages_skipped
        assert coalesced.devmem_reads < word.devmem_reads

    def test_coalesced_takes_precedence_over_bulk(self, harvested):
        session, harvested_range = harvested
        shell = session.attacker_shell
        bulk = MemoryScraper(
            shell.devmem_tool, shell.user, AttackConfig(bulk_reads=True)
        ).scrape(harvested_range)
        both = MemoryScraper(
            shell.devmem_tool,
            shell.user,
            AttackConfig(bulk_reads=True, coalesce_reads=True),
        ).scrape(harvested_range)
        assert both.data == bulk.data
        assert both.devmem_reads <= bulk.devmem_reads


# -- translation cache --------------------------------------------------------


class TestTranslationCache:
    def test_repeat_harvest_hits_cache(self, session: BoardSession):
        run = session.victim_application().launch("resnet50_pt")
        cache = TranslationCache()
        harvester = AddressHarvester(
            session.attacker_shell.procfs,
            caller=session.attacker_shell.user,
            cache=cache,
        )
        first = harvester.harvest(run.pid)
        second = harvester.harvest(run.pid)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_pipeline_invalidates_on_termination(self, session: BoardSession):
        profiles = session.profile(["resnet50_pt"])
        cache = TranslationCache()
        run = session.victim_application().launch("resnet50_pt")
        attack = MemoryScrapingAttack(
            session.attacker_shell, profiles, translation_cache=cache
        )
        attack.observe_victim("resnet50_pt")
        attack.harvest_addresses()
        assert len(cache) == 1
        run.terminate()
        attack.extract()
        assert len(cache) == 0
        assert cache.invalidations == 1


# -- pid exclusion ------------------------------------------------------------


class TestPidExclusion:
    def test_excluded_pid_is_skipped(self, session: BoardSession):
        app = session.victim_application()
        first = app.launch("resnet50_pt")
        second = app.launch("resnet50_pt")
        poller = PidPoller(session.attacker_shell)
        sighting = poller.wait_for_victim(
            "resnet50_pt", exclude_pids=frozenset({first.pid})
        )
        assert sighting.pid == second.pid


# -- end to end ---------------------------------------------------------------


class TestCampaignEndToEnd:
    def test_small_campaign_leaks_everywhere(self):
        spec = CampaignSpec(
            boards=2,
            victims=4,
            tenants_per_board=2,
            wave_size=2,
            seed=7,
        )
        report = run_campaign(spec)
        assert report.victims == 4
        assert report.success_rate == 1.0
        assert not report.failures()
        assert {outcome.board_index for outcome in report.outcomes} == {0, 1}
        assert report.total_bytes > 0
        # Coalesced extraction: far fewer reads than one per word.
        assert report.total_devmem_reads < report.total_bytes // 4

    def test_worker_serves_pipeline_harvest_from_board_cache(self):
        spec = CampaignSpec(boards=1, victims=2, wave_size=2, seed=4)
        profiles, database = prepare_offline(spec)
        board = provision_board(spec, 0)
        worker = BoardWorker(
            board, profiles, database, AttackConfig(coalesce_reads=True)
        )
        outcomes = [
            outcome
            for _, wave in worker.iter_waves(build_schedule(spec))
            for outcome in wave
        ]
        assert len(outcomes) == 2
        assert all(outcome.succeeded for outcome in outcomes)
        # The worker snapshots at claim time (miss), the pipeline
        # re-harvests from the cache (hit), extract() invalidates.
        cache = board.translation_cache
        assert cache.misses == 2
        assert cache.hits == 2
        assert cache.invalidations == 2
        assert len(cache) == 0

    def test_dropped_board_frees_its_dram_without_the_collector(self):
        # A reaped process and its heap arena used to point at each
        # other, so a dropped board's DRAM lived on until gc ran.
        spec = CampaignSpec(boards=1, victims=4, seed=9)
        profiles, database = prepare_offline(spec)
        gc.collect()
        gc.disable()
        try:
            board = provision_board(spec, 0)
            worker = BoardWorker(
                board, profiles, database, AttackConfig(coalesce_reads=True)
            )
            outcomes = [
                outcome
                for _, wave in worker.iter_waves(build_schedule(spec))
                for outcome in wave
            ]
            assert len(outcomes) == 4
            assert all(outcome.succeeded for outcome in outcomes)
            dram = weakref.ref(board.session.soc.dram)
            del worker, board
            assert dram() is None
        finally:
            gc.enable()

    def test_unattributable_dump_keeps_extraction_stats(self):
        # Victims run a model the adversary never profiled: extraction
        # succeeds, attribution fails — the outcome must keep the real
        # dump stats instead of reporting a zero-byte failure.
        from repro.attack.identify import SignatureDatabase

        spec = CampaignSpec(
            boards=1, victims=1, model_mix=("resnet50_pt",), seed=0
        )
        reference = BoardSession.boot(input_hw=spec.input_hw)
        profiles = reference.profile(["squeezenet_pt", "vgg16_pt"])
        report = run_campaign(
            spec,
            profiles=profiles,
            database=SignatureDatabase.from_profiles(profiles),
        )
        (outcome,) = report.outcomes
        assert outcome.identified_model is None
        assert not outcome.succeeded
        assert outcome.failed_step is None
        assert outcome.nbytes > 0
        assert "cannot attribute" in outcome.detail

    def test_caller_supplied_profiles_are_used(self):
        spec = CampaignSpec(boards=1, victims=1, seed=2)
        profiles, _ = prepare_offline(spec)
        report = run_campaign(spec, profiles=profiles)
        assert report.success_rate == 1.0

    def test_same_model_co_residents_do_not_collide(self):
        # One board, one wave, two victims of the same model: the pid
        # exclusion must pair each attack with its own victim.
        spec = CampaignSpec(
            boards=1,
            victims=2,
            model_mix=("resnet50_pt",),
            tenants_per_board=2,
            wave_size=2,
            seed=0,
        )
        report = run_campaign(spec)
        pids = [outcome.pid for outcome in report.outcomes]
        assert len(set(pids)) == 2
        assert report.image_recovery_rate == 1.0
