"""Unit tests for the analysis service: the pure core, admission
control, the bounded pool, and the daemon's wire protocol."""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import threading

import pytest

from repro.campaign.runtime.executors import AnalysisPool
from repro.campaign.runtime.spool import DumpSpool
from repro.errors import QuotaExceededError
from repro.service.analysis import (
    CARVE_PRESETS,
    AnalysisConfig,
    AnalysisReport,
    DumpAnalysis,
    analyze_dump,
    mine_database,
)
from repro.service.client import AsyncServiceClient
from repro.service.daemon import AnalysisService
from repro.service.quotas import TenantLedger, TenantQuotaConfig, TokenBucket
from repro.utils.resilience import ManualClock

INPUT_HW = 32
MODELS = ("resnet50_pt", "squeezenet_pt")


@pytest.fixture(scope="module")
def database():
    return mine_database(MODELS, INPUT_HW)


@pytest.fixture(scope="module")
def resnet_dump() -> bytes:
    """One scraped resnet dump, as raw bytes."""
    from repro.attack.addressing import AddressHarvester
    from repro.attack.extraction import MemoryScraper
    from repro.evaluation.scenarios import BoardSession
    from repro.vitis.app import VictimApplication
    from repro.vitis.image import Image

    session = BoardSession.boot(input_hw=INPUT_HW)
    run = VictimApplication(session.victim_shell, input_hw=INPUT_HW).launch(
        "resnet50_pt", image=Image.test_pattern(INPUT_HW, INPUT_HW)
    )
    harvester = AddressHarvester(
        session.attacker_shell.procfs, caller=session.attacker_shell.user
    )
    harvested = harvester.harvest(run.pid)
    run.terminate()
    scraper = MemoryScraper(
        session.attacker_shell.devmem_tool, session.attacker_shell.user
    )
    return bytes(scraper.scrape(harvested).data)


class TestTokenBucket:
    def test_burst_then_exact_refill_schedule(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=10.0, capacity=20.0, clock=clock)
        assert bucket.try_take(20.0) == 0.0
        assert bucket.try_take(5.0) == pytest.approx(0.5)
        clock.advance(0.5)
        assert bucket.try_take(5.0) == 0.0

    def test_oversized_request_can_never_pass(self):
        bucket = TokenBucket(rate=1.0, capacity=4.0, clock=ManualClock())
        assert bucket.try_take(5.0) == float("inf")
        # ... and took nothing while refusing.
        assert bucket.available == 4.0

    def test_refill_caps_at_capacity(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=100.0, capacity=10.0, clock=clock)
        assert bucket.try_take(10.0) == 0.0
        clock.advance(1000.0)
        assert bucket.available == 10.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=-1.0)
        bucket = TokenBucket(rate=1.0, capacity=1.0, clock=ManualClock())
        with pytest.raises(ValueError):
            bucket.try_take(-1.0)


class TestTenantLedger:
    def test_quotas_isolate_tenants(self):
        clock = ManualClock()
        ledger = TenantLedger(
            TenantQuotaConfig(jobs_per_sec=1.0, jobs_burst=1.0), clock=clock
        )
        ledger.admit_job("a")
        with pytest.raises(QuotaExceededError) as caught:
            ledger.admit_job("a")
        assert caught.value.retry_after == pytest.approx(1.0)
        # Tenant b's bucket is untouched by a's exhaustion.
        ledger.admit_job("b")

    def test_counters_record_admissions_and_rejections(self):
        clock = ManualClock()
        ledger = TenantLedger(
            TenantQuotaConfig(
                upload_bytes_per_sec=100.0, upload_burst_bytes=100.0
            ),
            clock=clock,
        )
        ledger.admit_upload("a", 80)
        with pytest.raises(QuotaExceededError):
            ledger.admit_upload("a", 80)
        counters = ledger.counters()["a"]
        assert counters["uploads_admitted"] == 1
        assert counters["upload_bytes_admitted"] == 80
        assert counters["uploads_rejected"] == 1

    def test_rejection_heals_after_the_advertised_wait(self):
        clock = ManualClock()
        ledger = TenantLedger(
            TenantQuotaConfig(
                upload_bytes_per_sec=10.0, upload_burst_bytes=50.0
            ),
            clock=clock,
        )
        ledger.admit_upload("a", 50)
        with pytest.raises(QuotaExceededError) as caught:
            ledger.admit_upload("a", 30)
        clock.advance(caught.value.retry_after)
        ledger.admit_upload("a", 30)


class TestAnalysisPool:
    def test_bounded_queue_refuses_instead_of_buffering(self):
        gate = threading.Event()
        started = threading.Event()
        done = []

        def wedge():
            started.set()
            gate.wait(5)

        with AnalysisPool(workers=1, capacity=1) as pool:
            assert pool.try_submit(wedge, lambda r, e: done.append((r, e)))
            # Wait until the worker holds the job, so the queue is
            # observably empty before the next submits.
            assert started.wait(5)
            results = [
                pool.try_submit(
                    lambda: gate.wait(5), lambda r, e: done.append((r, e))
                )
                for _ in range(3)
            ]
            # One fills the queue; the rest are explicit refusals.
            assert results == [True, False, False]
            gate.set()
            assert pool.drain(timeout=5)
        assert len(done) == 2
        assert all(error is None for _, error in done)

    def test_worker_exception_is_forwarded_not_swallowed(self):
        done = []

        def boom():
            raise RuntimeError("analysis failed")

        with AnalysisPool(workers=1, capacity=2) as pool:
            assert pool.try_submit(boom, lambda r, e: done.append((r, e)))
            assert pool.drain(timeout=5)
        ((result, error),) = done
        assert result is None
        assert isinstance(error, RuntimeError)

    def test_stats_track_accepted_and_completed(self):
        with AnalysisPool(workers=2, capacity=4) as pool:
            for _ in range(3):
                assert pool.try_submit(lambda: None, lambda r, e: None)
            assert pool.drain(timeout=5)
            stats = pool.stats()
        assert stats["accepted"] == 3
        assert stats["completed"] == 3
        assert stats["in_flight"] == 0
        assert stats["capacity"] == 4

    def test_submit_after_close_raises(self):
        pool = AnalysisPool(workers=1, capacity=1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeError):
            pool.try_submit(lambda: None, lambda r, e: None)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            AnalysisPool(workers=0)
        with pytest.raises(ValueError):
            AnalysisPool(capacity=0)


class TestSpoolPutStats:
    def test_hit_rate_counts_dedup(self, tmp_path):
        spool = DumpSpool(tmp_path / "spool")
        assert spool.put_stats() == {
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
        }
        spool.put_bytes(b"residue")
        spool.put_bytes(b"residue")
        spool.put_bytes(b"other")
        stats = spool.put_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 2
        assert stats["hit_rate"] == pytest.approx(1 / 3)


class TestAnalyzeDump:
    def test_identifies_the_scraped_model(self, database, resnet_dump):
        analysis = analyze_dump(resnet_dump, AnalysisConfig(database))
        assert analysis.identified_model == "resnet50_pt"
        assert analysis.matched_tokens > 0
        assert analysis.sha256 == hashlib.sha256(resnet_dump).hexdigest()
        assert analysis.nbytes == len(resnet_dump)
        assert 0 < analysis.residue_nbytes <= analysis.nbytes
        assert analysis.region_count >= 1
        assert sum(analysis.kind_bytes.values()) == analysis.nbytes

    def test_pure_and_buffer_agnostic(self, database, resnet_dump):
        config = AnalysisConfig(database)
        assert analyze_dump(resnet_dump, config) == analyze_dump(
            memoryview(resnet_dump), config
        )

    def test_unattributable_bytes_are_a_result_not_an_error(self, database):
        analysis = analyze_dump(b"\x00" * 4096, AnalysisConfig(database))
        assert analysis.identified_model is None
        assert analysis.identification_score == 0.0
        assert analysis.residue_nbytes == 0

    def test_carve_preset_changes_granularity(self, database, resnet_dump):
        coarse = analyze_dump(
            resnet_dump,
            AnalysisConfig(database, carve=CARVE_PRESETS["coarse"]),
        )
        fine = analyze_dump(
            resnet_dump, AnalysisConfig(database, carve=CARVE_PRESETS["fine"])
        )
        assert fine.region_count >= coarse.region_count
        assert coarse.carve_preset == "coarse"

    def test_payload_round_trip(self, database, resnet_dump):
        analysis = analyze_dump(resnet_dump, AnalysisConfig(database))
        assert DumpAnalysis.from_payload(analysis.to_payload()) == analysis
        # The wire form survives JSON exactly (floats pre-rounded).
        assert (
            DumpAnalysis.from_payload(
                json.loads(json.dumps(analysis.to_payload()))
            )
            == analysis
        )


class TestAnalysisReport:
    def _analysis(
        self, digest: str, model: str | None = None, preset: str = "default"
    ) -> DumpAnalysis:
        return DumpAnalysis(
            sha256=digest,
            nbytes=8,
            residue_nbytes=4,
            entropy=1.0,
            printable_fraction=0.5,
            region_count=1,
            kind_bytes={"mixed": 8},
            identified_model=model,
            identification_score=0.5 if model else 0.0,
            matched_tokens=1 if model else 0,
            carve_preset=preset,
        )

    def test_one_dump_under_two_presets_in_either_order(self):
        fine = self._analysis("a" * 64, preset="fine")
        coarse = self._analysis("a" * 64, preset="coarse")
        coarse = DumpAnalysis.from_payload(
            {**coarse.to_payload(), "region_count": 7}
        )
        forward, backward = AnalysisReport(), AnalysisReport()
        forward.add(fine)
        forward.add(coarse)
        backward.add(coarse)
        backward.add(fine)
        assert forward.to_json() == backward.to_json()
        assert len(forward) == 2
        assert [row.carve_preset for row in forward.rows()] == [
            "coarse", "fine",
        ]

    @pytest.mark.parametrize(
        ("preset", "digest"),
        [
            ("default",
             "c6ece522eb37dbad51921a99f3bb678440019b2ea3ed619e37d4ecaa1fe1d366"),
            ("fine",
             "88535cbe76b7d6e6601ad7daeaaee25ca5596afd650aadbfdb897ee5f5e56d6f"),
        ],
    )
    def test_single_preset_report_bytes_unchanged(self, preset, digest):
        # The sha256 of the bytes a digest-keyed report wrote for these
        # rows: keying on (digest, preset) leaves them as they were.
        report = AnalysisReport()
        for sha, model in (("c" * 64, "resnet50_pt"), ("a" * 64, None),
                           ("b" * 64, "squeezenet_pt"), ("a" * 64, None)):
            report.add(self._analysis(sha, model, preset))
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    def test_order_independent_and_deduplicated(self):
        rows = [self._analysis("b" * 64), self._analysis("a" * 64)]
        forward, backward = AnalysisReport(), AnalysisReport()
        for row in rows:
            forward.add(row)
        for row in reversed(rows):
            backward.add(row)
            backward.add(row)  # duplicate adds collapse
        assert forward.to_json() == backward.to_json()
        assert len(backward) == 2

    def test_render_lists_digests_and_models(self):
        report = AnalysisReport()
        report.add(self._analysis("c" * 64, model="resnet50_pt"))
        text = report.render()
        assert "c" * 16 in text
        assert "resnet50_pt" in text
        assert "1 dump(s)" in text

    def test_render_shows_each_preset_of_a_dump(self):
        report = AnalysisReport()
        for preset in ("fine", "coarse"):
            report.add(self._analysis("c" * 64, preset=preset))
        report.add(self._analysis("d" * 64))
        lines = report.render().splitlines()
        assert [line.split()[:2] for line in lines[1:4]] == [
            ["c" * 16, "coarse"], ["c" * 16, "fine"], ["d" * 16, "default"],
        ]
        assert lines[-1] == "2 dump(s) in 3 row(s)"


def _run(coro):
    return asyncio.run(coro)


class TestDaemonProtocol:
    """Wire-level behavior of one in-process daemon."""

    @pytest.fixture
    def service_factory(self, tmp_path):
        """Build (service, host, port) inside a running loop."""

        async def factory(**kwargs):
            kwargs.setdefault("workers", 1)
            service = AnalysisService(
                tmp_path / "spool", MODELS, INPUT_HW, **kwargs
            )
            host, port = await service.start()
            return service, host, port

        return factory

    def test_hello_advertises_databases_and_presets(self, service_factory):
        async def scenario():
            service, host, port = await service_factory()
            async with await AsyncServiceClient.connect(host, port) as client:
                hello = await client.request("hello")
            await service.close()
            return hello

        hello = _run(scenario())
        assert hello["ok"] is True
        assert hello["databases"] == ["default"]
        assert hello["carve_presets"] == sorted(CARVE_PRESETS)

    def test_upload_dedup_and_digest_verification(self, service_factory):
        async def scenario():
            service, host, port = await service_factory()
            async with await AsyncServiceClient.connect(host, port) as client:
                first = await client.put_dump("t", b"residue")
                second = await client.put_dump("t", b"residue")
                lied = await client.request(
                    "put_dump",
                    tenant="t",
                    sha256="0" * 64,
                    data_b64=base64.b64encode(b"residue").decode(),
                )
                garbage = await client.request(
                    "put_dump", tenant="t", data_b64="!!!not-base64!!!"
                )
            await service.close()
            return first, second, lied, garbage

        first, second, lied, garbage = _run(scenario())
        assert first["ok"] and not first["deduplicated"]
        assert second["ok"] and second["deduplicated"]
        assert lied["code"] == "digest-mismatch"
        assert garbage["code"] == "bad-request"

    def test_submit_validates_digest_database_and_preset(
        self, service_factory
    ):
        async def scenario():
            service, host, port = await service_factory()
            async with await AsyncServiceClient.connect(host, port) as client:
                upload = await client.put_dump("t", b"residue")
                unknown_digest = await client.request(
                    "submit", tenant="t", sha256="f" * 64
                )
                unknown_database = await client.request(
                    "submit",
                    tenant="t",
                    sha256=upload["sha256"],
                    database="nope",
                )
                unknown_preset = await client.request(
                    "submit",
                    tenant="t",
                    sha256=upload["sha256"],
                    carve="nope",
                )
                unknown_job = await client.request("status", job_id=99)
                bad_op = await client.request("frobnicate")
            await service.close()
            return (
                unknown_digest,
                unknown_database,
                unknown_preset,
                unknown_job,
                bad_op,
            )

        digest, db, preset, job, bad_op = _run(scenario())
        assert digest["code"] == "unknown-digest"
        assert db["code"] == "unknown-database"
        assert preset["code"] == "bad-request"
        assert job["code"] == "unknown-job"
        assert bad_op["code"] == "bad-request"

    def test_path_traversal_digest_is_refused(
        self, service_factory, tmp_path
    ):
        # "../secret" would land on <spool>/../secret.bin: the daemon
        # must refuse the name, not analyze whatever file it reaches.
        secret = b"resnet50_pt vitis_ai_library secret" * 64
        (tmp_path / "secret.bin").write_bytes(secret)

        async def scenario():
            service, host, port = await service_factory()
            async with await AsyncServiceClient.connect(host, port) as client:
                submitted = await client.request(
                    "submit", tenant="t", sha256="../secret"
                )
                job = await client.request("status", job_id=0)
                stats = await client.request("stats")
            await service.close()
            return submitted, job, stats

        submitted, job, stats = _run(scenario())
        assert submitted["ok"] is False
        assert submitted["code"] == "bad-request"
        assert "job_id" not in submitted
        assert job["code"] == "unknown-job"
        assert stats["stats"]["jobs"]["accepted"] == 0
        assert "resnet50_pt" not in json.dumps([submitted, job, stats])

    def test_malformed_field_is_refused_and_the_connection_survives(
        self, service_factory
    ):
        # int("abc") inside the status handler used to escape the
        # connection task: the client read EOF instead of an answer.
        async def scenario():
            service, host, port = await service_factory()
            async with await AsyncServiceClient.connect(host, port) as client:
                malformed = await client.request("status", job_id="abc")
                hello = await client.request("hello")
            await service.close()
            return malformed, hello

        malformed, hello = _run(scenario())
        assert malformed["ok"] is False
        assert malformed["code"] == "bad-request"
        assert "ValueError" in malformed["error"]
        assert hello["ok"] is True

    def test_job_lifecycle_and_stats(self, service_factory, resnet_dump):
        async def scenario():
            service, host, port = await service_factory()
            async with await AsyncServiceClient.connect(host, port) as client:
                upload = await client.put_dump("t", resnet_dump)
                submitted = await client.request(
                    "submit", tenant="t", sha256=upload["sha256"]
                )
                status = await client.request(
                    "status", job_id=submitted["job_id"]
                )
                while status["state"] == "queued":
                    await asyncio.sleep(0.01)
                    status = await client.request(
                        "status", job_id=submitted["job_id"]
                    )
                stats = (await client.request("stats"))["stats"]
            service.request_drain()
            await service.drained()
            await service.close()
            return submitted, status, stats, service.report

        submitted, status, stats, report = _run(scenario())
        assert submitted["ok"] and submitted["job_id"] == 1
        assert status["state"] == "done"
        assert status["analysis"]["identified_model"] == "resnet50_pt"
        assert stats["jobs"]["accepted"] == 1
        assert stats["queue"]["capacity"] == 8
        assert stats["spool"]["misses"] == 1
        assert "t" in stats["tenants"]
        assert len(report) == 1

    def test_quota_refusals_carry_retry_after(self, service_factory):
        async def scenario():
            clock = ManualClock()
            service, host, port = await service_factory(
                quota_config=TenantQuotaConfig(
                    upload_bytes_per_sec=4.0, upload_burst_bytes=8.0
                ),
                clock=clock,
            )
            async with await AsyncServiceClient.connect(host, port) as client:
                first = await client.put_dump("t", b"12345678")
                refused = await client.put_dump("t", b"abcdefgh")
                clock.advance(refused["retry_after"])
                healed = await client.put_dump("t", b"abcdefgh")
            await service.close()
            return first, refused, healed

        first, refused, healed = _run(scenario())
        assert first["ok"]
        assert refused["code"] == "quota"
        assert refused["retry_after"] == pytest.approx(2.0)
        assert healed["ok"]

    def test_backpressure_when_the_bounded_queue_fills(
        self, service_factory
    ):
        async def scenario():
            gate = threading.Event()
            service, host, port = await service_factory(
                queue_capacity=1, worker_gate=gate
            )
            async with await AsyncServiceClient.connect(host, port) as client:
                upload = await client.put_dump("t", b"residue")
                responses = [
                    await client.request(
                        "submit", tenant="t", sha256=upload["sha256"]
                    )
                    for _ in range(4)
                ]
            gate.set()
            service.request_drain()
            await service.drained()
            await service.close()
            return responses

        responses = _run(scenario())
        codes = [r.get("code", "ok") for r in responses]
        # At most 1 in flight + 1 queued fit (the in-flight slot opens
        # only once the wedged worker dequeues, so 1 is also possible);
        # everything else must be an explicit refusal, not a buffer.
        assert 1 <= codes.count("ok") <= 2
        assert codes.count("backpressure") >= 2
        assert all(
            r["retry_after"] > 0 for r in responses if "code" in r
        )

    def test_drain_refuses_new_work_but_finishes_accepted(
        self, service_factory, resnet_dump
    ):
        async def scenario():
            gate = threading.Event()
            service, host, port = await service_factory(worker_gate=gate)
            async with await AsyncServiceClient.connect(host, port) as client:
                upload = await client.put_dump("t", resnet_dump)
                accepted = await client.request(
                    "submit", tenant="t", sha256=upload["sha256"]
                )
                service.request_drain()
                await asyncio.sleep(0)  # let the drain flag land
                refused_submit = await client.request(
                    "submit", tenant="t", sha256=upload["sha256"]
                )
                refused_upload = await client.put_dump("t", b"late")
            await service.drained()
            status_client = await AsyncServiceClient.connect(host, port)
            async with status_client:
                status = await status_client.request(
                    "status", job_id=accepted["job_id"]
                )
            await service.close()
            return refused_submit, refused_upload, status

        refused_submit, refused_upload, status = _run(scenario())
        assert refused_submit["code"] == "draining"
        assert refused_upload["code"] == "draining"
        assert status["state"] == "done"

    def test_late_subscriber_replays_the_backlog(
        self, service_factory, resnet_dump
    ):
        async def scenario():
            service, host, port = await service_factory()
            async with await AsyncServiceClient.connect(host, port) as client:
                upload = await client.put_dump("t", resnet_dump)
                submitted = await client.request(
                    "submit", tenant="t", sha256=upload["sha256"]
                )
                status = await client.request(
                    "status", job_id=submitted["job_id"]
                )
                while status["state"] == "queued":
                    await asyncio.sleep(0.01)
                    status = await client.request(
                        "status", job_id=submitted["job_id"]
                    )
                # Subscribe only after the job completed: the delta
                # must arrive as backlog, then the drain event.
                events = []
                subscriber = await AsyncServiceClient.connect(host, port)
                async with subscriber:

                    async def consume():
                        async for event in subscriber.subscribe():
                            events.append(event)

                    task = asyncio.create_task(consume())
                    await asyncio.sleep(0.05)
                    service.request_drain()
                    await service.drained()
                    await asyncio.wait_for(task, timeout=5)
            await service.close()
            return events

        events = _run(scenario())
        assert [event["event"] for event in events] == ["delta", "drained"]
        assert events[0]["analysis"]["identified_model"] == "resnet50_pt"
