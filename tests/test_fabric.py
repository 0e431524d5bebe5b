"""Distributed campaign fabric: protocol, leases, chaos, byte-identity.

The acceptance claims, pinned:

- a distributed run — any worker count, any claim order — writes a
  ``report.json`` **byte-identical** to a single-host uninterrupted
  run's, including under every scripted fault the chaos harness
  (:mod:`tests.fabric_chaos`) can throw: a worker killed mid-wave, a
  heartbeat dropped past the lease deadline (shard re-leased to a
  different worker), duplicate claims, replayed outcome streams, and
  torn byte streams;
- duplicate and replayed waves never double-count victims — the
  journal, the telemetry counts, and the final report all see each
  ``job_id`` exactly once;
- the lease table is a fencing mechanism: expiry re-issues a board
  under a new epoch and every op under the old token is rejected;
- dumps travel by digest with verification on both ends: a corrupted
  upload or download raises instead of landing, and the wire paths
  leak no file descriptors (the ``test_zero_copy`` hygiene pattern);
- the fabric **self-heals**: connection drops, torn frames, stalls,
  partitions, and a coordinator killed and resumed mid-campaign are
  all survivable under a bounded retry budget — and none of it
  changes a byte of the final report.
"""

import base64
import hashlib
import json
import os
import socket
import threading
import time
from dataclasses import asdict, replace

import pytest

from fabric_chaos import (
    FAST_RETRY,
    ChaosScript,
    FaultPlan,
    FlakyProxy,
    build_coordinator,
    drain,
    drain_through_proxy,
    no_sleep,
    reference_report_bytes,
    restart_coordinator,
    run_chaos_drill,
)
from repro import wire
from repro.campaign import (
    CampaignReport,
    CampaignSpec,
    prepare_offline_cached,
)
from repro.campaign.runtime import executors
from repro.campaign.runtime.fabric import (
    FABRIC_FORMAT,
    FabricClient,
    FabricCoordinator,
    FabricWorker,
    LeaseTable,
    ManualClock,
    ResilientFabricClient,
)
from repro.campaign.schedule import build_schedule, jobs_by_board
from repro.cli import main
from repro.errors import (
    DumpTransferError,
    FabricConnectionError,
    FabricProtocolError,
    FabricTimeoutError,
    RetryExhaustedError,
    StaleLeaseError,
)
from repro.utils.resilience import RetryPolicy

SPEC = CampaignSpec(boards=2, victims=8, seed=3)
"""Two boards, two waves each — big enough for mid-board faults."""

SMALL = CampaignSpec(boards=2, victims=4, seed=9)


# ---------------------------------------------------------------------------
# lease table state machine


class TestLeaseTable:
    def test_claims_issue_lowest_pending_board_with_epoch_tokens(self):
        clock = ManualClock()
        table = LeaseTable([0, 1, 2], ttl=30.0, clock=clock)
        first = table.claim("w1")
        second = table.claim("w2")
        assert (first.board, second.board) == (0, 1)
        assert first.token == "b0e1"
        assert table.claim("w3").board == 2
        assert table.claim("w4") is None  # everything leased out

    def test_expired_lease_is_reclaimed_and_reissued_under_new_epoch(self):
        clock = ManualClock()
        table = LeaseTable([0], ttl=30.0, clock=clock)
        stale = table.claim("w1")
        clock.advance(30.0)  # deadline is inclusive: now >= deadline
        fresh = table.claim("w2")
        assert fresh.board == 0
        assert fresh.epoch == stale.epoch + 1
        assert table.reclaims == 1
        with pytest.raises(StaleLeaseError):
            table.resolve(stale.token)

    def test_any_authenticated_op_extends_the_deadline(self):
        clock = ManualClock()
        table = LeaseTable([0], ttl=30.0, clock=clock)
        lease = table.claim("w1")
        clock.advance(20.0)
        table.touch(lease.token)  # heartbeat/wave at t=20 → deadline t=50
        clock.advance(20.0)
        assert table.touch(lease.token).board == 0  # alive at t=40
        clock.advance(31.0)
        with pytest.raises(StaleLeaseError):
            table.touch(lease.token)

    def test_completion_retires_the_token(self):
        table = LeaseTable([0], ttl=30.0, clock=ManualClock())
        lease = table.claim("w1")
        assert table.complete(lease.token) == 0
        assert table.done
        with pytest.raises(StaleLeaseError):
            table.complete(lease.token)


# ---------------------------------------------------------------------------
# protocol-level drills (raw clients against a live coordinator)


@pytest.fixture()
def coordinator(tmp_path):
    coord, clock = build_coordinator(SMALL, tmp_path, lease_ttl=30.0)
    coord.chaos_clock = clock
    try:
        yield coord
    finally:
        coord.close()


def _client(coordinator) -> FabricClient:
    host, port = coordinator.address
    return FabricClient(host, port)


class TestProtocol:
    def test_hello_ships_everything_a_board_simulation_needs(
        self, coordinator
    ):
        with _client(coordinator) as client:
            hello = client.request("hello", worker="w")
            assert hello["format"] == FABRIC_FORMAT
            assert hello["spec"]["boards"] == SMALL.boards
            assert hello["defense_profile"] is None
            assert hello["lease_ttl"] == 30.0
            # prep round-trips by value, like the multiprocess executor
            assert isinstance(hello["profiles"], str)
            assert isinstance(hello["database"], dict)

    def test_unknown_op_and_torn_stream_leave_state_untouched(
        self, coordinator
    ):
        with _client(coordinator) as client:
            with pytest.raises(FabricProtocolError):
                client.request("frobnicate")
        # A torn frame: the coordinator answers bad-request and drops
        # the connection rather than guessing at a resync.
        with _client(coordinator) as client:
            client.send_raw(b'{"op": "wave", "lease": "b0e1", "outc')
            client.close()
        with _client(coordinator) as client:
            status = client.request("status")
            assert status["outcomes_journaled"] == 0
            assert status["boards_complete"] == 0

    def test_over_long_line_is_refused_like_a_torn_frame(
        self, coordinator, monkeypatch
    ):
        monkeypatch.setattr(wire, "MAX_LINE_BYTES", 64)
        host, port = coordinator.address

        def claim_line(content_bytes: int) -> bytes:
            # A claim whose line, newline excluded, is exactly this long.
            bare = len(wire.encode({"op": "claim", "worker": ""})) - 1
            worker = "w" * (content_bytes - bare)
            return wire.encode({"op": "claim", "worker": worker})

        with socket.create_connection((host, port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(claim_line(65))
            stream.flush()
            refused = wire.decode(stream.readline())
            assert stream.readline() == b""  # then the connection closes
            stream.close()
        assert refused["code"] == "bad-request"
        assert "exceeds 64 bytes" in refused["error"]
        with _client(coordinator) as client:
            status = client.request("status")
            assert status["leases_issued"] == 0
            assert status["workers"] == []
        # A line at the cap is still a request.
        with socket.create_connection((host, port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(claim_line(64))
            stream.flush()
            claimed = wire.decode(stream.readline())
            stream.close()
        assert claimed["ok"] is True and claimed["board"] == 0

    def test_duplicate_claim_race_gets_distinct_boards_then_nothing(
        self, coordinator
    ):
        with _client(coordinator) as one, _client(coordinator) as two:
            first = one.request("claim", worker="w1")
            second = two.request("claim", worker="w2")
            assert first["board"] != second["board"]
            third = one.request("claim", worker="w1")
            assert third["board"] is None and third["done"] is False

    def test_wave_under_wrong_board_lease_is_rejected(self, coordinator):
        jobs = jobs_by_board(build_schedule(SMALL))
        with _client(coordinator) as client:
            claim = client.request("claim", worker="w")
            other_board = 1 - claim["board"]
            outcome = _fake_outcome(jobs, other_board)
            with pytest.raises(FabricProtocolError):
                client.request(
                    "wave",
                    lease=claim["lease"],
                    wave=0,
                    outcomes=[asdict(outcome)],
                )

    def test_wave_with_host_timings_is_rejected(self, coordinator):
        """Format-1 outcomes carried ``wall_seconds``; the coordinator
        takes current records only, and ``hello`` turns format-1 peers
        away before they get this far."""
        jobs = jobs_by_board(build_schedule(SMALL))
        with _client(coordinator) as client:
            claim = client.request("claim", worker="w")
            record = asdict(_fake_outcome(jobs, claim["board"]))
            with pytest.raises(FabricProtocolError, match="wall_seconds"):
                client.request(
                    "wave",
                    lease=claim["lease"],
                    wave=0,
                    outcomes=[{**record, "wall_seconds": 0.5}],
                )

    def test_fenced_worker_cannot_journal_after_reclaim(self, coordinator):
        clock = coordinator.chaos_clock
        jobs = jobs_by_board(build_schedule(SMALL))
        with _client(coordinator) as slow, _client(coordinator) as fast:
            stale = slow.request("claim", worker="slow")
            clock.advance(31.0)
            fresh = fast.request("claim", worker="fast")
            assert fresh["board"] == stale["board"]
            assert fresh["lease"] != stale["lease"]
            outcome = _fake_outcome(jobs, stale["board"])
            with pytest.raises(StaleLeaseError):
                slow.request(
                    "wave",
                    lease=stale["lease"],
                    wave=0,
                    outcomes=[asdict(outcome)],
                )
            with pytest.raises(StaleLeaseError):
                slow.request("heartbeat", lease=stale["lease"])
            with pytest.raises(StaleLeaseError):
                slow.request("board_complete", lease=stale["lease"])
            assert coordinator.status()["stale_rejections"] == 3

    def test_wave_citing_unuploaded_dump_is_rejected(self, coordinator):
        jobs = jobs_by_board(build_schedule(SMALL))
        with _client(coordinator) as client:
            claim = client.request("claim", worker="w")
            outcome = replace(
                _fake_outcome(jobs, claim["board"]),
                dump_sha256="ab" * 32,
                nbytes=2,
            )
            with pytest.raises(DumpTransferError):
                client.request(
                    "wave",
                    lease=claim["lease"],
                    wave=0,
                    outcomes=[asdict(outcome)],
                )


def _fake_outcome(jobs, board):
    """A plausible canonical outcome for *board*'s first job."""
    from repro.campaign.worker import VictimOutcome

    job = jobs[board][0]
    return VictimOutcome(
        job_id=job.job_id,
        board_index=board,
        board_name="ZCU104",
        model_name=job.model_name,
        tenant_index=job.tenant_index,
        launch_wave=job.launch_wave,
        pid=900,
        identified_model=None,
        pixel_match_rate=None,
        nbytes=0,
        devmem_reads=0,
        pages_read=0,
    )


# ---------------------------------------------------------------------------
# spool fetch-by-digest over the wire


class TestWireSpool:
    def test_round_trip_by_digest(self, coordinator):
        payload = os.urandom(4096) + b"\x00" * 512
        digest = hashlib.sha256(payload).hexdigest()
        assert digest not in coordinator.run_dir.spool
        with _client(coordinator) as client:
            receipt = client.put_dump(payload)
            assert receipt["deduplicated"] is False
            assert receipt["nbytes"] == len(payload)
            # A second upload of the same bytes is filed by content.
            assert client.put_dump(payload)["deduplicated"] is True
            assert client.request("status")["dumps_deduplicated"] == 1
            assert client.fetch_dump(digest) == payload
        # and it landed in the coordinator's content-addressed store
        assert coordinator.run_dir.spool.read(digest) == payload

    def test_empty_object_round_trips(self, coordinator):
        digest = hashlib.sha256(b"").hexdigest()
        with _client(coordinator) as client:
            client.put_dump(b"")
            assert client.fetch_dump(digest) == b""

    def test_corrupted_upload_is_rejected_and_never_lands(
        self, coordinator
    ):
        payload = b"honest bytes"
        lie = hashlib.sha256(b"different bytes").hexdigest()
        with _client(coordinator) as client:
            with pytest.raises(DumpTransferError):
                client.request(
                    "put_dump",
                    sha256=lie,
                    data=base64.b64encode(payload).decode("ascii"),
                )
        assert lie not in coordinator.run_dir.spool

    def test_corrupted_download_is_rejected_client_side(self, coordinator):
        # The client re-hashes what it fetched: a digest that does not
        # match the bytes (a tampering transport) must raise, not
        # return silently corrupt residue.
        payload = b"spooled residue"
        digest = hashlib.sha256(payload).hexdigest()
        spool = coordinator.run_dir.spool
        spool.put_bytes(payload)
        # Flip one byte of the stored record inside its segment,
        # behind the store's back.
        (segment,) = (spool.root / "segments").glob("*.seg")
        blob = bytearray(segment.read_bytes())
        body = blob.rindex(payload)
        blob[body] ^= 0xFF
        segment.write_bytes(bytes(blob))
        with _client(coordinator) as client:
            with pytest.raises(DumpTransferError):
                client.fetch_dump(digest)

    def test_path_traversal_digest_is_refused(self, coordinator):
        # A digest is a name the client chooses: one that walks out of
        # the spool must be refused, never joined into a file path.
        secret = b"a file beside the run directory"
        planted = coordinator.run_dir.root.parent / "secret.bin"
        planted.write_bytes(secret)
        host, port = coordinator.address
        with socket.create_connection((host, port), timeout=10) as sock:
            stream = sock.makefile("rwb")
            stream.write(
                wire.encode({"op": "fetch_dump", "sha256": "../../secret"})
            )
            stream.flush()
            line = stream.readline()
            stream.close()
        response = wire.decode(line)
        assert response["ok"] is False
        assert response["code"] == "bad-request"
        assert "data" not in response
        assert base64.b64encode(secret) not in line
        assert secret not in line
        assert planted.read_bytes() == secret

    def test_unknown_digest_fetch_raises(self, coordinator):
        with _client(coordinator) as client:
            with pytest.raises(DumpTransferError):
                client.fetch_dump("00" * 32)

    def test_wire_paths_leak_no_file_descriptors(self, coordinator):
        payload = os.urandom(8192)
        digest = hashlib.sha256(payload).hexdigest()
        with _client(coordinator) as client:
            client.put_dump(payload)
            baseline = len(os.listdir("/proc/self/fd"))
            for _ in range(5):
                assert client.fetch_dump(digest) == payload
            # fetch maps and unmaps per request: the serving process's
            # fd table is flat again after every round trip
            assert len(os.listdir("/proc/self/fd")) == baseline


# ---------------------------------------------------------------------------
# chaos drills — the byte-identity contract under fire


@pytest.mark.slow
class TestChaos:
    def test_worker_count_and_claim_order_do_not_change_a_byte(
        self, tmp_path
    ):
        fabric, reference, status = run_chaos_drill(
            SPEC, tmp_path, plans=[], drain_concurrent=3
        )
        assert fabric == reference
        assert status["reclaims"] == 0

    def test_worker_killed_mid_wave_shard_releases_to_another_worker(
        self, tmp_path
    ):
        # The acceptance-criteria pin: die after one shipped wave
        # (dumps of the next wave already uploaded), lease expires,
        # a *different* worker re-runs the shard from scratch, and the
        # report is byte-identical to the uninterrupted local run.
        fabric, reference, status = run_chaos_drill(
            SPEC, tmp_path, plans=[FaultPlan(die_after_waves=1)]
        )
        assert fabric == reference
        assert status["reclaims"] >= 1
        assert status["duplicates_rejected"] >= 1  # replayed wave 0

    def test_mid_wave_death_with_orphaned_dumps(self, tmp_path):
        # die_after_waves=0: the first wave's dumps are uploaded but
        # its outcomes never ship — orphaned spool objects must not
        # perturb the report (content addressing reclaims them).
        fabric, reference, status = run_chaos_drill(
            SPEC, tmp_path, plans=[FaultPlan(die_after_waves=0)]
        )
        assert fabric == reference
        assert status["reclaims"] >= 1

    def test_heartbeat_dropped_past_deadline_board_rereleased(
        self, tmp_path
    ):
        # Worker finishes every wave but partitions before completing;
        # no heartbeats arrive, the lease dies, the board re-runs
        # entirely on a drain worker.
        fabric, reference, status = run_chaos_drill(
            SPEC, tmp_path, plans=[FaultPlan(abandon_before_complete=True)]
        )
        assert fabric == reference
        assert status["reclaims"] >= 1
        assert status["duplicates_rejected"] >= 2  # full board replayed

    def test_duplicate_wave_sends_do_not_double_count(self, tmp_path):
        fabric, reference, status = run_chaos_drill(
            SPEC, tmp_path, plans=[FaultPlan(duplicate_waves=True)]
        )
        assert fabric == reference
        # every wave shipped twice; exactly one copy journaled
        assert status["duplicates_rejected"] >= 2

    def test_replayed_outcomes_after_reconnect_do_not_double_count(
        self, tmp_path
    ):
        fabric, reference, status = run_chaos_drill(
            SPEC, tmp_path, plans=[FaultPlan(replay_on_reconnect=True)]
        )
        assert fabric == reference
        assert status["duplicates_rejected"] >= 2

    def test_torn_stream_mid_campaign(self, tmp_path):
        fabric, reference, status = run_chaos_drill(
            SPEC,
            tmp_path,
            plans=[FaultPlan(tear_stream_before_wave=1)],
        )
        assert fabric == reference
        assert status["reclaims"] >= 1

    def test_compound_chaos(self, tmp_path):
        # Several faulty workers in sequence against one campaign.
        fabric, reference, status = run_chaos_drill(
            SPEC,
            tmp_path,
            plans=[
                FaultPlan(die_after_waves=0),
                FaultPlan(duplicate_waves=True, abandon_before_complete=True),
                FaultPlan(tear_stream_before_wave=0),
            ],
            drain_concurrent=2,
        )
        assert fabric == reference
        assert status["reclaims"] >= 2

    def test_telemetry_counts_match_report_after_replay_storm(
        self, tmp_path
    ):
        # The coordinator's telemetry counts must agree with the
        # journal-rebuilt report even after duplicate and replayed
        # waves: no victim is counted twice.
        run_chaos_drill(
            SPEC,
            tmp_path,
            plans=[
                FaultPlan(duplicate_waves=True, replay_on_reconnect=True)
            ],
        )
        _assert_telemetry_counts_report(tmp_path / "fabric")


def _assert_telemetry_counts_report(run_dir) -> None:
    """The run's telemetry counts exactly the victims its report holds."""
    report = CampaignReport.from_json((run_dir / "report.json").read_text())
    telemetry = json.loads((run_dir / "telemetry.json").read_text())
    assert telemetry["victims_attacked"] == report.victims
    assert telemetry["victims_attacked"] == report.spec.victims
    assert telemetry["victims_leaked"] == sum(
        outcome.succeeded for outcome in report.outcomes
    )


def _fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="requires /proc (Linux)"
)
class TestFlakyProxyFdHygiene:
    """The chaos proxy must not leak sockets across its lifecycle.

    Every proxied connection is a client/upstream socket *pair* plus
    two pump threads; a leak here compounds across the hundreds of
    connections a chaos drill churns through.  Counted the blunt way:
    ``/proc/self/fd`` before and after.
    """

    def _echo_upstream(self):
        """A minimal newline-echoing server; returns (addr, closer)."""
        listener = socket.create_server(("127.0.0.1", 0))
        closed = threading.Event()

        def handle(conn):
            with conn:
                try:
                    while data := conn.recv(65536):
                        conn.sendall(data)
                except OSError:
                    pass

        def accept_loop():
            while not closed.is_set():
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                threading.Thread(
                    target=handle, args=(conn,), daemon=True
                ).start()

        thread = threading.Thread(target=accept_loop, daemon=True)
        thread.start()

        def closer():
            closed.set()
            try:
                listener.shutdown(socket.SHUT_RDWR)  # wake accept()
            except OSError:
                pass
            listener.close()
            thread.join(timeout=5)

        return listener.getsockname()[:2], closer

    def _wait_for_baseline(self, baseline: int) -> int:
        # Pump and echo threads close their sockets asynchronously
        # after a link is killed, so give stragglers a bounded grace.
        for _ in range(500):
            count = _fd_count()
            if count <= baseline:
                return count
            time.sleep(0.01)
        return _fd_count()

    def test_connection_churn_releases_every_fd(self, tmp_path):
        upstream, close_upstream = self._echo_upstream()
        try:
            baseline = _fd_count()
            with FlakyProxy(upstream) as proxy:
                host, port = proxy.address
                for _ in range(5):
                    with socket.create_connection((host, port)) as conn:
                        conn.sendall(b"ping\n")
                        assert conn.recv(65536) == b"ping\n"
                assert proxy.stats()["connections"] == 5
            assert self._wait_for_baseline(baseline) == baseline
        finally:
            close_upstream()

    def test_partition_reject_and_kill_release_every_fd(self, tmp_path):
        upstream, close_upstream = self._echo_upstream()
        try:
            baseline = _fd_count()
            with FlakyProxy(upstream) as proxy:
                host, port = proxy.address
                # A live link cut by partition(): both sides must close.
                conn = socket.create_connection((host, port))
                conn.sendall(b"ping\n")
                assert conn.recv(65536) == b"ping\n"
                proxy.partition()
                # A connection rejected while partitioned: the accepted
                # socket must be closed immediately, not tracked.
                with socket.create_connection((host, port)) as rejected:
                    assert rejected.recv(65536) == b""
                conn.close()
                assert proxy.stats()["partition_rejects"] == 1
            assert self._wait_for_baseline(baseline) == baseline
        finally:
            close_upstream()

    def test_upstream_down_closes_client_socket(self, tmp_path):
        # The upstream vanishes between accept and connect: the proxy
        # must close the freshly-accepted client socket, not leak it.
        upstream, close_upstream = self._echo_upstream()
        close_upstream()  # dead on arrival
        baseline = _fd_count()
        with FlakyProxy(upstream) as proxy:
            host, port = proxy.address
            with socket.create_connection((host, port)) as conn:
                assert conn.recv(65536) == b""
            assert proxy.stats()["upstream_failures"] == 1
        assert self._wait_for_baseline(baseline) == baseline


# ---------------------------------------------------------------------------
# coordinator lifecycle


class TestWorkerBoardLoop:
    """A fabric worker plays its boards through the executors' loop."""

    def test_threaded_campaign_provisions_through_the_executors(
        self, tmp_path, monkeypatch
    ):
        # Board 3 gets no victim: it completes without being booted.
        spec = CampaignSpec(boards=4, victims=3, seed=2)
        populated = sorted(jobs_by_board(build_schedule(spec)))
        assert populated == [0, 1, 2]
        reference = reference_report_bytes(spec, tmp_path)
        coordinator, clock = build_coordinator(spec, tmp_path)
        provisioned: list[int] = []
        original = executors.provision_board

        def counting(*args):
            provisioned.append(args[1])
            return original(*args)

        monkeypatch.setattr(executors, "provision_board", counting)
        with coordinator:
            drain(coordinator, clock, concurrent=2)
            coordinator.run_until_complete(timeout=60)
        assert sorted(provisioned) == populated
        assert coordinator.run_dir.report_path.read_bytes() == reference
        _assert_telemetry_counts_report(coordinator.run_dir.root)

    def test_each_worker_uploads_each_digest_once(
        self, tmp_path, monkeypatch
    ):
        # Under zero_on_free every dump of one size is the same zeros,
        # so digests repeat within a board and across the workers.
        coordinator, clock = build_coordinator(
            SPEC, tmp_path, defense_profile="zero_on_free"
        )
        ops: list[str] = []
        uploads: dict[str, list[str]] = {}
        speaker: dict[threading.Thread, str] = {}
        original = FabricCoordinator.handle_request

        def recording(self, request):
            # One connection per worker, served on its own thread.
            thread = threading.current_thread()
            if "worker" in request:
                speaker[thread] = str(request["worker"])
            op = str(request.get("op"))
            ops.append(op)
            if op == "put_dump":
                uploads.setdefault(speaker[thread], []).append(
                    str(request["sha256"])
                )
            return original(self, request)

        monkeypatch.setattr(FabricCoordinator, "handle_request", recording)
        with coordinator:
            drain(coordinator, clock, concurrent=2)
            coordinator.run_until_complete(timeout=60)
        report = CampaignReport.from_json(
            coordinator.run_dir.report_path.read_text()
        )
        cited = [o.dump_sha256 for o in report.outcomes if o.dump_sha256]
        assert len(set(cited)) < len(cited)  # the digests do repeat
        assert "has_dump" not in ops
        assert set(uploads) <= {"drain-r0w0", "drain-r0w1"}
        for digests in uploads.values():
            assert len(digests) == len(set(digests))
        sent = [digest for digests in uploads.values() for digest in digests]
        assert set(sent) == set(cited)
        status = coordinator.status()
        assert status["dumps_received"] == len(sent)
        assert status["dumps_deduplicated"] == len(sent) - len(set(sent))
        # Nothing leaks under zero_on_free, which the counts must show.
        _assert_telemetry_counts_report(coordinator.run_dir.root)

    def test_format_mismatch_is_refused_at_hello(
        self, coordinator, monkeypatch
    ):
        original = FabricCoordinator.handle_request

        def older_coordinator(self, request):
            response = original(self, request)
            if request.get("op") == "hello":
                response = {**response, "format": FABRIC_FORMAT - 1}
            return response

        monkeypatch.setattr(
            FabricCoordinator, "handle_request", older_coordinator
        )
        host, port = coordinator.address
        worker = FabricWorker(
            host, port, worker_id="mismatched", poll_interval=None,
            heartbeat=False,
        )
        with pytest.raises(FabricProtocolError, match="format"):
            worker.run()
        status = coordinator.status()
        assert status["leases_issued"] == 0
        assert status["boards_pending"] == SMALL.boards


class TestCoordinator:
    def test_resume_reuses_completed_boards(self, tmp_path):
        # Coordinator dies after one full board landed; a second
        # coordinator re-serves the same run directory, leases only
        # the unfinished board, and the report is byte-identical.
        reference = reference_report_bytes(SPEC, tmp_path)
        coordinator, _ = build_coordinator(SPEC, tmp_path)
        host, port = coordinator.address
        worker = FabricWorker(
            host, port, poll_interval=None, heartbeat=False
        )
        assert _run_single_board(worker) == [0]
        coordinator.close()

        clock = ManualClock()
        resumed = FabricCoordinator.resume(
            tmp_path / "fabric",
            clock=clock,
            prep=prepare_offline_cached(SPEC),
        )
        with resumed:
            drain(resumed, clock, lease_ttl=30.0)
            resumed.run_until_complete(timeout=60)
        assert resumed.run_dir.report_path.read_bytes() == reference
        # board 0 was *reused*, not re-leased: one lease covers the rest
        telemetry = json.loads(
            resumed.run_dir.telemetry_path.read_text()
        )
        assert telemetry["leases_issued"] == 1

    def test_finished_campaign_claims_report_done(self, tmp_path):
        coordinator, clock = build_coordinator(SMALL, tmp_path)
        with coordinator:
            drain(coordinator, clock)
            coordinator.run_until_complete(timeout=60)
            host, port = coordinator.address
            with FabricClient(host, port) as client:
                claim = client.request("claim", worker="late")
                assert claim["board"] is None and claim["done"] is True

    def test_empty_boards_complete_without_a_lease(self, tmp_path):
        # More boards than victims: the surplus boards get no jobs and
        # must complete immediately, exactly like the local executors.
        spec = CampaignSpec(boards=6, victims=3, seed=1)
        reference = reference_report_bytes(spec, tmp_path)
        coordinator, clock = build_coordinator(spec, tmp_path)
        with coordinator:
            status = coordinator.status()
            assert status["boards_complete"] == 3  # the empty ones
            drain(coordinator, clock)
            coordinator.run_until_complete(timeout=60)
        assert coordinator.run_dir.report_path.read_bytes() == reference


# ---------------------------------------------------------------------------
# the stop path: close() is immediate, and no worker owed a ``done`` is
# shut out


CLI_POLL_INTERVAL = 0.5
"""``repro campaign work``'s default ``--poll-interval``."""


class _GatedSleep:
    """A worker sleep whose first call blocks until released; later
    calls (retry backoff) return at once."""

    def __init__(self) -> None:
        self.sleeping = threading.Event()
        self.release = threading.Event()

    def __call__(self, seconds: float) -> None:
        if not self.sleeping.is_set():
            self.sleeping.set()
            assert self.release.wait(10)


class TestStopPath:
    def test_ten_idle_closes_take_under_a_second(self, tmp_path):
        coordinators = [
            build_coordinator(SMALL, tmp_path / f"c{index}")[0]
            for index in range(10)
        ]
        started = time.perf_counter()
        for coordinator in coordinators:
            coordinator.close()
        # socketserver's shutdown() waited up to a 0.5 s poll per close.
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("link_dropped", [False, True])
    def test_polling_worker_hears_done_when_the_campaign_ends_in_its_sleep(
        self, tmp_path, link_dropped
    ):
        coordinator, clock = build_coordinator(SMALL, tmp_path)
        proxy = FlakyProxy(coordinator.address)
        proxy_host, proxy_port = proxy.start()
        # Both boards are leased at t=0, so the poller's claim at t=10
        # comes back empty and it goes to sleep.
        with _client(coordinator) as holder:
            assert holder.request("claim", worker="holder")["board"] == 0
            assert holder.request("claim", worker="holder")["board"] == 1
        clock.advance(10.0)
        gate = _GatedSleep()
        poller = FabricWorker(
            proxy_host,
            proxy_port,
            worker_id="poller",
            poll_interval=CLI_POLL_INTERVAL,
            heartbeat=False,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.0, jitter=0.0
            ),
            sleep=gate,
        )
        result: dict = {}

        def poll() -> None:
            try:
                result["stats"] = poller.run()
            except Exception as exc:  # reported by the assert below
                result["error"] = exc

        poller_thread = threading.Thread(target=poll)
        poller_thread.start()
        assert gate.sleeping.wait(10)
        if link_dropped:
            # Its link dies just before the finish: it will reconnect.
            proxy.partition()
            proxy.heal()
        # t=30: the holder's leases expire and a drain worker finishes
        # the campaign; the poller, heard at t=10, is not silent yet.
        clock.advance(20.0)
        drain(coordinator, clock)
        assert coordinator.done
        closed = threading.Event()

        def close_then_exit() -> None:
            coordinator.close()
            if gate.release.is_set():
                poller_thread.join(10)  # let its done reply land
            proxy.close()  # the serving process is gone
            closed.set()

        closer = threading.Thread(target=close_then_exit)
        closer.start()
        # The old close() returned within one 0.5 s accept-loop poll,
        # while the poller slept; the new one holds the door for it.
        assert not closed.wait(0.6)
        gate.release.set()
        closer.join(10)
        poller_thread.join(10)
        assert closed.is_set()
        assert "error" not in result, result
        assert result["stats"]["reconnects"] == int(link_dropped)

    def test_silent_worker_holds_close_back_one_lease_ttl(self, tmp_path):
        coordinator, clock = build_coordinator(
            SMALL, tmp_path, lease_ttl=30.0
        )
        with _client(coordinator) as ghost:
            ghost.request("hello", worker="ghost")  # t=0, then silent
        drain(coordinator, clock)
        closer = threading.Thread(target=coordinator.close, daemon=True)
        closer.start()
        for advance, still_waiting in ((29.0, True), (1.0, False)):
            clock.advance(advance)
            with _client(coordinator) as poke:
                poke.request("status")  # any answered request wakes close()
            closer.join(0.2 if still_waiting else 5)
            assert closer.is_alive() is still_waiting

    def test_no_wait_worker_that_left_adds_no_wait(self, tmp_path):
        coordinator, clock = build_coordinator(SMALL, tmp_path)
        host, port = coordinator.address
        with _client(coordinator) as holder:
            assert holder.request("claim", worker="holder")["board"] == 0
        clock.advance(10.0)
        leaver = FabricWorker(
            host,
            port,
            worker_id="leaver",
            poll_interval=None,
            heartbeat=False,
        )
        # Board 1, then an empty claim while board 0 is leased: gone.
        assert leaver.run()["boards_completed"] == [1]
        clock.advance(20.0)  # t=30: board 0 re-issues; leaver heard t=10
        drain(coordinator, clock)
        closer = threading.Thread(target=coordinator.close, daemon=True)
        closer.start()
        closer.join(2.0)
        assert not closer.is_alive()


# ---------------------------------------------------------------------------
# self-healing transport: reconnect-and-replay through a flaky wire


def _dead_port() -> int:
    """A port nothing listens on (bound once, then released)."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestResilientClient:
    def test_send_raw_after_close_is_a_protocol_error(self, coordinator):
        # The satellite pin: raw writes on a closed client must fail
        # loudly, not crash on a None socket or silently vanish.
        client = _client(coordinator)
        client.close()
        with pytest.raises(FabricProtocolError):
            client.send_raw(b'{"op": "status"}\n')

    def test_scripted_drop_forces_reconnect_and_replay(self, coordinator):
        script = ChaosScript(drop_after_requests=(2,))
        with FlakyProxy(coordinator.address, script=script) as proxy:
            host, port = proxy.address
            with ResilientFabricClient(
                host, port, policy=FAST_RETRY, sleep=no_sleep
            ) as client:
                client.connect()
                assert client.request("status")["done"] is False
                # Ordinal 2 is swallowed and the link cut: the client
                # must redial and replay the op, invisibly to us.
                assert client.request("status")["done"] is False
                assert client.stats() == {"reconnects": 1, "replays": 1}
            assert proxy.stats()["drops_injected"] == 1

    def test_torn_frame_heals_by_replay(self, coordinator):
        script = ChaosScript(tear_after_requests=(1,))
        with FlakyProxy(coordinator.address, script=script) as proxy:
            host, port = proxy.address
            with ResilientFabricClient(
                host, port, policy=FAST_RETRY, sleep=no_sleep
            ) as client:
                assert client.request("status")["boards"] == SMALL.boards
                assert client.stats()["replays"] == 1
            assert proxy.stats()["tears_injected"] == 1

    def test_stall_is_ridden_out_within_the_op_timeout(self, coordinator):
        script = ChaosScript(
            stall_after_requests=(1,), stall_seconds=0.05
        )
        with FlakyProxy(coordinator.address, script=script) as proxy:
            host, port = proxy.address
            with ResilientFabricClient(
                host, port, policy=FAST_RETRY, sleep=no_sleep
            ) as client:
                assert client.request("status")["done"] is False
                assert client.stats() == {"reconnects": 0, "replays": 0}
            assert proxy.stats()["stalls_injected"] == 1

    def test_partition_exhausts_the_budget_then_heals(self, coordinator):
        tight = RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0)
        with FlakyProxy(coordinator.address) as proxy:
            host, port = proxy.address
            with ResilientFabricClient(
                host, port, policy=tight, sleep=no_sleep
            ) as client:
                assert client.request("status")["done"] is False
                proxy.partition()
                with pytest.raises(RetryExhaustedError) as excinfo:
                    client.request("status")
                assert isinstance(
                    excinfo.value.__cause__, FabricConnectionError
                )
                proxy.heal()
                # The same client object recovers once traffic flows.
                assert client.request("status")["done"] is False
            assert proxy.stats()["partition_rejects"] >= 1

    def test_exhaustion_against_a_dead_address_is_bounded(self):
        clock = ManualClock()
        client = ResilientFabricClient(
            "127.0.0.1",
            _dead_port(),
            policy=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0),
            clock=clock,
            sleep=clock.sleep,
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            client.connect()
        assert excinfo.value.attempts == 3
        assert clock() == 3.0  # the policy's exact schedule: 1.0 + 2.0


class TestWorkerSelfHealing:
    @pytest.mark.slow
    def test_worker_survives_drops_report_byte_identical(self, tmp_path):
        reference = reference_report_bytes(SMALL, tmp_path)
        coordinator, clock = build_coordinator(SMALL, tmp_path)
        script = ChaosScript(drop_after_requests=(2, 5, 9))
        try:
            with FlakyProxy(coordinator.address, script=script) as proxy:
                stats = drain_through_proxy(coordinator, clock, proxy)
                coordinator.run_until_complete(timeout=60)
                assert proxy.stats()["drops_injected"] == 3
        finally:
            coordinator.close()
        assert coordinator.run_dir.report_path.read_bytes() == reference
        assert sum(s.get("reconnects", 0) for s in stats) >= 3

    def test_budget_exhaustion_raises_the_documented_error(self):
        worker = FabricWorker(
            "127.0.0.1",
            _dead_port(),
            heartbeat=False,
            poll_interval=None,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.0, jitter=0.0
            ),
            sleep=no_sleep,
        )
        with pytest.raises(RetryExhaustedError):
            worker.run()

    def test_cli_work_maps_exhaustion_to_exit_4(self, capsys):
        code = main(
            [
                "campaign",
                "work",
                f"127.0.0.1:{_dead_port()}",
                "--retry-attempts",
                "2",
                "--retry-base",
                "0",
                "--no-wait",
            ]
        )
        assert code == 4
        assert "RETRY BUDGET EXHAUSTED" in capsys.readouterr().err

    def test_heartbeat_failure_is_observed_by_the_claim_loop(self):
        # The satellite pin: a heartbeat that dies must abandon the
        # board *deliberately* (early StaleLeaseError), and a failure
        # flagged against an old lease must not poison a fresh one.
        worker = FabricWorker(
            "127.0.0.1", 9, heartbeat=False, poll_interval=None
        )
        with worker._lease_lock:
            worker._current_lease = "b0e1"

        class DeadClient:
            def request(self, op, **fields):
                worker._stop_heartbeat.set()  # one tick, then stop
                raise FabricConnectionError("wire gone")

        stats = {"heartbeat_failures": 0}
        worker._heartbeat_loop(DeadClient(), 0.0, stats)
        assert stats["heartbeat_failures"] == 1
        assert worker._heartbeat_failed.is_set()
        with pytest.raises(StaleLeaseError):
            worker._check_heartbeat("b0e1")
        worker._check_heartbeat("b0e2")  # fresh lease: no poison


# ---------------------------------------------------------------------------
# coordinator-restart survival


class TestCoordinatorRestart:
    def test_timeout_is_clean_and_the_run_stays_resumable(self, tmp_path):
        # The run_until_complete contract: a timeout raises, nothing
        # else happens — still serving, close() safe, resumable to a
        # byte-identical report.
        reference = reference_report_bytes(SMALL, tmp_path)
        coordinator, _ = build_coordinator(SMALL, tmp_path)
        with pytest.raises(FabricTimeoutError) as excinfo:
            coordinator.run_until_complete(timeout=0.05)
        assert "resumable" in str(excinfo.value)
        host, port = coordinator.address  # still serving
        with FabricClient(host, port) as client:
            assert client.request("status")["done"] is False
        coordinator.close()  # safe after a timeout

        clock = ManualClock()
        resumed = FabricCoordinator.resume(
            tmp_path / "fabric",
            clock=clock,
            prep=prepare_offline_cached(SMALL),
        )
        with resumed:
            drain(resumed, clock)
            resumed.run_until_complete(timeout=60)
        assert resumed.run_dir.report_path.read_bytes() == reference

    def test_restart_readmits_workers_under_new_epochs(self, tmp_path):
        # Kill a coordinator holding an outstanding lease; the resumed
        # one (same port) must fence the old token and never re-mint
        # its epoch — the leases.json watermark contract.
        reference = reference_report_bytes(SPEC, tmp_path)
        coordinator, _ = build_coordinator(SPEC, tmp_path)
        host, port = coordinator.address
        with FabricClient(host, port) as client:
            stale = client.request("claim", worker="doomed")
        assert (tmp_path / "fabric" / "leases.json").exists()

        resumed, clock = restart_coordinator(coordinator)
        assert resumed.address == (host, port)  # same door, new epoch
        with FabricClient(host, port) as client:
            fresh = client.request("claim", worker="reborn")
            assert fresh["board"] == stale["board"]
            old_epoch = int(stale["lease"].rpartition("e")[2])
            new_epoch = int(fresh["lease"].rpartition("e")[2])
            assert new_epoch > old_epoch
            with pytest.raises(StaleLeaseError):
                client.request("heartbeat", lease=stale["lease"])
        clock.advance(31.0)  # let the probe claim expire, then drain
        with resumed:
            drain(resumed, clock)
            resumed.run_until_complete(timeout=60)
        assert resumed.run_dir.report_path.read_bytes() == reference

    @pytest.mark.slow
    def test_acceptance_chaos_drill(self, tmp_path):
        # THE acceptance drill: a two-worker campaign through a flaky
        # proxy — at least three scripted connection drops and a stall
        # per worker — plus one coordinator kill-and-resume between
        # boards, ending byte-identical to the single-host report.
        reference = reference_report_bytes(SPEC, tmp_path)
        coordinator, clock = build_coordinator(SPEC, tmp_path)
        script = ChaosScript(
            drop_after_requests=(3, 6, 9),
            stall_after_requests=(5, 12),
            stall_seconds=0.05,
        )
        proxy = FlakyProxy(coordinator.address, script=script)
        live = coordinator
        try:
            with proxy:
                proxy_host, proxy_port = proxy.address
                # Phase 1: one worker grinds a board through the worst
                # of the chaos window (drops at ordinals 3/6/9, stall
                # at 5 — every redial's re-hello shifts the stream,
                # which is exactly the point).
                first = FabricWorker(
                    proxy_host,
                    proxy_port,
                    worker_id="chaos-first",
                    poll_interval=None,
                    heartbeat=False,
                    retry_policy=FAST_RETRY,
                    sleep=no_sleep,
                )
                assert _run_single_board(first) == [0]
                # Phase 2: kill the coordinator mid-campaign and
                # resume the same run directory on the same port.
                live, clock = restart_coordinator(coordinator, clock=clock)
                # Phase 3: two workers race the rest through whatever
                # chaos remains in the script.
                drain_through_proxy(live, clock, proxy, concurrent=2)
                live.run_until_complete(timeout=60)
                stats = proxy.stats()
                assert stats["drops_injected"] >= 3
                assert stats["stalls_injected"] >= 2
        finally:
            live.close()
        assert live.run_dir.report_path.read_bytes() == reference
        telemetry = json.loads(live.run_dir.telemetry_path.read_text())
        assert telemetry["victims_attacked"] == SPEC.victims


def _run_single_board(worker: FabricWorker) -> list[int]:
    """Drive *worker* through exactly one claimed board, then stop."""
    completed: list[int] = []
    original = worker._run_board

    def run_one(client, world, spool, board, token, stats):
        original(client, world, spool, board, token, stats)
        completed.append(board)
        raise _stop()

    worker._run_board = run_one
    try:
        worker.run()
    except _StopWorker:
        pass
    return completed


class _StopWorker(Exception):
    pass


def _stop() -> _StopWorker:
    return _StopWorker()
