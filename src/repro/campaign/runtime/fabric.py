"""The distributed campaign fabric — one campaign, many hosts.

:class:`CampaignRuntime` runs boards on a local thread or shards them
across local processes; the fabric shards them across *hosts*.  A
:class:`FabricCoordinator` owns the run directory (spec, journal,
spool, report) and exposes the campaign's boards as **leases** over a
line-delimited JSON/TCP protocol; any number of
:class:`FabricWorker` processes connect, claim leases, play their
boards through the local executors' board loop
(:func:`~repro.campaign.runtime.executors.run_board`), and stream
:class:`~repro.campaign.worker.VictimOutcome` waves back.  Dumps never
ride inside outcome messages: they travel by content digest
(``dump_sha256``) with explicit upload/fetch ops against the
coordinator's content-addressed :class:`~repro.campaign.runtime.spool.
DumpSpool`, which becomes the campaign's shared artifact store.

**Wire protocol.**  The newline-JSON wire of :mod:`repro.wire` over a
plain TCP socket — its framing, refusal envelope and digest-verified
dump fields.  Ops::

    hello           -> spec + offline prep + defense profile + lease TTL
    claim           -> a board lease (or "nothing pending" / "done");
                       ``wait`` says whether the worker polls again
    heartbeat       -> extend a lease's deadline
    wave            -> journal one wave of outcomes under a lease
    board_complete  -> mark a leased board finished
    put_dump        -> upload dump bytes (verified against their digest)
    fetch_dump      -> download dump bytes by digest (verified client-side)
    status          -> observability snapshot (never mutates state)

**Lease state machine.**  Every populated, incomplete board is either
*pending*, *leased*, or *complete*.  ``claim`` moves the lowest
pending board to leased and returns a fencing token ``b<board>e<epoch>``
(the epoch increments on every re-issue).  Any authenticated op —
heartbeat, wave, board_complete — extends the lease's deadline; a
lease whose deadline passes is lazily reclaimed (board returns to
pending, epoch retired) the next time any claim or token resolution
runs, so a dead or partitioned worker's shard is simply re-issued.
Ops arriving under a retired token raise
:class:`~repro.errors.StaleLeaseError` — the fenced-off worker can
never corrupt the journal, no matter how late its messages arrive.

**Why the report is byte-identical to a single-host run.**  The
coordinator journals exactly what :class:`CampaignRuntime` journals:
outcomes (which record no host timing), deduplicated by ``job_id``
against everything already seen, plus ``board_complete`` markers.
Each board's simulation is a pure function of ``(spec, board_index,
kernel_config)``, so re-running a reclaimed board on a different worker
reproduces the identical outcomes, and replayed or duplicate messages
are no-ops.  The final report is rebuilt from the journal — completed
boards' outcomes sorted by ``job_id`` — which is the same construction
the single-host resume path uses.  Worker count, claim order, crashes,
re-claims, and duplicate deliveries therefore cannot perturb a single
byte of ``report.json``; the chaos suite (``tests/fabric_chaos.py``) pins
this under scripted kills, heartbeat loss, duplicate claims, and torn
streams.

**Self-healing.**  The transport is assumed flaky.
:class:`ResilientFabricClient` wraps every worker exchange in a
:class:`~repro.utils.resilience.RetryPolicy`-driven
reconnect-and-replay loop (safe because every op is idempotent,
deduplicated, fenced, or convergent — see its docstring), the worker's
heartbeat thread flags lease loss to the claim loop instead of dying
silently, and lease epochs are persisted to the run directory so a
*restarted* coordinator (:meth:`FabricCoordinator.resume`) re-admits
workers under fresh epochs without ever re-minting a fencing token.
Transport-level drills (``repro.campaign.runtime.netchaos.FlakyProxy``
injecting drops, torn frames, stalls, and partitions) pin the same
byte-identity contract under network chaos.
"""

from __future__ import annotations

import os
import socket
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

from repro import wire
from repro.attack.identify import SignatureDatabase
from repro.attack.profiling import ProfileStore
# Nothing here calls it (boards are provisioned inside ``run_board``),
# but perfbench's traced runs patch ``provision_board`` in this
# module's namespace by name (perfbench/spans.py), so the binding stays.
from repro.campaign.fleet import provision_board  # noqa: F401
from repro.campaign.report import CampaignReport
from repro.campaign.runtime.checkpoint import RunDirectory
from repro.campaign.runtime.executors import populated_boards, run_board
from repro.campaign.runtime.spool import DumpSpool
from repro.campaign.schedule import (
    CampaignSpec,
    build_schedule,
    jobs_by_board,
    spec_from_dict,
    spec_to_dict,
)
from repro.campaign.worker import BoardEnd, VictimOutcome
from repro.errors import (
    DumpTransferError,
    FabricConnectionError,
    FabricError,
    FabricProtocolError,
    FabricTimeoutError,
    ProtocolError,
    RetryExhaustedError,
    StaleLeaseError,
)
from repro.utils.resilience import ManualClock, RetryPolicy

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_RETRY_POLICY",
    "FABRIC_FORMAT",
    "FabricClient",
    "FabricCoordinator",
    "FabricWorker",
    "Lease",
    "LeaseTable",
    "ManualClock",  # re-exported; now lives in repro.utils.resilience
    "ResilientFabricClient",
]

FABRIC_FORMAT = 3
"""Wire-protocol version; ``hello`` refuses mismatched peers.  Format 2
outcomes carry no ``wall_seconds``/``teardown_seconds``; format 3 drops
the digest presence probe (a worker uploads each new digest once)."""

DEFAULT_LEASE_TTL = 30.0
"""Seconds a lease survives without any authenticated op."""

DEFAULT_RETRY_POLICY = RetryPolicy(
    max_attempts=6,
    base_delay=0.5,
    multiplier=2.0,
    max_delay=8.0,
    jitter=0.25,
)
"""The worker's default tolerance for a flaky or restarting
coordinator: ~16 s of exponential backoff across 6 attempts, jittered
so a restarted coordinator is not hit by every worker at once."""


@dataclass
class Lease:
    """One issued board lease — a fencing token with a deadline."""

    board: int
    epoch: int
    worker: str
    token: str
    deadline: float


class LeaseTable:
    """Board leases with fencing epochs and lazy deadline expiry.

    Not thread-safe on its own; the coordinator serializes access
    under its dispatch lock.  Expiry is *lazy*: there is no reaper
    thread — every claim or token resolution first sweeps expired
    leases back to pending, which keeps the table's behaviour a pure
    function of the injected clock (what the chaos drills rely on).
    """

    def __init__(
        self,
        boards: Iterable[int],
        ttl: float,
        clock: Callable[[], float],
        *,
        epoch_floor: dict[int, int] | None = None,
    ) -> None:
        self._pending: set[int] = set(boards)
        self._active: dict[int, Lease] = {}
        # *epoch_floor* seeds numbering above a previous coordinator's
        # watermarks, so fencing stays sound across restarts: a token
        # issued before the crash can never be re-minted after it.
        self._epochs: dict[int, int] = dict(epoch_floor or {})
        self._ttl = ttl
        self._clock = clock
        self.leases_issued = 0
        self.reclaims = 0
        self.stale_rejections = 0

    def expire(self) -> list[int]:
        """Reclaim every lease whose deadline has passed."""
        now = self._clock()
        reclaimed = [
            board
            for board, lease in self._active.items()
            if now >= lease.deadline
        ]
        for board in reclaimed:
            del self._active[board]
            self._pending.add(board)
            self.reclaims += 1
        return sorted(reclaimed)

    def claim(self, worker: str) -> Lease | None:
        """Issue the lowest pending board to *worker* (None if none).

        Each issue bumps the board's epoch, so a lease token is never
        reused: a board reclaimed from a dead worker goes back out
        under a token its previous holder does not have.
        """
        self.expire()
        if not self._pending:
            return None
        board = min(self._pending)
        self._pending.remove(board)
        epoch = self._epochs.get(board, 0) + 1
        self._epochs[board] = epoch
        lease = Lease(
            board=board,
            epoch=epoch,
            worker=worker,
            token=f"b{board}e{epoch}",
            deadline=self._clock() + self._ttl,
        )
        self._active[board] = lease
        self.leases_issued += 1
        return lease

    def resolve(self, token: str) -> Lease:
        """The live lease behind *token*; raises when fenced off."""
        self.expire()
        for lease in self._active.values():
            if lease.token == token:
                return lease
        self.stale_rejections += 1
        raise StaleLeaseError(
            token, "expired, completed, or re-issued to another worker"
        )

    def touch(self, token: str) -> Lease:
        """Resolve *token* and push its deadline out by one TTL."""
        lease = self.resolve(token)
        lease.deadline = self._clock() + self._ttl
        return lease

    def complete(self, token: str) -> int:
        """Retire *token*'s board as finished; returns the board."""
        lease = self.resolve(token)
        del self._active[lease.board]
        return lease.board

    @property
    def done(self) -> bool:
        """Every tracked board has completed."""
        return not self._pending and not self._active

    def epochs(self) -> dict[int, int]:
        """Highest epoch issued per board — the restart watermarks."""
        return dict(self._epochs)

    def snapshot(self) -> dict:
        """Counts for the ``status`` op and telemetry."""
        return {
            "pending": sorted(self._pending),
            "leased": {
                lease.token: lease.board for lease in self._active.values()
            },
            "leases_issued": self.leases_issued,
            "reclaims": self.reclaims,
            "stale_rejections": self.stale_rejections,
        }


@dataclass
class _WorkerState:
    """A worker the coordinator has heard from, as
    :meth:`FabricCoordinator.close` sees it."""

    heard: float
    """Coordinator clock when its last answered request arrived."""
    settled: bool = False
    """Answered ``done``, or an empty claim it will not poll after."""


class FabricCoordinator:
    """One campaign's lease server, journal keeper, and artifact store.

    Owns a :class:`RunDirectory` exactly like
    :class:`~repro.campaign.runtime.runner.CampaignRuntime` does — the
    same journal, the same spool, the same canonical report — but
    instead of driving executors it serves the board set to remote
    claimants.  Start it with :meth:`serve` (or the context manager),
    point workers at :attr:`address`, and :meth:`run_until_complete`
    returns the final report once every board's completion marker has
    landed.

    *clock* is injectable (see :class:`ManualClock`) so lease expiry
    is testable without real time; *defense_profile* is a profile
    *name* (kernel configs are not wire-safe — workers rebuild the
    config from the name, a pure function of name and spec);
    *prep* short-circuits offline profiling when the caller already
    has it.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        run_dir: "RunDirectory | str | os.PathLike[str]",
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.monotonic,
        prep: "tuple[ProfileStore, SignatureDatabase] | None" = None,
        defense_profile: str | None = None,
    ) -> None:
        if not isinstance(run_dir, RunDirectory):
            run_dir = RunDirectory.create(run_dir, spec)
        self._run_dir = run_dir
        self._spec = spec
        self._spool = run_dir.spool
        self._lease_ttl = lease_ttl
        self._clock = clock
        self._prep = prep
        self._defense_profile = defense_profile
        self._started = time.perf_counter()

        self._lock = threading.Lock()
        # Wakes close() whenever a request has been answered.
        self._answered_cv = threading.Condition(self._lock)
        self._finished = threading.Event()
        self._report: CampaignReport | None = None
        self._listener: wire.AcceptLoop | None = None

        journal = run_dir.load_journal()
        self._seen_jobs = {
            outcome.job_id
            for outcomes in journal.outcomes_by_board.values()
            for outcome in outcomes
        }
        self._journaled_this_run = 0
        self._duplicates_rejected = 0
        self._dumps_received = 0
        self._dumps_deduplicated = 0
        self._workers: dict[str, _WorkerState] = {}

        # Boards the schedule assigned nothing to complete at once,
        # through the local executors' own rule — the lease table only
        # ever covers populated, incomplete boards.
        populated, _ = populated_boards(
            spec,
            [
                board
                for board in range(spec.boards)
                if board not in journal.complete_boards
            ],
            lambda board, end: run_dir.mark_board_complete(board),
        )
        self._table = LeaseTable(
            populated,
            lease_ttl,
            clock,
            epoch_floor=run_dir.load_lease_epochs(),
        )
        if self._table.done:
            self._finalize()

    @classmethod
    def resume(
        cls,
        run_dir: "str | os.PathLike[str]",
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] = time.monotonic,
        prep: "tuple[ProfileStore, SignatureDatabase] | None" = None,
        defense_profile: str | None = None,
    ) -> "FabricCoordinator":
        """Reopen an interrupted run's directory and serve the rest.

        Identical to :meth:`CampaignRuntime.resume
        <repro.campaign.runtime.runner.CampaignRuntime.resume>`:
        completed boards are reused from the journal, the rest are
        leased out again, and the final report is byte-identical to
        what the uninterrupted run would have written.
        """
        directory = RunDirectory.open(run_dir)
        return cls(
            directory.load_spec(),
            directory,
            lease_ttl=lease_ttl,
            clock=clock,
            prep=prep,
            defense_profile=defense_profile,
        )

    # -- lifecycle -----------------------------------------------------------

    @property
    def run_dir(self) -> RunDirectory:
        """The run's on-disk home (journal, spool, report)."""
        return self._run_dir

    @property
    def spec(self) -> CampaignSpec:
        """The campaign being served."""
        return self._spec

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the coordinator is listening on."""
        if self._listener is None:
            raise FabricError("coordinator is not serving")
        return self._listener.address

    @property
    def done(self) -> bool:
        """Whether every board has completed and the report is written."""
        return self._finished.is_set()

    def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Start listening (``port=0`` binds an ephemeral port).

        Returns the bound address.  The accept loop runs on a daemon
        thread and each connection on a daemon thread of its own; call
        :meth:`close` (or leave the ``with`` block) to stop accepting.
        """
        if self._listener is not None:
            raise FabricError("coordinator is already serving")
        self._listener = wire.AcceptLoop(
            (host, port), self._accept, name="fabric-coordinator"
        )
        return self.address

    def close(self) -> None:
        """Stop accepting connections.  Idempotent.

        Once the campaign has finished, the listener first stays open
        until every worker that said ``hello`` or claimed is settled:
        answered
        ``done``, answered an empty claim that said it would not wait
        (``--no-wait``), or silent for one lease TTL on the
        coordinator's clock.  So a worker that polls, or one that is
        reconnecting after a dropped link, still hears ``done`` instead
        of dialing a closed port.  Before the finish nothing is owed:
        the run directory is resumable and the listener stops at once.
        Connections already open stay served either way.
        """
        if self._listener is None:
            return
        if self._finished.is_set():
            self._await_settled_workers()
        listener, self._listener = self._listener, None
        listener.close()

    def __enter__(self) -> "FabricCoordinator":
        if self._listener is None:
            self.serve()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run_until_complete(
        self, timeout: float | None = None
    ) -> CampaignReport:
        """Block until every board completes; returns the final report.

        **Clean-timeout contract.**  A timeout raises
        :class:`~repro.errors.FabricTimeoutError` and nothing else
        happens: the server keeps accepting connections, the journal,
        spool, and lease table are exactly as the last request left
        them, and outstanding leases keep expiring on the injected
        clock.  The caller may wait again, keep serving, or
        :meth:`close` — and after a close, the run directory resumes
        via :meth:`resume` to a byte-identical report.
        """
        if not self._finished.wait(timeout):
            raise FabricTimeoutError(
                f"campaign did not complete within {timeout} seconds "
                f"({self.status()['boards_pending']} board(s) pending); "
                f"the run directory remains resumable"
            )
        assert self._report is not None
        return self._report

    def status(self) -> dict:
        """A point-in-time observability snapshot (also the wire op)."""
        with self._lock:
            leases = self._table.snapshot()
            return {
                "boards": self._spec.boards,
                # A board neither pending nor leased has completed.
                "boards_complete": self._spec.boards
                - len(leases["pending"])
                - len(leases["leased"]),
                "boards_pending": len(leases["pending"]),
                "boards_leased": len(leases["leased"]),
                "leases_issued": leases["leases_issued"],
                "reclaims": leases["reclaims"],
                "stale_rejections": leases["stale_rejections"],
                "outcomes_journaled": self._journaled_this_run,
                "duplicates_rejected": self._duplicates_rejected,
                "dumps_received": self._dumps_received,
                "dumps_deduplicated": self._dumps_deduplicated,
                "workers": sorted(self._workers),
                "done": self._finished.is_set(),
            }

    # -- connections ---------------------------------------------------------

    def _accept(self, conn: socket.socket) -> None:
        threading.Thread(
            target=self._serve_connection,
            args=(conn,),
            name="fabric-connection",
            daemon=True,
        ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        """One connected peer: read a request line, write a response line.

        A torn, unparseable or over-long line gets one ``bad-request``
        refusal and the connection is dropped (see :mod:`repro.wire`);
        coordinator state is untouched either way.  ``handle_request``
        is looked up per request, so a wrapper installed on the class
        while the coordinator serves sees every op.
        """
        worker: str | None = None
        with conn, conn.makefile("rb") as stream:
            while True:
                try:
                    request = wire.read_request(stream)
                except ProtocolError as exc:
                    self._reply(conn, wire.refusal(exc))
                    return
                except OSError:
                    return
                if request is None:
                    return  # peer closed the stream
                if "worker" in request:
                    worker = str(request["worker"])
                heard = self._clock()
                response = self.handle_request(request)
                if not self._reply(conn, response):
                    return  # peer died mid-reply; its lease will expire
                self._answered(worker, heard, request, response)

    @staticmethod
    def _reply(conn: socket.socket, payload: dict) -> bool:
        try:
            conn.sendall(wire.encode(payload))
        except OSError:
            return False
        return True

    def _answered(
        self, worker: str | None, heard: float, request: dict, response: dict
    ) -> None:
        """Note a reply *worker* received to a request *heard* at that
        clock reading, and wake :meth:`close`."""
        with self._answered_cv:
            state = self._workers.get(worker)
            if state is not None:
                state.heard = heard
                if request.get("op") == "claim" and response["ok"]:
                    # A worker that polls says so in its claims; one
                    # that does not leaves after an empty answer.
                    state.settled = response["board"] is None and (
                        response["done"] or request.get("wait") is False
                    )
            self._answered_cv.notify_all()

    def _await_settled_workers(self) -> None:
        """Block until no worker is owed a ``done`` (see :meth:`close`).

        Every answered request wakes the wait; the timeout only marks
        when the next silent worker times out.
        """
        with self._answered_cv:
            while True:
                # Workers last heard before the cutoff count as silent.
                cutoff = self._clock() - self._lease_ttl
                owed = [
                    state.heard
                    for state in self._workers.values()
                    if not state.settled and state.heard > cutoff
                ]
                if not owed:
                    return
                self._answered_cv.wait(min(owed) - cutoff)

    # -- request dispatch ----------------------------------------------------

    def handle_request(self, request: dict) -> dict:
        """Serve one protocol request; typed errors become refusals."""
        return wire.dispatch(self._OPS, self, request)

    def _op_hello(self, request: dict) -> dict:
        worker = str(request.get("worker", ""))
        profiles, database = self._offline_prep()
        with self._lock:
            if worker:
                # A worker saying hello is owed a ``done`` again, even
                # if an earlier connection of its was settled.
                self._workers[worker] = _WorkerState(heard=self._clock())
        return {
            "format": FABRIC_FORMAT,
            "spec": spec_to_dict(self._spec),
            "profiles": profiles.to_json(),
            "database": database.to_payload(),
            "defense_profile": self._defense_profile,
            "lease_ttl": self._lease_ttl,
            "run_dir": str(self._run_dir.root),
        }

    def _op_claim(self, request: dict) -> dict:
        worker = str(request["worker"])
        with self._lock:
            self._workers.setdefault(worker, _WorkerState(heard=self._clock()))
            if self._table.done:
                return {"board": None, "lease": None, "done": True}
            lease = self._table.claim(worker)
            if lease is None:
                # Everything is leased out; the claimant may poll again
                # (a lease may yet expire) or exit if it won't wait.
                return {"board": None, "lease": None, "done": False}
            # Persist the watermark before the token leaves the
            # coordinator: once a worker holds it, no restart may ever
            # re-issue it.
            self._run_dir.save_lease_epochs(self._table.epochs())
            return {
                "board": lease.board,
                "lease": lease.token,
                "done": False,
            }

    def _op_heartbeat(self, request: dict) -> dict:
        with self._lock:
            lease = self._table.touch(str(request["lease"]))
            return {"board": lease.board}

    def _op_wave(self, request: dict) -> dict:
        wave = int(request["wave"])
        outcomes = [VictimOutcome(**record) for record in request["outcomes"]]
        with self._lock:
            lease = self._table.touch(str(request["lease"]))
            for outcome in outcomes:
                if outcome.board_index != lease.board:
                    raise ValueError(
                        f"outcome for board {outcome.board_index} sent "
                        f"under a lease for board {lease.board}"
                    )
                if (
                    outcome.dump_sha256 is not None
                    and outcome.dump_sha256 not in self._spool
                ):
                    # Dumps must land before the outcomes that cite
                    # them, so the journal never names an object the
                    # artifact store cannot serve.
                    raise DumpTransferError(
                        f"wave cites dump {outcome.dump_sha256[:12]}… "
                        f"but it was never uploaded"
                    )
            fresh = [
                outcome
                for outcome in outcomes
                if outcome.job_id not in self._seen_jobs
            ]
            if fresh:
                self._run_dir.append_wave(lease.board, wave, fresh)
                self._seen_jobs.update(
                    outcome.job_id for outcome in fresh
                )
                self._journaled_this_run += len(fresh)
            duplicates = len(outcomes) - len(fresh)
            self._duplicates_rejected += duplicates
            return {"accepted": len(fresh), "duplicates": duplicates}

    def _op_board_complete(self, request: dict) -> dict:
        with self._lock:
            # Only a live lease completes, so each board is marked once.
            board = self._table.complete(str(request["lease"]))
            self._run_dir.mark_board_complete(board)
            done = self._table.done
            if done and not self._finished.is_set():
                self._finalize()
            return {"board": board, "done": done}

    def _op_put_dump(self, request: dict) -> dict:
        data = wire.decode_dump(request["data"], str(request["sha256"]))
        entry = self._spool.put_bytes(data)
        with self._lock:
            self._dumps_received += 1
            if entry.deduplicated:
                self._dumps_deduplicated += 1
        return {"deduplicated": entry.deduplicated, "nbytes": entry.nbytes}

    def _op_fetch_dump(self, request: dict) -> dict:
        digest = str(request["sha256"])
        # Zero-copy on the read side: the object is mapped, encoded,
        # and unmapped — the explicit close keeps the coordinator's fd
        # table flat no matter how many fetches a campaign serves.
        with self._spool.open(digest) as mapped:
            payload = wire.encode_dump(mapped.data)
            nbytes = mapped.nbytes
        return {"data": payload, "nbytes": nbytes}

    def _op_status(self, request: dict) -> dict:
        del request
        return self.status()

    _OPS: dict[str, Callable[["FabricCoordinator", dict], dict]] = {
        "hello": _op_hello,
        "claim": _op_claim,
        "heartbeat": _op_heartbeat,
        "wave": _op_wave,
        "board_complete": _op_board_complete,
        "put_dump": _op_put_dump,
        "fetch_dump": _op_fetch_dump,
        "status": _op_status,
    }

    # -- internals -----------------------------------------------------------

    def _offline_prep(self) -> tuple[ProfileStore, SignatureDatabase]:
        if self._prep is None:
            # Imported here: the engine imports this package for its
            # executor plumbing, so a module-level import would be
            # cyclic (same shape as the runtime's runner).
            from repro.campaign.engine import prepare_offline_cached

            self._prep = prepare_offline_cached(self._spec)
        return self._prep

    def _finalize(self) -> None:
        """Rebuild the canonical report from the journal and persist it.

        The journal is the single source of truth: completed boards'
        outcomes, deduplicated by ``job_id``, go through the same
        :meth:`RunDirectory.write_report` as :class:`CampaignRuntime`,
        which is what makes the fabric's report byte-identical to a
        single-host run's.
        """
        journal = self._run_dir.load_journal()
        report = self._run_dir.write_report(
            self._spec, journal.reusable_outcomes()
        )
        leases = self._table.snapshot()
        self._run_dir.write_telemetry(
            {
                "complete": True,
                "executor": "fabric",
                "workers": sorted(self._workers),
                "lease_ttl": self._lease_ttl,
                "leases_issued": leases["leases_issued"],
                "lease_reclaims": leases["reclaims"],
                "stale_rejections": leases["stale_rejections"],
                "duplicates_rejected": self._duplicates_rejected,
                "outcomes_journaled_this_run": self._journaled_this_run,
                "dumps_received": self._dumps_received,
                "dumps_deduplicated": self._dumps_deduplicated,
                "victims_attacked": report.victims,
                "victims_leaked": sum(
                    outcome.succeeded for outcome in report.outcomes
                ),
                "wall_seconds": round(
                    time.perf_counter() - self._started, 6
                ),
                "spool_bytes": self._spool.total_bytes(),
                "spool_objects": len(self._spool.digests()),
            }
        )
        self._report = report
        self._finished.set()


class _DumpWireOps:
    """Dump upload and download, shared by both client flavours.

    Anything with a ``request(op, **fields)`` method gets them;
    :class:`ResilientFabricClient` inherits these unchanged, so a dump
    fetched across a reconnect is still re-hashed on arrival.
    """

    def request(self, op: str, **fields) -> dict:
        raise NotImplementedError

    def put_dump(self, data: bytes) -> dict:
        """Upload raw dump bytes under their own digest."""
        return self.request("put_dump", **wire.dump_fields(data, "data"))

    def fetch_dump(self, sha256: str) -> bytes:
        """Download an object by digest, verifying it client-side.

        The coordinator's store is trusted but the transport is not:
        the payload is re-hashed on arrival and a mismatch raises
        :class:`DumpTransferError` instead of returning corrupt bytes.
        """
        response = self.request("fetch_dump", sha256=sha256)
        return wire.decode_dump(response["data"], sha256)


class FabricClient(_DumpWireOps):
    """One line-oriented JSON connection to a coordinator.

    Thread-safe: a lock serializes request/response pairs, so a
    worker's heartbeat thread can share its main loop's connection.
    Error responses map back onto the fabric exception hierarchy
    (``stale-lease`` → :class:`StaleLeaseError`, digest trouble →
    :class:`DumpTransferError`, everything else →
    :class:`FabricProtocolError`), and *transport* deaths — refused,
    reset, timed out, or closed mid-frame — raise the retryable
    subclass :class:`~repro.errors.FabricConnectionError` so a policy
    layer can tell "the wire died" from "the coordinator said no".
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 60.0,
    ) -> None:
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout
            )
        except OSError as exc:
            raise FabricConnectionError(
                f"cannot reach coordinator at {host}:{port}: {exc}"
            ) from exc
        self._file = self._sock.makefile("rwb")
        self._lock = threading.Lock()
        self._closed = False

    def request(self, op: str, **fields) -> dict:
        """Send one op and return its decoded ``ok`` response."""
        line = wire.encode({"op": op, **fields})
        with self._lock:
            if self._closed:
                raise FabricProtocolError(
                    f"client already closed (sending {op!r})"
                )
            try:
                self._file.write(line)
                self._file.flush()
                answer = self._file.readline()
            except OSError as exc:
                raise FabricConnectionError(
                    f"connection lost during {op!r}: {exc}"
                ) from exc
        if not answer:
            raise FabricConnectionError(
                f"coordinator closed the stream during {op!r}"
            )
        if not answer.endswith(b"\n"):
            # The stream died mid-frame: a response prefix arrived and
            # then EOF.  Retryable — the reply was lost, not malformed.
            raise FabricConnectionError(
                f"response to {op!r} cut off mid-frame"
            )
        try:
            response = wire.decode(answer)
        except ProtocolError as exc:
            raise FabricProtocolError(
                f"unparseable response to {op!r}"
            ) from exc
        if not response.get("ok"):
            code = response.get("code")
            error = str(response.get("error", "unspecified fabric error"))
            if code == "stale-lease":
                raise StaleLeaseError(
                    str(fields.get("lease", "?")), error
                )
            if code in ("digest-mismatch", "unknown-digest"):
                raise DumpTransferError(error)
            raise FabricProtocolError(f"{code}: {error}")
        return response

    def send_raw(self, data: bytes) -> None:
        """Write raw bytes to the stream — the chaos harness's torn-
        stream injection point.  No response is read."""
        with self._lock:
            if self._closed:
                raise FabricProtocolError(
                    "client already closed (sending raw bytes)"
                )
            try:
                self._file.write(data)
                self._file.flush()
            except OSError as exc:
                raise FabricConnectionError(
                    f"connection lost during raw send: {exc}"
                ) from exc

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._file.close()
            finally:
                self._sock.close()

    def __enter__(self) -> "FabricClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ResilientFabricClient(_DumpWireOps):
    """A fabric client that survives the wire: redial, re-handshake,
    replay.

    Wraps :class:`FabricClient` with a
    :class:`~repro.utils.resilience.RetryPolicy`-driven
    reconnect-and-replay loop.  When an op dies with
    :class:`~repro.errors.FabricConnectionError` — dial refused,
    reset mid-exchange, reply lost — the client drops the dead
    connection, backs off per the policy, redials, runs the
    *handshake* hook on the fresh connection, and re-sends the
    in-flight op.

    **Why replay is safe.**  Every fabric op is either idempotent
    (``hello``, ``heartbeat``, ``fetch_dump``, ``status``), deduplicated
    by content (``put_dump`` by digest, ``wave`` by ``job_id``), or
    fenced (``board_complete`` under a lease token — a replay after the
    first copy landed gets a benign :class:`StaleLeaseError`).  The one
    non-idempotent op, ``claim``, is *convergent*: if the original claim
    landed but its reply was lost, the orphaned lease simply expires and
    the board re-issues.  So at-least-once delivery can never corrupt the
    journal — the property the chaos drills pin.

    Non-retryable errors — :class:`StaleLeaseError`,
    :class:`DumpTransferError`, protocol violations — propagate
    immediately: the coordinator *answered*; retrying would just
    repeat the answer.  When the retry budget runs out the last
    connection error surfaces as
    :class:`~repro.errors.RetryExhaustedError`.

    Thread-safe like :class:`FabricClient`: a worker's heartbeat
    thread shares the connection, and redials are serialized so
    concurrent failures produce one reconnect, not a stampede.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        timeout: float = 60.0,
        handshake: "Callable[[FabricClient], None] | None" = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._host = host
        self._port = port
        self._policy = policy
        self._timeout = timeout
        self._handshake = handshake
        self._clock = clock
        self._sleep = sleep
        self._conn_lock = threading.Lock()
        self._client: FabricClient | None = None
        self._dialed_once = False
        self._closed = False
        self.reconnects = 0
        self.replays = 0

    def connect(self) -> None:
        """Dial (and handshake) eagerly, under the retry policy.

        Optional — the first :meth:`request` dials lazily — but a
        worker calls this up front so "coordinator never reachable"
        surfaces before any lease is claimed.
        """
        self._policy.call(
            self._ensure_connected,
            retry_on=(FabricConnectionError,),
            clock=self._clock,
            sleep=self._sleep,
            op=f"connect to {self._host}:{self._port}",
        )

    def request(self, op: str, **fields) -> dict:
        """Send one op, reconnecting and replaying until it lands.

        Raises :class:`~repro.errors.RetryExhaustedError` (with the
        final :class:`FabricConnectionError` as ``__cause__``) once
        the policy's attempt or deadline budget is spent.
        """
        sent_once = [False]

        def attempt() -> dict:
            client = self._ensure_connected()
            if sent_once[0]:
                with self._conn_lock:
                    self.replays += 1
            sent_once[0] = True
            try:
                return client.request(op, **fields)
            except FabricConnectionError:
                self._drop(client)
                raise

        return self._policy.call(
            attempt,
            retry_on=(FabricConnectionError,),
            clock=self._clock,
            sleep=self._sleep,
            op=f"fabric op {op!r}",
        )

    def send_raw(self, data: bytes) -> None:
        """Raw bytes onto the *current* connection — chaos injection
        point; never retried (raw bytes are not a replayable op)."""
        self._ensure_connected().send_raw(data)

    def stats(self) -> dict:
        """Reconnect/replay counters for telemetry and drills."""
        with self._conn_lock:
            return {"reconnects": self.reconnects, "replays": self.replays}

    def close(self) -> None:
        with self._conn_lock:
            self._closed = True
            client, self._client = self._client, None
        if client is not None:
            client.close()

    def __enter__(self) -> "ResilientFabricClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals -----------------------------------------------------------

    def _ensure_connected(self) -> FabricClient:
        with self._conn_lock:
            if self._closed:
                raise FabricProtocolError("client already closed")
            if self._client is not None:
                return self._client
            reconnecting = self._dialed_once
        client = FabricClient(
            self._host, self._port, timeout=self._timeout
        )
        try:
            if self._handshake is not None:
                self._handshake(client)
        except BaseException:
            client.close()
            raise
        with self._conn_lock:
            if self._closed:
                client.close()
                raise FabricProtocolError("client already closed")
            if self._client is not None:
                # Another thread won the redial race; use its link.
                client.close()
                return self._client
            self._client = client
            self._dialed_once = True
            if reconnecting:
                self.reconnects += 1
        return client

    def _drop(self, client: FabricClient) -> None:
        """Discard a connection an op just died on."""
        with self._conn_lock:
            if self._client is client:
                self._client = None
        client.close()


class _SimulatedWorkerDeath(Exception):
    """Internal: the worker's scripted death point fired."""


class FabricWorker:
    """A remote board runner: claim leases, run boards, stream waves.

    ``run()`` connects, learns the campaign from ``hello`` (spec,
    offline prep, defense profile name — everything a board simulation
    needs travels by value), then loops: claim a board, play it
    through :func:`~repro.campaign.runtime.executors.run_board` (the
    local executors' loop, with no scrape delay) with sinks that upload
    each wave's new dumps *before* the wave itself and mark the board
    complete after its last wave.

    Fault-injection knobs, mirroring ``interrupt_after`` on the local
    runtime: *die_after_waves* kills the worker (stops everything,
    completes nothing further) once it has shipped that many waves of
    its current board — ``0`` dies mid-wave, after the wave's dumps
    uploaded but before the outcomes ship.  The chaos harness
    subclasses this class and overrides the ``_before_*`` hooks for
    sharper faults (torn streams, duplicate sends, heartbeat loss).

    *poll_interval=None* makes ``run()`` return as soon as no lease is
    claimable (drain-and-exit — what in-process drills want);
    otherwise the worker polls until the campaign is done.  Each claim
    says which (its ``wait`` field), so a finished coordinator knows
    whether to keep listening until this worker hears ``done``.

    **Self-healing.**  All traffic flows through a
    :class:`ResilientFabricClient` under *retry_policy*: connection
    loss and coordinator restarts are outages to ride out
    (redial, re-handshake, replay), not fatal errors.  A board whose
    lease was lost during an outage — observed as
    :class:`StaleLeaseError` on the next op, or flagged by the
    heartbeat thread — is abandoned cleanly and the worker claims
    fresh work.  When the coordinator stays unreachable past the
    policy's budget, ``run()`` raises
    :class:`~repro.errors.RetryExhaustedError`, which ``repro
    campaign work`` maps to its documented exit code 4.  *clock* and
    *sleep* are injectable so retry drills run on
    :class:`ManualClock` with zero wall-clock waits.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        worker_id: str | None = None,
        spool_dir: str | os.PathLike[str] | None = None,
        poll_interval: float | None = 0.2,
        heartbeat: bool = True,
        die_after_waves: int | None = None,
        timeout: float = 60.0,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self._host = host
        self._port = port
        self.worker_id = worker_id or (
            f"{socket.gethostname()}-{os.getpid()}"
        )
        self._spool_dir = spool_dir
        self._poll_interval = poll_interval
        self._heartbeat = heartbeat
        self._die_after_waves = die_after_waves
        self._timeout = timeout
        self._retry_policy = retry_policy
        self._clock = clock
        self._sleep = sleep
        self._uploaded: set[str] = set()
        self._lease_lock = threading.Lock()
        self._current_lease: str | None = None
        self._stop_heartbeat = threading.Event()
        self._heartbeat_failed = threading.Event()
        self._heartbeat_failed_token: str | None = None
        self._last_hello: dict | None = None

    def run(self) -> dict:
        """Work the campaign until drained, done, or scripted death.

        Returns a stats dict (boards completed/abandoned, waves and
        dumps shipped, reconnects/replays survived, whether the
        scripted death fired) — the chaos tests and the CLI both read
        it.  Raises :class:`~repro.errors.RetryExhaustedError` when
        the coordinator stays unreachable past the retry budget.
        """
        stats = {
            "worker": self.worker_id,
            "boards_completed": [],
            "boards_abandoned": [],
            "waves_sent": 0,
            "outcomes_sent": 0,
            "dumps_uploaded": 0,
            "dumps_deduplicated": 0,
            "stale_leases": 0,
            "reconnects": 0,
            "replays": 0,
            "heartbeat_failures": 0,
            "died": False,
        }
        scratch: tempfile.TemporaryDirectory | None = None
        if self._spool_dir is None:
            scratch = tempfile.TemporaryDirectory(prefix="fabric-worker-")
            spool_root = scratch.name
        else:
            spool_root = os.fspath(self._spool_dir)
        heartbeat_thread: threading.Thread | None = None
        client = ResilientFabricClient(
            self._host,
            self._port,
            policy=self._retry_policy,
            timeout=self._timeout,
            handshake=self._verify_peer,
            clock=self._clock,
            sleep=self._sleep,
        )
        try:
            with client:
                # Eager dial: "coordinator never reachable" surfaces
                # here, before any lease is claimed.  The handshake
                # hook re-runs on every redial, so a restarted
                # coordinator re-admits this worker automatically.
                client.connect()
                assert self._last_hello is not None
                world = self._build_world(self._last_hello)
                if self._heartbeat:
                    heartbeat_thread = threading.Thread(
                        target=self._heartbeat_loop,
                        args=(client, world["lease_ttl"] / 3.0, stats),
                        name=f"fabric-heartbeat-{self.worker_id}",
                        daemon=True,
                    )
                    heartbeat_thread.start()
                self._claim_loop(
                    client, world, DumpSpool(spool_root), stats
                )
        except _SimulatedWorkerDeath:
            stats["died"] = True
        finally:
            self._stop_heartbeat.set()
            if heartbeat_thread is not None:
                heartbeat_thread.join(timeout=5)
            if scratch is not None:
                scratch.cleanup()
            stats.update(client.stats())
        return stats

    # -- the work loop -------------------------------------------------------

    def _verify_peer(self, client: FabricClient) -> None:
        """The (re)handshake: runs on every dial, first and redials.

        Registers the worker, refuses a format-incompatible
        coordinator, and keeps the latest ``hello`` payload for
        :meth:`_build_world`.
        """
        hello = client.request("hello", worker=self.worker_id)
        if hello["format"] != FABRIC_FORMAT:
            raise FabricProtocolError(
                f"coordinator speaks fabric format {hello['format']}, "
                f"this worker speaks {FABRIC_FORMAT}"
            )
        self._last_hello = hello

    def _build_world(self, hello: dict) -> dict:
        spec = spec_from_dict(hello["spec"])
        kernel_config = None
        if hello.get("defense_profile"):
            # Imported here to keep the defense arena optional for
            # undefended fleets (and the import graph acyclic).
            from repro.defense.profiles import defense_profile

            kernel_config = defense_profile(
                hello["defense_profile"]
            ).kernel_config(spec)
        return {
            "spec": spec,
            "profiles": ProfileStore.from_json(hello["profiles"]),
            "database": SignatureDatabase.from_payload(hello["database"]),
            "kernel_config": kernel_config,
            "grouped": jobs_by_board(build_schedule(spec)),
            "lease_ttl": float(hello["lease_ttl"]),
        }

    def _claim_loop(
        self,
        client: "ResilientFabricClient",
        world: dict,
        spool: DumpSpool,
        stats: dict,
    ) -> None:
        while True:
            claim = client.request(
                "claim",
                worker=self.worker_id,
                wait=self._poll_interval is not None,
            )
            if claim["board"] is None:
                if claim["done"] or self._poll_interval is None:
                    return
                self._sleep(self._poll_interval)
                continue
            board, token = int(claim["board"]), str(claim["lease"])
            with self._lease_lock:
                self._current_lease = token
                # A failure flagged against some *previous* lease must
                # not poison this fresh one.
                self._heartbeat_failed_token = None
                self._heartbeat_failed.clear()
            try:
                self._run_board(
                    client, world, spool, board, token, stats
                )
                stats["boards_completed"].append(board)
            except StaleLeaseError:
                # Fenced off: the lease expired (or the harness raced
                # us) and the board belongs to someone else now.  Drop
                # it and claim fresh work; the journal never saw our
                # late messages.
                stats["stale_leases"] += 1
                stats["boards_abandoned"].append(board)
            finally:
                with self._lease_lock:
                    self._current_lease = None

    def _run_board(
        self,
        client: "ResilientFabricClient",
        world: dict,
        spool: DumpSpool,
        board: int,
        token: str,
        stats: dict,
    ) -> None:
        """Play leased *board* through the local board loop; its sinks
        ship each wave (dumps first) and then the completion marker."""
        waves_sent = 0

        def on_wave(
            index: int, wave: int, outcomes: "list[VictimOutcome]"
        ) -> None:
            nonlocal waves_sent
            self._check_heartbeat(token)
            self._ship_dumps(client, spool, outcomes, stats)
            if (
                self._die_after_waves is not None
                and waves_sent >= self._die_after_waves
            ):
                # Mid-wave death: this wave's dumps are uploaded but
                # its outcomes never ship — the orphaned objects are
                # harmless (content-addressed, reclaimed on re-run).
                raise _SimulatedWorkerDeath()
            self._before_wave_send(client, token, board, wave, outcomes)
            client.request(
                "wave",
                lease=token,
                wave=wave,
                outcomes=[asdict(outcome) for outcome in outcomes],
            )
            waves_sent += 1
            stats["waves_sent"] += 1
            stats["outcomes_sent"] += len(outcomes)

        def on_board_complete(index: int, end: BoardEnd) -> None:
            self._before_board_complete(client, token, board)
            client.request("board_complete", lease=token)

        run_board(
            world["spec"],
            board,
            world["grouped"][board],
            world["profiles"],
            world["database"],
            world["kernel_config"],
            scrape_delay_ticks=0,
            spool=spool,
            on_wave=on_wave,
            on_board_complete=on_board_complete,
        )

    def _check_heartbeat(self, token: str) -> None:
        """Abandon the board when the heartbeat thread lost its lease.

        Without this check a worker whose heartbeats were silently
        failing would grind through an entire board the coordinator
        already re-leased, discover the fencing only at the final op,
        and waste the whole shard's work.  The event turns that into a
        deliberate, early abandon.
        """
        if not self._heartbeat_failed.is_set():
            return
        with self._lease_lock:
            failed = self._heartbeat_failed_token
        if failed == token:
            raise StaleLeaseError(
                token, "heartbeat failure observed by the claim loop"
            )

    def _ship_dumps(
        self,
        client: "ResilientFabricClient",
        spool: DumpSpool,
        outcomes: "list[VictimOutcome]",
        stats: dict,
    ) -> None:
        for outcome in outcomes:
            digest = outcome.dump_sha256
            if digest is None or digest in self._uploaded:
                continue
            # The coordinator files by content and says whether it
            # already held the bytes, so one request per new digest.
            response = client.put_dump(spool.read(digest))
            self._uploaded.add(digest)
            stats["dumps_uploaded"] += 1
            if response["deduplicated"]:
                stats["dumps_deduplicated"] += 1

    def _heartbeat_loop(
        self,
        client: "ResilientFabricClient",
        interval: float,
        stats: dict,
    ) -> None:
        while not self._stop_heartbeat.wait(max(interval, 0.05)):
            with self._lease_lock:
                token = self._current_lease
            if token is None:
                continue
            try:
                client.request("heartbeat", lease=token)
            except (FabricError, RetryExhaustedError):
                # The lease is stale, or the coordinator stayed
                # unreachable past the retry budget — either way this
                # lease cannot be trusted anymore.  Flag it so the
                # claim loop abandons the board *deliberately* instead
                # of silently working a shard the coordinator may
                # already have re-issued to someone else.
                with self._lease_lock:
                    if self._current_lease == token:
                        self._heartbeat_failed_token = token
                        self._heartbeat_failed.set()
                stats["heartbeat_failures"] += 1

    # -- chaos hooks ---------------------------------------------------------

    def _before_wave_send(
        self,
        client: "ResilientFabricClient",
        token: str,
        board: int,
        wave: int,
        outcomes: "list[VictimOutcome]",
    ) -> None:
        """Called after a wave's dumps are uploaded, before its
        outcomes ship.  The chaos harness overrides this to tear
        streams, duplicate sends, or die at exact points."""

    def _before_board_complete(
        self, client: "ResilientFabricClient", token: str, board: int
    ) -> None:
        """Called after a board's last wave shipped, before its
        completion marker.  Chaos override point."""
