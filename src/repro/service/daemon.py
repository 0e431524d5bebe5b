"""The asyncio analysis daemon behind ``repro serve analysis``.

One :class:`AnalysisService` owns four things:

- a content-addressed :class:`~repro.campaign.runtime.spool.DumpSpool`
  that uploads land in (dedup by sha256 — re-uploading known residue
  costs a hash, not disk);
- a registry of named :class:`SignatureDatabase` objects that
  submissions reference by name;
- a bounded
  :class:`~repro.campaign.runtime.executors.AnalysisPool` that runs
  the pure :func:`~repro.service.analysis.analyze_dump` off the event
  loop;
- the admission layer — per-tenant
  :class:`~repro.service.quotas.TenantLedger` buckets in front of the
  pool's bounded queue.

Wire protocol (documented for clients in ``docs/service.md``): the
newline-JSON wire of :mod:`repro.wire`, shared with the campaign
fabric.  Every request carries ``op``; every response carries ``ok``.
Refusals are *answers*, not errors: ``quota`` and ``backpressure``
responses carry ``retry_after`` seconds so a client can pace itself
instead of guessing.

Threading model: handlers run on the event loop; analysis runs on the
pool's worker threads; completions re-enter the loop via
``call_soon_threadsafe``.  Because subscription registration and
delta publication both happen on the loop, a subscriber atomically
sees every delta exactly once — the snapshot-then-register sequence
cannot race a completing job.

Drain (SIGTERM): the door closes — new submissions get a ``draining``
refusal — but every accepted job still completes, streams its delta,
and lands in the final report.  Subscribers get a terminal
``{"event": "drained"}`` line before EOF.  Drain loses nothing; it
only stops taking more.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable

from repro import wire
from repro.campaign.runtime.executors import AnalysisPool
from repro.campaign.runtime.spool import DumpSpool
from repro.errors import (
    BackpressureError,
    ProtocolError,
    ServiceDrainingError,
    UnknownDatabaseError,
    UnknownJobError,
)
from repro.service.analysis import (
    CARVE_PRESETS,
    AnalysisConfig,
    AnalysisReport,
    DumpAnalysis,
    analyze_dump,
    mine_database,
)
from repro.service.quotas import TenantLedger, TenantQuotaConfig

_DEFAULT_BACKPRESSURE_HINT = 0.05
"""Advisory retry-after (seconds) when the analysis queue is full."""


@dataclass
class _Job:
    """Book-keeping for one accepted analysis job."""

    job_id: int
    tenant: str
    sha256: str
    state: str = "queued"  # queued -> done | failed
    analysis: dict | None = None
    error: str | None = None


@dataclass(eq=False)
class _Subscriber:
    """One streaming connection's outbound delta queue."""

    queue: "asyncio.Queue[dict | None]" = field(
        default_factory=asyncio.Queue
    )


class AnalysisService:
    """The analysis-as-a-service daemon (see module docstring).

    ``worker_gate`` is a test seam: when given (a
    ``threading.Event``), every pool worker waits on it before
    analyzing — clearing the gate wedges the workers so a scripted
    load can fill the bounded queue and observe real backpressure
    deterministically, then setting it releases the backlog.
    """

    def __init__(
        self,
        spool_root,
        models: tuple[str, ...],
        input_hw: int,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        queue_capacity: int = 8,
        quota_config: TenantQuotaConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
        min_score: float = 0.3,
        worker_gate=None,
    ) -> None:
        self._host = host
        self._port = port
        self._spool = DumpSpool(spool_root)
        self._databases = {"default": mine_database(tuple(models), input_hw)}
        self._pool = AnalysisPool(workers=workers, capacity=queue_capacity)
        self._ledger = TenantLedger(quota_config, clock=clock)
        self._min_score = min_score
        self._worker_gate = worker_gate
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._jobs: dict[int, _Job] = {}
        self._next_job_id = 1
        self._deltas: list[dict] = []
        self._subscribers: set[_Subscriber] = set()
        self._report = AnalysisReport()
        self._draining = False
        self._drained = asyncio.Event()
        self._failed_jobs = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and begin serving; returns the listening address."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=wire.MAX_LINE_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        return str(sockname[0]), int(sockname[1])

    @property
    def report(self) -> AnalysisReport:
        """The aggregate of every completed analysis so far."""
        return self._report

    def request_drain(self) -> None:
        """Begin the drain from any thread (the SIGTERM handler's hook)."""
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(self._begin_drain)

    def _begin_drain(self) -> None:
        if self._draining:
            return
        self._draining = True
        # Release a test-wedged pool so accepted jobs can finish.
        if self._worker_gate is not None:
            self._worker_gate.set()
        self._loop.create_task(self._finish_drain())

    async def _finish_drain(self) -> None:
        await asyncio.get_running_loop().run_in_executor(
            None, self._pool.drain
        )
        for subscriber in list(self._subscribers):
            subscriber.queue.put_nowait(None)
        self._drained.set()

    async def drained(self) -> None:
        """Wait until a requested drain has completed."""
        await self._drained.wait()

    async def close(self) -> None:
        """Stop listening and retire the pool.  Idempotent."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        self._pool.close()

    # -- connection handling -------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await wire.read_request_async(reader)
                except ProtocolError as exc:
                    await self._send(writer, wire.refusal(exc))
                    break
                if request is None:
                    break
                if request.get("op") == "subscribe":
                    await self._serve_subscription(writer)
                    return
                await self._send(
                    writer, wire.dispatch(self._OPS, self, request)
                )
        except ConnectionError:
            pass  # the peer vanished mid-exchange
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                # Cancelled: close() tore the server down mid-wait and
                # the socket is already gone, so finish quietly instead
                # of letting asyncio log a never-retrieved error.
                pass

    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(wire.encode(payload))
        await writer.drain()

    # -- ops -----------------------------------------------------------------

    def _op_hello(self, request: dict) -> dict:
        return {
            "server": "repro-analysis",
            "databases": sorted(self._databases),
            "carve_presets": sorted(CARVE_PRESETS),
            "draining": self._draining,
        }

    def _op_put_dump(self, request: dict) -> dict:
        tenant = str(request["tenant"])
        if self._draining:
            raise ServiceDrainingError("daemon is draining; upload refused")
        data, digest = wire.decode_dump(
            request["data_b64"], request.get("sha256")
        )
        self._ledger.admit_upload(tenant, len(data))
        entry = self._spool.put_bytes(data, digest)
        return {
            "sha256": entry.sha256,
            "nbytes": entry.nbytes,
            "deduplicated": entry.deduplicated,
        }

    def _op_submit(self, request: dict) -> dict:
        tenant = str(request["tenant"])
        digest = str(request["sha256"])
        if self._draining:
            raise ServiceDrainingError(
                "daemon is draining; no new jobs admitted"
            )
        if digest not in self._spool:
            raise FileNotFoundError(f"no uploaded dump with sha256 {digest}")
        database_name = str(request.get("database", "default"))
        database = self._databases.get(database_name)
        if database is None:
            raise UnknownDatabaseError(database_name)
        carve_name = str(request.get("carve", "default"))
        carve = CARVE_PRESETS.get(carve_name)
        if carve is None:
            raise ValueError(f"no carve preset named {carve_name!r}")
        self._ledger.admit_job(tenant)
        job = _Job(job_id=self._next_job_id, tenant=tenant, sha256=digest)
        config = AnalysisConfig(
            database=database, carve=carve, min_score=self._min_score
        )
        gate = self._worker_gate
        spool = self._spool
        loop = self._loop

        def run_analysis() -> DumpAnalysis:
            if gate is not None:
                gate.wait()
            with spool.open(digest) as mapped:
                return analyze_dump(mapped.data, config)

        def on_done(result, error) -> None:
            loop.call_soon_threadsafe(self._job_finished, job, result, error)

        if not self._pool.try_submit(run_analysis, on_done):
            raise BackpressureError(_DEFAULT_BACKPRESSURE_HINT)
        self._next_job_id += 1
        self._jobs[job.job_id] = job
        return {"job_id": job.job_id}

    def _op_status(self, request: dict) -> dict:
        job_id = int(request["job_id"])
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        response = {
            "job_id": job.job_id,
            "state": job.state,
            "sha256": job.sha256,
        }
        if job.analysis is not None:
            response["analysis"] = job.analysis
        if job.error is not None:
            response["error"] = job.error
        return response

    def _op_stats(self, request: dict) -> dict:
        completed = sum(
            1 for job in self._jobs.values() if job.state != "queued"
        )
        return {
            "stats": {
                "queue": self._pool.stats(),
                "tenants": self._ledger.counters(),
                "spool": self._spool.put_stats(),
                "jobs": {
                    "accepted": len(self._jobs),
                    "completed": completed,
                    "failed": self._failed_jobs,
                },
                "subscribers": len(self._subscribers),
                "draining": self._draining,
            },
        }

    _OPS: dict[str, Callable[["AnalysisService", dict], dict]] = {
        "hello": _op_hello,
        "put_dump": _op_put_dump,
        "submit": _op_submit,
        "status": _op_status,
        "stats": _op_stats,
    }

    # -- completion and streaming --------------------------------------------

    def _job_finished(self, job: _Job, result, error) -> None:
        """Runs on the event loop: record the outcome, publish the delta."""
        if error is not None:
            job.state = "failed"
            job.error = f"{type(error).__name__}: {error}"
            self._failed_jobs += 1
            event = {
                "event": "job_failed",
                "job_id": job.job_id,
                "tenant": job.tenant,
                "sha256": job.sha256,
                "error": job.error,
            }
        else:
            job.state = "done"
            job.analysis = result.to_payload()
            self._report.add(result)
            event = {
                "event": "delta",
                "job_id": job.job_id,
                "tenant": job.tenant,
                "analysis": job.analysis,
            }
        self._deltas.append(event)
        for subscriber in self._subscribers:
            subscriber.queue.put_nowait(event)

    async def _serve_subscription(self, writer: asyncio.StreamWriter) -> None:
        """Dedicate this connection to the delta stream.

        The snapshot of already-published deltas and the registration
        happen in one loop step, so no delta is missed or doubled no
        matter how the subscription interleaves with completing jobs.
        """
        subscriber = _Subscriber()
        backlog = list(self._deltas)
        already_drained = self._drained.is_set()
        self._subscribers.add(subscriber)
        try:
            await self._send(
                writer, {"ok": True, "subscribed": True, "backlog": len(backlog)}
            )
            for event in backlog:
                await self._send(writer, event)
            if not already_drained:
                while (event := await subscriber.queue.get()) is not None:
                    await self._send(writer, event)
            await self._send(
                writer, {"event": "drained", "jobs": len(self._jobs)}
            )
        finally:
            self._subscribers.discard(subscriber)


async def serve_forever(
    service: AnalysisService,
    *,
    on_listening: Callable[[str, int], None] | None = None,
) -> AnalysisReport:
    """Run *service* until a drain is requested and completes.

    Installs SIGTERM/SIGINT handlers that trigger the drain; returns
    the final aggregate report once every accepted job has finished.
    """
    import signal

    host, port = await service.start()
    # Handlers go in before the listening banner is printed: a
    # supervisor that SIGTERMs the instant it sees the banner must hit
    # the drain path, never the default kill disposition.
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, service.request_drain)
    if on_listening is not None:
        on_listening(host, port)
    try:
        await service.drained()
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(signum)
        await service.close()
    return service.report
