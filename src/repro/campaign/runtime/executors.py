"""Campaign executors — how board shards actually get scheduled.

Both executors present one contract: given a spec and a set of board
indices, run each board's waves and stream results through two
callbacks — ``on_wave(board, wave, outcomes)`` as each wave completes
and ``on_board_complete(board, end)`` once a board's whole schedule
has been delivered, with the board's
:class:`~repro.campaign.worker.BoardEnd` counters.  Both play each
board through one loop, :func:`_run_board`, and take the attacker's
latency as plain data (``scrape_delay_ticks``), so a defended campaign
runs on either.  The caller (the engine for plain runs, the
:class:`~repro.campaign.runtime.runner.CampaignRuntime` for
checkpointed ones) owns ordering, journaling, and aggregation; the
executor owns only placement and transport.

- :class:`InProcessExecutor` — the boards, in schedule order, on one
  worker thread in the calling process, sharing the prepped
  :class:`ProfileStore` and the compiled signature automaton by
  reference.  The right choice for small fleets.
- :class:`MultiprocessExecutor` — boards sharded round-robin across
  one child process per shard, started for one run and joined before
  it returns.  A forked child inherits the spec and the offline prep
  as they are (a spawned one unpickles them), provisions only its own
  boards, and streams :class:`VictimOutcome` objects and board ends
  back over one queue.  Because a board simulation is a pure function
  of ``(spec, board_index)``, the outcomes are **identical** to the
  in-process executor's — the regression suite pins this.

:func:`resolve_executor` applies the default placement policy: fleets
of :data:`MULTIPROCESS_AUTO_BOARDS` boards or more go multiprocess,
smaller ones stay in-process where there is no process to start and
the shared automaton is warm.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence

from repro.attack.config import AttackConfig
from repro.attack.identify import SignatureDatabase
from repro.attack.profiling import ProfileStore
from repro.campaign.fleet import provision_board
from repro.campaign.runtime.spool import DumpSpool
from repro.campaign.schedule import (
    CampaignSpec,
    VictimJob,
    build_schedule,
    jobs_by_board,
)
from repro.campaign.worker import BoardEnd, BoardWorker, VictimOutcome
from repro.petalinux.kernel import KernelConfig

WaveSink = Callable[[int, int, list[VictimOutcome]], None]
"""``on_wave(board_index, wave, outcomes)`` — invoked as each wave
completes.  The in-process executor calls it from its worker threads
(one by default); the multiprocess executor serializes calls through
its parent-side queue drain.  Raising
:class:`~repro.errors.CampaignInterrupted` from the sink aborts the
run (the runtime's fault-injection point)."""

BoardSink = Callable[[int, BoardEnd], None]
"""``on_board_complete(board_index, end)`` — every wave of the board
has been delivered to the wave sink; *end* holds the board kernel's
end-of-run counters.  Called from the same threads as the wave sink."""

MULTIPROCESS_AUTO_BOARDS = 8
"""Fleet size at which ``executor="auto"`` switches to processes."""

_QUEUE_POLL_SECONDS = 1.0

_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)
"""Fork where the platform offers it, so shards inherit the prep
objects instead of unpickling them."""


class CampaignExecutionError(RuntimeError):
    """A shard process died; carries its formatted traceback."""


def resolve_executor(
    spec: CampaignSpec,
    executor: "str | InProcessExecutor | MultiprocessExecutor" = "auto",
    *,
    processes: int | None = None,
) -> "InProcessExecutor | MultiprocessExecutor":
    """Turn an executor name (or instance) into a ready executor.

    ``"auto"`` picks processes for fleets of
    :data:`MULTIPROCESS_AUTO_BOARDS`+ boards, in-process otherwise.
    Passing an executor instance returns it unchanged.
    """
    if not isinstance(executor, str):
        return executor
    name = executor
    if name == "auto":
        name = (
            "multiprocess"
            if spec.boards >= MULTIPROCESS_AUTO_BOARDS
            else "inprocess"
        )
    if name == "inprocess":
        return InProcessExecutor()
    if name == "multiprocess":
        return MultiprocessExecutor(processes=processes)
    raise ValueError(
        f"unknown executor {executor!r} "
        f"(expected 'auto', 'inprocess', or 'multiprocess')"
    )


def _populated_boards(
    spec: CampaignSpec,
    board_indices: Iterable[int],
    on_board_complete: BoardSink,
) -> tuple[list[int], dict[int, list]]:
    """The requested boards that actually have jobs, plus the grouping.

    Boards the schedule assigned nothing to are reported complete
    immediately, with an all-zero end — no provisioning, no worker.
    """
    grouped = jobs_by_board(build_schedule(spec))
    populated = [index for index in board_indices if grouped.get(index)]
    populated_set = set(populated)
    for index in board_indices:
        if index not in populated_set:
            on_board_complete(index, BoardEnd())
    return populated, grouped


def _run_board(
    spec: CampaignSpec,
    index: int,
    jobs: list[VictimJob],
    profiles: ProfileStore,
    database: SignatureDatabase,
    kernel_config: KernelConfig | None,
    scrape_delay_ticks: int,
    spool: DumpSpool | None,
    on_wave: WaveSink,
    on_board_complete: BoardSink,
) -> None:
    """Provision board *index*, play *jobs* wave by wave, report its end.

    The one board loop of both executors: the in-process executor
    calls it on its worker thread, a shard process once per board with
    sinks that feed the result queue.
    """
    worker = BoardWorker(
        provision_board(spec, index, kernel_config),
        profiles,
        database,
        AttackConfig(coalesce_reads=spec.coalesce_reads),
        scrape_delay_ticks=scrape_delay_ticks,
        spool=spool,
    )
    for wave, outcomes in worker.iter_waves(jobs):
        on_wave(index, wave, outcomes)
    on_board_complete(index, worker.end())


class InProcessExecutor:
    """Boards on *max_workers* threads (default one), sharing the prep.

    The boards are pure-Python simulations that serialize on the
    interpreter lock, so extra threads only add hand-offs: the default
    worker thread runs the boards one after another in schedule order.
    """

    name = "inprocess"

    def __init__(self, max_workers: int | None = None) -> None:
        self._max_workers = max_workers

    def run(
        self,
        spec: CampaignSpec,
        board_indices: Sequence[int],
        profiles: ProfileStore,
        database: SignatureDatabase,
        *,
        kernel_config: KernelConfig | None = None,
        scrape_delay_ticks: int = 0,
        spool: DumpSpool | None = None,
        on_wave: WaveSink,
        on_board_complete: BoardSink,
    ) -> None:
        """Run the boards on the worker threads, streaming waves out.

        When a sink raises (the runtime's interrupt point), boards not
        yet started are cancelled and boards already running stop at
        their next wave: the runtime's sink keeps raising, without
        journaling, once it has raised.
        """
        populated, grouped = _populated_boards(
            spec, board_indices, on_board_complete
        )
        if not populated:
            return
        pool = ThreadPoolExecutor(max_workers=self._max_workers or 1)
        futures = [
            pool.submit(
                _run_board,
                spec,
                index,
                grouped[index],
                profiles,
                database,
                kernel_config,
                scrape_delay_ticks,
                spool,
                on_wave,
                on_board_complete,
            )
            for index in populated
        ]
        try:
            for future in futures:
                future.result()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


def _run_shard(
    spec: CampaignSpec,
    board_indices: tuple[int, ...],
    profiles: ProfileStore,
    database: SignatureDatabase,
    kernel_config: KernelConfig | None,
    scrape_delay_ticks: int,
    spool_root: str | None,
    queue: "multiprocessing.Queue",
    shard_index: int,
) -> None:
    """Run one shard of boards in a child process, streaming results.

    A forked child inherits the prep objects as they are; a spawned
    one unpickles them.  Outcomes and board ends go onto *queue* as
    they complete, followed by ``("shard_done", shard_index)``; a
    failure ships its traceback instead.
    """
    board = -1
    try:
        spool = DumpSpool(spool_root) if spool_root is not None else None
        grouped = jobs_by_board(build_schedule(spec))
        for board in board_indices:
            _run_board(
                spec,
                board,
                grouped[board],
                profiles,
                database,
                kernel_config,
                scrape_delay_ticks,
                spool,
                lambda *wave: queue.put(("wave", *wave)),
                lambda *end: queue.put(("board_complete", *end)),
            )
    except Exception:  # noqa: BLE001 — ship the traceback to the parent
        queue.put(("error", board, traceback.format_exc()))
        return
    queue.put(("shard_done", shard_index))


class MultiprocessExecutor:
    """Boards sharded round-robin across one process per shard.

    Each :meth:`run` starts its shard processes and joins them before
    returning, so no process outlives the run that needed it.
    """

    name = "multiprocess"

    def __init__(self, processes: int | None = None) -> None:
        self._processes = processes

    def run(
        self,
        spec: CampaignSpec,
        board_indices: Sequence[int],
        profiles: ProfileStore,
        database: SignatureDatabase,
        *,
        kernel_config: KernelConfig | None = None,
        scrape_delay_ticks: int = 0,
        spool: DumpSpool | None = None,
        on_wave: WaveSink,
        on_board_complete: BoardSink,
    ) -> None:
        """Shard the boards over child processes and drain their queue.

        The parent provisions nothing: each shard rebuilds the
        schedule, boots only its own boards, and writes dumps straight
        into the shared spool through a handle of its own (one
        segment per shard, so writers never share a file).  Sinks run
        on the parent thread in
        queue-arrival order; a sink raising, or a shard failing,
        aborts the run and terminates the shards — exactly the crash
        the checkpoint journal is designed to survive.
        """
        populated, _ = _populated_boards(
            spec, board_indices, on_board_complete
        )
        if not populated:
            return

        shard_count = min(
            self._processes or os.cpu_count() or 1, len(populated)
        )
        results = _CONTEXT.Queue()
        spool_root = str(spool.root) if spool is not None else None
        shards = [
            _CONTEXT.Process(
                target=_run_shard,
                args=(
                    spec,
                    tuple(populated[shard_index::shard_count]),
                    profiles,
                    database,
                    kernel_config,
                    scrape_delay_ticks,
                    spool_root,
                    results,
                    shard_index,
                ),
                daemon=True,
            )
            for shard_index in range(shard_count)
        ]
        for shard in shards:
            shard.start()
        done_shards: set[int] = set()
        completed = False
        try:
            while len(done_shards) < shard_count:
                # Poll in short slices so a shard that died without a
                # word (OOM kill, spawn bootstrap failure) is detected
                # promptly.  A slow-but-alive fleet is never timed
                # out, and a shard that exited cleanly has already
                # flushed its last messages into the queue's pipe.
                try:
                    message = results.get(timeout=_QUEUE_POLL_SECONDS)
                except queue_module.Empty:
                    dead = [
                        shard_index
                        for shard_index, shard in enumerate(shards)
                        if shard_index not in done_shards
                        and shard.exitcode not in (None, 0)
                    ]
                    if dead:
                        raise CampaignExecutionError(
                            f"board-shard process(es) {dead} exited "
                            f"without reporting completion (killed "
                            f"before or outside the shard loop)"
                        ) from None
                    continue
                kind = message[0]
                if kind == "wave":
                    _, board, wave, outcomes = message
                    on_wave(board, wave, outcomes)
                elif kind == "board_complete":
                    on_board_complete(message[1], message[2])
                elif kind == "error":
                    raise CampaignExecutionError(
                        f"board shard died around board {message[1]}:\n"
                        f"{message[2]}"
                    )
                elif kind == "shard_done":
                    done_shards.add(message[1])
            completed = True
        finally:
            for shard in shards:
                if not completed:
                    shard.terminate()
                shard.join()
            results.close()


class AnalysisPool:
    """A bounded worker pool for service analysis jobs.

    The board executors above schedule *simulations*; this pool
    schedules the service daemon's *pure analysis* callables
    (:func:`repro.service.analysis.analyze_dump` closures) with the
    one property the daemon's admission control needs: a **bounded**
    queue whose fullness is observable at submit time.
    :meth:`try_submit` never blocks and never buffers beyond
    ``capacity`` — a full queue returns ``False`` and the daemon
    answers ``retry-after`` instead of eating memory.

    Completion is delivered by calling ``on_done(result, error)`` from
    the worker thread (exactly one of the two is ``None``); the daemon
    bridges that back onto its event loop with
    ``loop.call_soon_threadsafe``.  :meth:`drain` blocks until every
    accepted job has completed — the SIGTERM path's "no lost accepted
    jobs" guarantee.
    """

    def __init__(self, workers: int = 2, capacity: int = 8) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._queue: queue_module.Queue = queue_module.Queue(maxsize=capacity)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._accepted = 0
        self._completed = 0
        self._in_flight = 0
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"analysis-pool-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            fn, on_done = item
            with self._lock:
                self._in_flight += 1
            result, error = None, None
            try:
                result = fn()
            except BaseException as exc:  # noqa: BLE001 — forwarded, not hidden
                error = exc
            try:
                on_done(result, error)
            finally:
                with self._idle:
                    self._in_flight -= 1
                    self._completed += 1
                    self._idle.notify_all()

    def try_submit(self, fn: Callable[[], object], on_done) -> bool:
        """Enqueue ``fn`` without blocking; ``False`` means queue full.

        ``on_done(result, error)`` fires from a worker thread once the
        job finishes (or raises).  A ``False`` return is the explicit
        backpressure signal — nothing was buffered, nothing is owed.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("analysis pool is closed")
        try:
            self._queue.put_nowait((fn, on_done))
        except queue_module.Full:
            return False
        with self._lock:
            self._accepted += 1
        return True

    def stats(self) -> dict:
        """Queue depth, in-flight count, accepted/completed totals."""
        with self._lock:
            return {
                "capacity": self._capacity,
                "queued": self._queue.qsize(),
                "in_flight": self._in_flight,
                "accepted": self._accepted,
                "completed": self._completed,
            }

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every accepted job completed; ``False`` on timeout."""
        with self._idle:
            return self._idle.wait_for(
                lambda: self._completed >= self._accepted, timeout=timeout
            )

    def close(self) -> None:
        """Stop the workers after the queue empties.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(None)
        for thread in self._workers:
            thread.join(timeout=10)

    def __enter__(self) -> "AnalysisPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
