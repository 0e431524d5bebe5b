"""The four workloads: set-up, timed ops, and their output checks.

Each workload drives only public entry points of ``repro``.  A batch
workload (campaign, fabric, defense_sweep) times whole batches back to
back and counts every victim in a batch as an op; ``analysis_service``
runs a closed loop of single requests against a daemon subprocess.
Everything runs on the host clock; the simulated world's statistics
are output checks here, never metrics.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import itertools
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from checks import (
    canonical_matrix,
    delta_failed,
    matrix_failures,
    report_failures,
)
from corpus import Corpus, balanced_spec, base_residues, build_plan
from spans import Tracer, busy_time, install

from repro.campaign import CampaignRuntime, prepare_offline
from repro.campaign.runtime.executors import InProcessExecutor
from repro.campaign.runtime.fabric import FabricCoordinator
from repro.defense import run_defense_arena
from repro.service.analysis import (
    CARVE_PRESETS,
    AnalysisConfig,
    analyze_dump,
    mine_database,
)
from repro.service.client import AsyncServiceClient

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

OP_TIMEOUT = 60.0
"""Longest one op may take before it counts as failed."""

WORKER_EXIT = 10.0
"""Seconds a fabric worker gets to exit once its campaign is over."""

SERVICE_MODELS = ("resnet50_pt", "squeezenet_pt", "inception_v1_tf")
"""The daemon's default model mix, mined locally for the delta check."""

SERVICE_INPUT_HW = 32
SERVICE_MIN_SCORE = 0.3
SERVICE_WARMUP = 12
SERVICE_PLAN = 20_000
SERVICE_SLICE = 1.0
"""Seconds per throughput slice of the service window."""

DEFENSE_PROFILES = ("none", "zero_on_free", "scrub_pool", "aslr", "pinned_xen")
"""``repro defense sweep``'s default profiles."""


class DeadlineExceeded(BaseException):
    """The run's hard deadline passed; unfinished ops become failures.

    A ``BaseException`` so that no ``except Exception`` on the way up
    swallows it.
    """


class BenchmarkError(RuntimeError):
    """Set-up could not produce a trustworthy reference."""


clock = time.perf_counter


class Workspace:
    """The run's scratch directory and child processes, torn down on exit.

    Everything lives under ``.perfbench_tmp/`` in the checkout; child
    processes get it as ``TMPDIR`` and this process's ``tempfile`` uses
    it too, so nothing is written outside.
    """

    def __init__(self, root: Path) -> None:
        self.base = root / ".perfbench_tmp"
        self.dir = self.base / f"run-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "tmp").mkdir(parents=True)
        self._children: list[subprocess.Popen] = []
        self._names = itertools.count()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = str(self.dir / "tmp")
        tempfile.tempdir = self.env["TMPDIR"]

    def fresh(self, stem: str) -> Path:
        """A path under the workspace that does not exist yet."""
        return self.dir / f"{stem}-{next(self._names)}"

    def spawn(self, argv: list[str], log: Path) -> subprocess.Popen:
        with open(log, "wb") as handle:
            child = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=handle, stderr=subprocess.STDOUT,
            )
        self._children.append(child)
        return child

    def reap(self, child: subprocess.Popen, timeout: float) -> int:
        """Wait for *child*; kill it if it outlives *timeout*."""
        try:
            return child.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            return child.wait()
        finally:
            if child in self._children:
                self._children.remove(child)

    def close(self) -> None:
        for child in self._children:
            if child.poll() is None:
                child.terminate()
        for child in self._children:
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        self._children.clear()
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.base.rmdir()
        except OSError:
            pass  # another run still uses it


def host_steal() -> tuple[int, int]:
    """(stolen, total) CPU time of all CPUs so far, in clock ticks.

    Stolen time is time the hypervisor gave to other guests while this
    machine's CPUs had work.  It slows every workload alike and comes
    in bursts, so the benchmark reports it and times the calmer half
    of each window (:meth:`Window.calm`).
    """
    with open("/proc/stat", encoding="ascii") as handle:
        ticks = [int(field) for field in handle.readline().split()[1:9]]
    return ticks[7], sum(ticks)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Share of CPU time stolen between two :func:`host_steal` readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def status_kib(pid: int | str, field: str) -> int:
    """Field *field* (``VmRSS``, ``VmHWM``) of ``/proc/PID/status`` in KiB.

    0 once the process has exited.
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reset_peak_rss() -> int:
    """Restart this process's peak RSS from its current RSS (KiB).

    Writing 5 to ``clear_refs`` resets ``VmHWM``, so the peak read
    after the window excludes everything set-up touched.
    """
    gc.collect()
    with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
        handle.write("5")
    return status_kib("self", "VmRSS")


class ChildPeaks:
    """The highest own peak RSS any watched child process reached.

    A child that ``exec``s reports the spawning process's peak as its
    ``ru_maxrss`` (the kernel keeps the high-water mark of the address
    space it had before ``exec``), so exec'd children are read from
    ``/proc/PID/status`` while they live, every *interval* seconds.
    """

    interval = 0.02

    def __init__(self) -> None:
        self.kib = 0

    def sample(self, children: list[subprocess.Popen]) -> None:
        for child in children:
            self.kib = max(self.kib, status_kib(child.pid, "VmHWM"))

    @contextlib.contextmanager
    def watching(self, children: list[subprocess.Popen]):
        stop = threading.Event()

        def poll() -> None:
            while not stop.wait(self.interval):
                self.sample(children)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        try:
            yield
        finally:
            stop.set()
            poller.join()
            self.sample(children)


@dataclass
class Window:
    """What one timed window measured."""

    attempted: int = 0
    failed: int = 0
    latencies: list[float] = field(default_factory=list)
    """Seconds per sample: per batch, or per service request."""
    wall: float = 0.0
    """Seconds the window's ops took."""
    started: float = field(default_factory=time.perf_counter)
    """When the window opened; a traced run keeps only later spans."""
    rates: list[float] = field(default_factory=list)
    """Completed ops per second, per batch or per time slice; the
    reported throughput is the median of those :meth:`calm` keeps."""
    steal: list[float] = field(default_factory=list)
    """Share of CPU time the hypervisor stole during each rate sample."""
    slots: list[int] = field(default_factory=list)
    """The rate sample each latency sample fell in."""

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def calm(self) -> tuple[list[float], list[float]]:
        """Rates and latencies of the calmer half of the window.

        Keeps the rate samples during which the hypervisor stole no
        more CPU time than during the median one, and the latencies
        that fell in them.  The choice looks only at the host's steal
        counter, never at the times measured; with no steal every
        sample is kept.
        """
        limit = statistics.median(self.steal)
        keep = {slot for slot, share in enumerate(self.steal) if share <= limit}
        return (
            [rate for slot, rate in enumerate(self.rates) if slot in keep],
            [value for value, slot in zip(self.latencies, self.slots) if slot in keep],
        )

    def seconds_per_op(self) -> float:
        if not self.completed:
            raise BenchmarkError("no op completed in the window")
        return self.wall / self.completed


class Workload:
    """What the harness drives: set-up, timed windows, checks, tallies.

    ``attempted`` and ``failed`` count every op of every window the run
    executes, traced or not, plus failures found by checks that run
    after a window.
    """

    name = ""
    batch_ops = 0
    batch_noun = ""

    def __init__(self, workspace: Workspace, seed: int, nproc: int) -> None:
        self.ws = workspace
        self.seed = seed
        self.nproc = nproc
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0

    def watch_memory(self) -> None:
        """Start the peak-memory count; called just before the window."""
        reset_peak_rss()

    def peak_rss_kib(self) -> float:
        """Peak RSS (KiB) of the system under test since :meth:`watch_memory`.

        Here the system runs inside the benchmark process.
        """
        return status_kib("self", "VmHWM")

    def prepare(self) -> None:
        """One-time set-up before the repeated set-up units."""

    def reset(self) -> None:
        """Undo the previous set-up unit; untimed, before the next one."""

    def setup(self) -> None:
        """One set-up unit; the harness repeats it and times each."""
        raise NotImplementedError

    def window(self, seconds: float, deadline: float) -> Window:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks left for after the last window."""

    def traced(self, seconds: float, deadline: float) -> tuple[Window, Tracer]:
        """Per-layer window: the traced ops and what they recorded."""
        raise NotImplementedError

    def tally(self, window: Window) -> Window:
        self.attempted += window.attempted
        self.failed += window.failed
        return window


class BatchWorkload(Workload):
    """Batches timed back to back; every victim of a batch is one op."""

    def run_batch(self, index: int) -> tuple[float, int]:
        """Run one batch: (seconds its ops took, ops that failed the check).

        The seconds exclude checking and clean-up afterwards.
        """
        raise NotImplementedError

    def window(self, seconds: float, deadline: float) -> Window:
        """Batches until *seconds* of batch time would be exceeded.

        The next batch starts only if, at the mean batch time so far,
        it ends within the window; one batch always runs.
        """
        result = Window()
        while True:
            done = len(result.latencies)
            if done and result.wall * (done + 1) / done > seconds:
                break
            if clock() >= deadline:
                break
            result.attempted += self.batch_ops
            if self.tracer is not None:
                self.tracer.op = done
            # The previous batch's garbage goes now, untimed, so no
            # batch pays for another's collection and peak memory does
            # not depend on when the collector last ran.
            gc.collect()
            stolen = host_steal()
            started = clock()
            try:
                elapsed, failed = self.run_batch(done)
            except DeadlineExceeded:
                result.failed += self.batch_ops
                break
            except Exception:  # noqa: BLE001 — a failed op is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                elapsed, failed = clock() - started, self.batch_ops
            result.failed += failed
            result.slots.append(len(result.rates))
            result.latencies.append(elapsed)
            result.rates.append((self.batch_ops - failed) / elapsed)
            result.steal.append(steal_share(stolen, host_steal()))
            result.wall += elapsed
        return self.tally(result)

    def halves(self, seconds: float, deadline: float) -> tuple[Window, Window, Tracer]:
        """An untraced then a traced half window, plus the trace.

        The tracer's ``trace_overhead`` is traced over untraced seconds
        per op.
        """
        baseline = self.window(seconds / 2, deadline)
        tracer = self.tracer = Tracer()
        uninstall = install(tracer)
        try:
            window = self.window(seconds / 2, deadline)
        finally:
            uninstall()
            self.tracer = None
        tracer.counters["trace_overhead"] = (
            window.seconds_per_op() / baseline.seconds_per_op()
        )
        return baseline, window, tracer

    def traced(self, seconds: float, deadline: float) -> tuple[Window, Tracer]:
        _, window, tracer = self.halves(seconds, deadline)
        return window, tracer


class CampaignWorkload(BatchWorkload):
    """``CampaignRuntime`` over a fresh run directory per campaign."""

    name = "campaign"
    batch_noun = "campaign"

    def __init__(self, workspace: Workspace, seed: int, nproc: int) -> None:
        super().__init__(workspace, seed, nproc)
        self.spec = balanced_spec(
            seed, boards=8, victims=128, wave_size=2, tenants_per_board=2,
            input_hw=32,
        )
        self.batch_ops = self.spec.victims
        self.reference: bytes | None = None
        self.prep = None
        self.placement: object = "auto"
        self.fork_rss = 0
        """The highest RSS (KiB) this process had as it started a
        campaign, which that campaign's forked workers inherit."""

    def peak_rss_kib(self) -> float:
        """This process plus nproc forked pool workers.

        A forked worker's peak includes the pages it shares with this
        process, so each counts only its growth over the RSS it
        inherited.
        """
        worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return super().peak_rss_kib() + self.nproc * max(0, worker - self.fork_rss)

    def setup(self) -> None:
        """Offline prep, then the in-process reference campaign.

        The reference runs its boards on one thread: two board threads
        are no faster under the GIL, and their hand-offs make set-up
        time follow the host's scheduling more closely.
        """
        self.prep = prepare_offline(self.spec)
        run_dir = self.ws.fresh("reference")
        CampaignRuntime(
            self.spec, run_dir,
            executor=InProcessExecutor(max_workers=1),
            prep=self.prep,
        ).run()
        reference = (run_dir / "report.json").read_bytes()
        shutil.rmtree(run_dir)
        if self.reference is not None and reference != self.reference:
            raise BenchmarkError("two reference campaigns disagree")
        self.reference = reference

    def run_batch(self, index: int) -> tuple[float, int]:
        run_dir = self.ws.fresh("campaign")
        self.fork_rss = max(self.fork_rss, status_kib("self", "VmRSS"))
        try:
            started = clock()
            CampaignRuntime(
                self.spec, run_dir, executor=self.placement,
                processes=self.nproc, prep=self.prep,
            ).run()
            elapsed = clock() - started
            return elapsed, report_failures(
                self.reference, (run_dir / "report.json").read_bytes()
            )
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def traced(self, seconds: float, deadline: float) -> tuple[Window, Tracer]:
        """Boards traced on one in-process thread, so spans nest.

        Thirds of the window: the normal placement untraced (the
        executor-efficiency denominator), one board thread untraced
        (the overhead baseline), one board thread traced.
        """
        placed = self.window(seconds / 3, deadline)
        self.placement = InProcessExecutor(max_workers=1)
        try:
            _, window, tracer = self.halves(seconds * 2 / 3, deadline)
        finally:
            self.placement = "auto"
        busy_per_op = busy_time(tracer.spans) / window.completed
        tracer.counters["runtime.executor.efficiency"] = busy_per_op / (
            self.nproc * placed.seconds_per_op()
        )
        return window, tracer


class FabricWorkload(CampaignWorkload):
    """The campaign served by a ``FabricCoordinator`` to worker processes.

    The benchmark process plays ``repro campaign serve``; each
    campaign starts ``nproc`` fresh ``repro campaign work`` processes,
    as an operator would.
    """

    name = "fabric"
    batch_noun = "fabric campaign"

    def __init__(self, workspace: Workspace, seed: int, nproc: int) -> None:
        super().__init__(workspace, seed, nproc)
        self.worker_peaks = ChildPeaks()

    def peak_rss_kib(self) -> float:
        """This process (the coordinator) plus nproc workers, each at
        the highest own peak any worker reached."""
        return Workload.peak_rss_kib(self) + self.nproc * self.worker_peaks.kib

    def run_batch(self, index: int) -> tuple[float, int]:
        run_dir = self.ws.fresh("fabric")
        started = clock()
        coordinator = FabricCoordinator(self.spec, run_dir, prep=self.prep)
        workers: list[subprocess.Popen] = []
        traces: list[Path] = []
        try:
            host, port = coordinator.serve()
            for slot in range(self.nproc):
                name = f"w{index}-{slot}"
                argv = [
                    "campaign", "work", f"{host}:{port}", "--name", name,
                    "--no-wait", "--spool-dir", str(self.ws.fresh("wspool")),
                ]
                if self.tracer is None:
                    argv = [sys.executable, "-m", "repro", *argv]
                else:
                    traces.append(self.ws.fresh("trace"))
                    argv = [sys.executable, str(LAUNCHER), "--trace-out",
                            str(traces[-1]), "--op", str(index), "--", *argv]
                    self.tracer.spawned[name] = clock()
                workers.append(self.ws.spawn(argv, self.ws.fresh("worker.log")))
            with self.worker_peaks.watching(workers):
                coordinator.run_until_complete(timeout=OP_TIMEOUT)
        finally:
            coordinator.close()
            codes = [self.ws.reap(worker, WORKER_EXIT) for worker in workers]
        elapsed = clock() - started
        try:
            if any(codes):
                return elapsed, self.batch_ops
            for trace in traces:
                self.tracer.load(trace)
            return elapsed, report_failures(
                self.reference, (run_dir / "report.json").read_bytes()
            )
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def traced(self, seconds: float, deadline: float) -> tuple[Window, Tracer]:
        """Coordinator wrapped in-process, workers under the launcher."""
        baseline, window, tracer = self.halves(seconds, deadline)
        worker_spans = [
            span for span in tracer.spans
            if not span.thread.startswith(f"{os.getpid()}:")
        ]
        tracer.counters["fabric.efficiency"] = (
            busy_time(worker_spans) / window.completed
        ) / (self.nproc * baseline.seconds_per_op())
        return window, tracer


class DefenseWorkload(BatchWorkload):
    """``run_defense_arena`` over the CLI's default profiles."""

    name = "defense_sweep"
    batch_noun = "sweep"

    def __init__(self, workspace: Workspace, seed: int, nproc: int) -> None:
        super().__init__(workspace, seed, nproc)
        self.spec = balanced_spec(seed, boards=2, victims=16)
        self.batch_ops = self.spec.victims * len(DEFENSE_PROFILES)
        self.reference: dict | None = None

    def sweep(self) -> str:
        return run_defense_arena(
            self.spec, profiles=DEFENSE_PROFILES, scrape_delay_ticks=2,
            weight_theft=True,
        ).to_json()

    def setup(self) -> None:
        """The reference sweep (its prep stays inside, as in every op)."""
        reference = canonical_matrix(self.sweep())
        if self.reference is not None and reference != self.reference:
            raise BenchmarkError("two reference sweeps disagree")
        self.reference = reference

    def run_batch(self, index: int) -> tuple[float, int]:
        started = clock()
        matrix = self.sweep()
        elapsed = clock() - started
        return elapsed, matrix_failures(self.reference, matrix, self.spec.victims)


@dataclass
class _Outcome:
    index: int
    failed: bool
    refused: bool = False
    latency: float = 0.0
    finished: float = 0.0
    event: dict | None = None
    deduplicated: bool = False


class ServiceWorkload(Workload):
    """``repro serve analysis`` under a closed loop, two requests in flight.

    An op is ``put_dump`` + ``submit`` + waiting for the job's delta
    on the subscription; its latency runs from the ``put_dump`` call to
    the delta's arrival.  Requests share one control connection (one
    request at a time on it) and one subscription connection.
    """

    name = "analysis_service"
    batch_ops = 1
    batch_noun = "request"
    in_flight = 2

    def __init__(self, workspace: Workspace, seed: int, nproc: int) -> None:
        super().__init__(workspace, seed, nproc)
        self.corpus: Corpus | None = None
        self.database = None
        self.daemon: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.daemon_trace: Path | None = None
        self.outcomes: list[_Outcome] = []
        self.daemon_peak_kib = 0

    def watch_memory(self) -> None:
        """Nothing to reset: the daemon, the system under test, is read
        just before it stops."""

    def peak_rss_kib(self) -> float:
        """The daemon's own peak RSS (KiB); the benchmark process is the
        client, not the system under test."""
        return self.daemon_peak_kib

    # -- daemon lifecycle ----------------------------------------------------

    def start_daemon(self, traced: bool) -> None:
        argv = ["serve", "analysis", "--port", "0",
                "--spool-dir", str(self.ws.fresh("spool"))]
        if traced:
            self.daemon_trace = self.ws.fresh("trace")
            argv = [sys.executable, str(LAUNCHER), "--trace-out",
                    str(self.daemon_trace), "--", *argv]
        else:
            argv = [sys.executable, "-m", "repro", *argv]
        log = self.ws.fresh("daemon.log")
        self.daemon = self.ws.spawn(argv, log)
        give_up = clock() + OP_TIMEOUT
        while clock() < give_up:
            for line in log.read_text(errors="replace").splitlines():
                if "listening on" in line:
                    host, port = line.rsplit(" ", 1)[-1].rsplit(":", 1)
                    self.address = (host, int(port))
                    return
            if self.daemon.poll() is not None:
                break
            time.sleep(0.01)
        raise BenchmarkError(
            f"analysis daemon never listened:\n{log.read_text(errors='replace')}"
        )

    def stop_daemon(self) -> bool:
        """SIGTERM drain; whether the daemon exited cleanly."""
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return True
        daemon.send_signal(signal.SIGTERM)
        return self.ws.reap(daemon, OP_TIMEOUT) == 0

    # -- set-up --------------------------------------------------------------

    def prepare(self) -> None:
        """The local signature database the delta check analyzes with."""
        self.database = mine_database(SERVICE_MODELS, SERVICE_INPUT_HW)

    def reset(self) -> None:
        if not self.stop_daemon():
            raise BenchmarkError("a set-up daemon did not drain cleanly")

    def setup(self) -> None:
        """Corpus from the seed, a fresh daemon, a warm-up."""
        residues = base_residues(self.seed, self.ws.fresh("residues"))
        plan = build_plan(self.seed, [len(r) for r in residues], SERVICE_PLAN)
        self.corpus = Corpus(residues, plan)
        self.start_daemon(traced=False)
        self.warm_up()

    def warm_up(self) -> None:
        warm = asyncio.run(self._drive(0, count=SERVICE_WARMUP))
        if any(outcome.failed for outcome in warm):
            raise BenchmarkError("a warm-up request failed")

    # -- the closed loop -----------------------------------------------------

    async def _drive(
        self, first: int, count: int | None = None, seconds: float = 0.0
    ) -> list[_Outcome]:
        host, port = self.address
        control = await AsyncServiceClient.connect(host, port)
        subscription = await AsyncServiceClient.connect(host, port)
        arrived: dict[int, tuple[dict, float]] = {}
        waiting: dict[int, asyncio.Future] = {}

        async def pump() -> None:
            async for event in subscription.subscribe():
                job = event.get("job_id")
                if job is None:
                    continue
                waiter = waiting.pop(job, None)
                if waiter is None:
                    arrived[job] = (event, clock())
                elif not waiter.done():
                    waiter.set_result((event, clock()))

        lock = asyncio.Lock()
        indices = itertools.count(first)
        stop = first + count if count is not None else None
        ends = clock() + seconds
        outcomes: list[_Outcome] = []

        async def one(index: int) -> _Outcome:
            request = self.corpus.plan[index]
            data = self.corpus.data(request)
            started = clock()
            async with lock:
                upload = await control.put_dump(request.tenant, data)
            if not upload.get("ok"):
                return _Outcome(index, True, _refused(upload))
            async with lock:
                submitted = await control.request(
                    "submit", tenant=request.tenant, sha256=upload["sha256"],
                    carve=request.preset,
                )
            if not submitted.get("ok"):
                return _Outcome(index, True, _refused(submitted))
            job = submitted["job_id"]
            if job in arrived:
                event, landed = arrived.pop(job)
            else:
                waiter = asyncio.get_running_loop().create_future()
                waiting[job] = waiter
                event, landed = await asyncio.wait_for(waiter, OP_TIMEOUT)
            return _Outcome(
                index, event.get("event") != "delta", latency=landed - started,
                finished=landed, event=event,
                deduplicated=bool(upload.get("deduplicated")),
            )

        async def client_slot() -> None:
            while True:
                index = next(indices)
                if (stop is not None and index >= stop) or (
                    stop is None and clock() >= ends
                ):
                    return
                try:
                    outcomes.append(await one(index))
                except asyncio.TimeoutError:
                    outcomes.append(_Outcome(index, True))

        pumping = asyncio.create_task(pump())
        try:
            await asyncio.gather(
                *(client_slot() for _ in range(self.in_flight))
            )
        finally:
            pumping.cancel()
            try:
                await pumping
            except asyncio.CancelledError:
                pass
            await control.close()
            await subscription.close()
        return outcomes

    def window(self, seconds: float, deadline: float) -> Window:
        result = Window()
        marks: list[tuple[float, tuple[int, int]]] = []
        stop = threading.Event()

        def mark() -> None:
            while True:
                marks.append((clock(), host_steal()))
                if stop.wait(SERVICE_SLICE / 10):
                    return

        marker = threading.Thread(target=mark, daemon=True)
        started = clock()
        marker.start()
        try:
            outcomes = asyncio.run(
                self._drive(SERVICE_WARMUP, seconds=min(seconds, deadline - started))
            )
        except DeadlineExceeded:
            outcomes = []
            result.failed += self.in_flight
            result.attempted += self.in_flight
        finally:
            stop.set()
            marker.join()
        result.wall = clock() - started
        marks.append((clock(), host_steal()))
        slices = max(1, int(result.wall / SERVICE_SLICE))
        slice_length = result.wall / slices

        def steal_at(moment: float) -> tuple[int, int]:
            return min(marks, key=lambda mark: abs(mark[0] - moment))[1]

        result.steal = [
            steal_share(
                steal_at(started + slot * slice_length),
                steal_at(started + (slot + 1) * slice_length),
            )
            for slot in range(slices)
        ]
        done_per_slice = [0] * slices
        for outcome in outcomes:
            result.attempted += 1
            if outcome.failed:
                result.failed += 1
            else:
                result.latencies.append(outcome.latency)
                slot = int((outcome.finished - started) / slice_length)
                result.slots.append(min(max(slot, 0), slices - 1))
                done_per_slice[result.slots[-1]] += 1
            if self.tracer is not None:
                counters = self.tracer.counters
                counters["service.spool.uploads"] += not outcome.refused
                counters["service.spool.dedup_hits"] += outcome.deduplicated
                counters["service.quota.refusals"] += outcome.refused
        result.rates = [done / slice_length for done in done_per_slice]
        self.outcomes.extend(outcomes)
        return self.tally(result)

    def check(self) -> int:
        """Deltas that differ from ``analyze_dump`` run here on the same bytes.

        Runs after the daemon is stopped, so the check never competes
        with it for the cores.
        """
        expected: dict[tuple[str, str], dict] = {}
        failed = 0
        for outcome in self.outcomes:
            if outcome.failed:
                continue
            request = self.corpus.plan[outcome.index]
            data = self.corpus.data(request)
            key = (request.source, request.preset)
            if key not in expected:
                config = AnalysisConfig(
                    database=self.database, carve=CARVE_PRESETS[request.preset],
                    min_score=SERVICE_MIN_SCORE,
                )
                expected[key] = analyze_dump(data, config).to_payload()
            failed += delta_failed(outcome.event, expected[key])
        self.outcomes.clear()
        return failed

    def finish(self) -> None:
        """Drain the daemon, then check every delta of the run."""
        if self.daemon is not None:
            self.daemon_peak_kib = status_kib(self.daemon.pid, "VmHWM")
        self.failed += (not self.stop_daemon()) + self.check()

    def traced(self, seconds: float, deadline: float) -> tuple[Window, Tracer]:
        """Untraced daemon, then a fresh one under the tracing launcher."""
        baseline = self.window(seconds / 2, deadline)
        clean = self.stop_daemon()
        self.start_daemon(traced=True)
        self.warm_up()
        tracer = self.tracer = Tracer()
        uninstall = install(tracer)
        try:
            window = self.window(seconds / 2, deadline)
        finally:
            uninstall()
            self.tracer = None
        self.failed += not (self.stop_daemon() and clean)
        tracer.load(self.daemon_trace)
        tracer.counters["trace_overhead"] = (
            window.seconds_per_op() / baseline.seconds_per_op()
        )
        return window, tracer


def _refused(response: dict) -> bool:
    return response.get("code") in ("quota", "backpressure")


WORKLOADS = {
    workload.name: workload
    for workload in (
        CampaignWorkload, FabricWorkload, DefenseWorkload, ServiceWorkload
    )
}
