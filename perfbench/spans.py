"""Span recording and per-layer arithmetic for the traced benchmark runs.

Spans are recorded from outside the program: :func:`install` replaces
public functions and methods of the ``repro`` layers with wrappers that
time each call, so nothing under ``src/`` is edited and an untraced run
executes the program exactly as shipped.  A span is (name, start, end,
parent span, op id); the parent is the innermost wrapped call still
open on the same thread, and spans recorded across threads (a job
queued on the event loop and started by a pool thread) carry no parent.

Spans live in memory and are written out once, when the traced process
ends (:meth:`Tracer.dump`), so recording costs a list append.
``time.perf_counter`` is the clock everywhere: on Linux it reads
``CLOCK_MONOTONIC``, which every process on the host shares, so spans
from fabric workers and the service daemon line up with the
benchmark's own.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import Callable, Iterable

SPAN_NAMES = (
    "fleet.provision",
    "vitis.launch",
    "mmu.map",
    "vitis.infer",
    "attack.observe",
    "attack.harvest",
    "attack.extract",
    "petalinux.teardown",
    "petalinux.tick",
    "attack.identify",
    "attack.reconstruct",
    "utils.hexdump.marker_rows",
    "evaluation.score",
    "service.analyze_dump",
    "analysis.map_dump",
    "attack.identify_buffer",
    "service.put_dump.rtt",
    "service.submit.rtt",
    "service.pool.queue_wait",
    "runtime.spool_put",
    "runtime.journal_append",
    "fabric.worker_start",
    "fabric.op.claim",
    "fabric.op.wave",
    "fabric.op.put_dump",
    "fabric.op.board_complete",
    "defense.prep",
    "defense.weight_probe",
)
"""Every timed span; each reports ``.calls``, ``.self_ms_per_op`` and
``.share`` in a traced run, zero on workloads that bypass its layer."""

COUNTERS = {
    "hw.dram.pages_scrubbed": ("count", "lower"),
    "hw.dram.read_ops": ("count", "lower"),
    "attack.harvest.cache_hit_ratio": ("fraction", "higher"),
    "petalinux.frames_scrubbed_sync": ("count", "lower"),
    "petalinux.frames_scrubbed_async": ("count", "lower"),
    "analysis.map_dump.ms_per_mib": ("ms/MiB", "lower"),
    "attack.identify_buffer.ms_per_mib": ("ms/MiB", "lower"),
    "service.wire.up_bytes_per_dump_byte": ("B/B", "lower"),
    "service.spool.dedup_hit_ratio": ("fraction", "higher"),
    "service.quota.refusals": ("count", "lower"),
    "runtime.executor.efficiency": ("fraction", "higher"),
    "fabric.wire.up_bytes_per_dump_byte": ("B/B", "lower"),
    "fabric.efficiency": ("fraction", "higher"),
    "trace_overhead": ("ratio", "lower"),
}
"""Per-layer counters and ratios: (unit, which direction is better).
Counts are per op; ratios are over the whole traced window."""


def per_layer_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in print order."""
    names = []
    for span in SPAN_NAMES:
        names.append((f"{span}.calls", "count", "lower"))
        names.append((f"{span}.self_ms_per_op", "ms", "lower"))
        names.append((f"{span}.share", "fraction", "lower"))
    for counter, (unit, better) in COUNTERS.items():
        names.append((counter, unit, better))
    return names


@dataclass(frozen=True)
class Span:
    """One timed call; ids are ``"<pid>:<n>"`` so processes never clash."""

    span_id: str
    parent: str | None
    name: str
    start: float
    end: float
    op: int | None
    thread: str
    nbytes: int = 0


class Tracer:
    """Collects spans and counters for one process.

    ``op`` is the id of the op in progress; the harness sets it before
    each op so every span recorded meanwhile carries it.  ``boards``
    collects the fleet boards provisioned while tracing, whose DRAM,
    sanitizer and translation-cache statistics become counters.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self.boards: list = []
        self.spawned: dict[str, float] = {}
        """Worker name -> the moment its process was spawned."""
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._pid = os.getpid()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _thread(self) -> str:
        return f"{self._pid}:{threading.get_ident()}"

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller; it has no parent."""
        self.spans.append(
            Span(f"{self._pid}:{next(self._ids)}", None, name, start, end,
                 self.op, self._thread())
        )

    def wrap(
        self,
        fn: Callable,
        name: str,
        size: Callable[[tuple], int] | None = None,
        on_result: Callable[[object], None] | None = None,
    ) -> Callable:
        """*fn* timed as span *name*, nested under any open span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = f"{tracer._pid}:{next(tracer._ids)}"
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, parent, name, start, end, tracer.op,
                         tracer._thread(), size(args) if size else 0)
                )
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def collect_boards(self) -> None:
        """Fold the provisioned boards' statistics into the counters."""
        for board in self.boards:
            session = board.session
            dram = session.soc.dram.stats
            sanitizer = session.kernel.sanitizer.stats
            cache = board.translation_cache
            self.counters["hw.dram.pages_scrubbed"] += dram.pages_scrubbed
            self.counters["hw.dram.read_ops"] += dram.read_operations
            self.counters["petalinux.frames_scrubbed_sync"] += (
                sanitizer.frames_scrubbed_sync
            )
            self.counters["petalinux.frames_scrubbed_async"] += (
                sanitizer.frames_scrubbed_async
            )
            self.counters["cache.hits"] += cache.hits
            self.counters["cache.lookups"] += cache.hits + cache.misses
        self.boards.clear()

    def dump(self, path: str) -> None:
        """Write every span and counter as JSON lines to *path*."""
        self.collect_boards()
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")

    def load(self, path: str) -> None:
        """Merge a trace another process wrote with :meth:`dump`."""
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "counters" in record:
                    for key, value in record["counters"].items():
                        self.counters[key] += value
                else:
                    self.spans.append(Span(**record))


# -- what gets wrapped -------------------------------------------------------


def _nbytes_arg1(args: tuple) -> int:
    return len(args[1])


def _layer_targets(tracer: Tracer) -> list[tuple[str, str, str, dict]]:
    """(owner, attribute, span, wrap options) for every wrapped call.

    Module-level names are patched where the caller looks them up
    (``provision_board`` is imported by name into the executors and
    the fabric), so each binding a layer calls through is listed.
    """
    keep_board = {"on_result": tracer.boards.append}
    return [
        ("repro.campaign.fleet", "provision_board", "fleet.provision", keep_board),
        ("repro.campaign.runtime.executors", "provision_board",
         "fleet.provision", keep_board),
        ("repro.campaign.runtime.fabric", "provision_board",
         "fleet.provision", keep_board),
        ("repro.vitis.app:VictimApplication", "launch", "vitis.launch", {}),
        ("repro.mmu.address_space:AddressSpace", "add_vma", "mmu.map", {}),
        ("repro.mmu.address_space:AddressSpace", "brk", "mmu.map", {}),
        ("repro.vitis.runner:DpuRunner", "run", "vitis.infer", {}),
        ("repro.attack.pipeline:MemoryScrapingAttack", "observe_victim",
         "attack.observe", {}),
        ("repro.attack.addressing:AddressHarvester", "harvest",
         "attack.harvest", {}),
        ("repro.attack.pipeline:MemoryScrapingAttack", "extract",
         "attack.extract", {}),
        ("repro.petalinux.kernel:PetaLinuxKernel", "exit_process",
         "petalinux.teardown", {}),
        ("repro.petalinux.kernel:PetaLinuxKernel", "tick", "petalinux.tick", {}),
        ("repro.attack.identify:ModelIdentifier", "identify",
         "attack.identify", {}),
        ("repro.attack.reconstruct:ImageReconstructor", "reconstruct",
         "attack.reconstruct", {}),
        ("repro.utils.hexdump:HexDump", "marker_run_rows",
         "utils.hexdump.marker_rows", {}),
        ("repro.campaign.worker", "image_fidelity", "evaluation.score", {}),
        ("repro.service.daemon", "analyze_dump", "service.analyze_dump", {}),
        ("repro.attack.carving:DumpCartographer", "map_dump",
         "analysis.map_dump", {"size": _nbytes_arg1}),
        ("repro.attack.identify:ModelIdentifier", "identify_buffer",
         "attack.identify_buffer", {"size": _nbytes_arg1}),
        ("repro.campaign.runtime.spool:DumpSpool", "put", "runtime.spool_put", {}),
        ("repro.campaign.runtime.spool:DumpSpool", "put_bytes",
         "runtime.spool_put", {}),
        ("repro.campaign.runtime.checkpoint:RunDirectory", "append_wave",
         "runtime.journal_append", {}),
        ("repro.defense.arena", "prepare_offline", "defense.prep", {}),
        ("repro.defense.arena", "prepare_weight_probe", "defense.prep", {}),
        ("repro.defense.arena", "probe_weight_theft", "defense.weight_probe", {}),
    ]


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _wrap_pool_submit(tracer: Tracer, original: Callable) -> Callable:
    """``AnalysisPool.try_submit`` timing each job's wait in the queue."""

    @functools.wraps(original)
    def try_submit(self, fn, on_done):
        queued = tracer.clock()

        def timed():
            tracer.record("service.pool.queue_wait", queued, tracer.clock())
            return fn()

        return original(self, timed, on_done)

    return try_submit


def _wrap_handle_request(tracer: Tracer, original: Callable) -> Callable:
    """``FabricCoordinator.handle_request`` timed per op, plus wire bytes.

    A worker's ``hello`` closes its ``fabric.worker_start`` span, opened
    when the harness spawned the process.
    """

    @functools.wraps(original)
    def handle_request(self, request):
        start = tracer.clock()
        op = str(request.get("op", ""))
        if op == "hello":
            spawned = tracer.spawned.pop(str(request.get("worker")), None)
            if spawned is not None:
                tracer.record("fabric.worker_start", spawned, start)
        elif op == "put_dump":
            line = len(json.dumps(request)) + 1
            tracer.counters["fabric.wire.up_bytes"] += line
            tracer.counters["fabric.wire.dump_bytes"] += _b64_decoded_len(
                str(request.get("data", ""))
            )
        response = original(self, request)
        tracer.record(f"fabric.op.{op}", start, tracer.clock())
        return response

    return handle_request


def _wrap_client_request(tracer: Tracer, original: Callable) -> Callable:
    """``AsyncServiceClient.request`` timed as a round trip per op.

    Coroutines interleave on one thread, so these spans are recorded
    without a parent rather than through the thread's span stack.
    """

    @functools.wraps(original)
    async def request(self, op, **fields):
        if op == "put_dump":
            line = len(json.dumps({"op": op, **fields}, sort_keys=True)) + 1
            tracer.counters["service.wire.up_bytes"] += line
            tracer.counters["service.wire.dump_bytes"] += _b64_decoded_len(
                fields["data_b64"]
            )
        start = tracer.clock()
        response = await original(self, op, **fields)
        tracer.record(f"service.{op}.rtt", start, tracer.clock())
        return response

    return request


def _b64_decoded_len(text: str) -> int:
    return len(text) * 3 // 4 - text.endswith("=") - text.endswith("==")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer call; returns the function that unwraps them."""
    patched: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for owner_name, attr, span, options in _layer_targets(tracer):
        owner = _resolve(owner_name)
        patch(owner, attr, tracer.wrap(getattr(owner, attr), span, **options))
    special = (
        ("repro.campaign.runtime.executors:AnalysisPool", "try_submit",
         _wrap_pool_submit),
        ("repro.campaign.runtime.fabric:FabricCoordinator", "handle_request",
         _wrap_handle_request),
        ("repro.service.client:AsyncServiceClient", "request",
         _wrap_client_request),
    )
    for owner_name, attr, factory in special:
        owner = _resolve(owner_name)
        patch(owner, attr, factory(tracer, getattr(owner, attr)))

    def uninstall() -> None:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
        patched.clear()

    return uninstall


# -- arithmetic --------------------------------------------------------------


def percentile(values: Iterable[float], fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` inclusive)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span id -> duration minus the part its child spans cover.

    Children may overlap one another (several threads working for one
    parent) or outlive the parent; only the union of their intervals,
    clipped to the parent's, is subtracted.
    """
    children: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
        ]
        result[span.span_id] = (span.end - span.start) - covered_length(clipped)
    return result


def busy_time(spans: list[Span]) -> float:
    """Time covered by root spans, summed over threads.

    Per thread, the union of its parentless spans: how long that
    thread spent inside any wrapped layer.
    """
    by_thread: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is None:
            by_thread[span.thread].append((span.start, span.end))
    return sum(covered_length(intervals) for intervals in by_thread.values())


def layer_metrics(
    tracer: Tracer, ops: int, wall: float, since: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced window of *ops* ops lasting *wall* s.

    Only spans that started at or after *since* count: a daemon's
    start-up and warm-up are not part of the window.  ``.calls`` and
    ``.self_ms_per_op`` are per op; ``.share`` is the span's inclusive
    time over the window's wall time.  Counters that the window did
    not touch read 0.0.
    """
    if ops <= 0 or wall <= 0:
        raise ValueError("a traced window needs at least one op and some time")
    tracer.collect_boards()
    spans = [span for span in tracer.spans if span.start >= since]
    self_by_id = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_total: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    nbytes: dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span.name] += 1
        self_total[span.name] += self_by_id[span.span_id]
        inclusive[span.name] += span.end - span.start
        nbytes[span.name] += span.nbytes
    metrics: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = (calls[name] / ops, "count")
        metrics[f"{name}.self_ms_per_op"] = (1000.0 * self_total[name] / ops, "ms")
        metrics[f"{name}.share"] = (inclusive[name] / wall, "fraction")
    counters = tracer.counters

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    mib = 1024.0 * 1024.0
    values = {
        "hw.dram.pages_scrubbed": counters["hw.dram.pages_scrubbed"] / ops,
        "hw.dram.read_ops": counters["hw.dram.read_ops"] / ops,
        "attack.harvest.cache_hit_ratio": ratio(
            counters["cache.hits"], counters["cache.lookups"]
        ),
        "petalinux.frames_scrubbed_sync": (
            counters["petalinux.frames_scrubbed_sync"] / ops
        ),
        "petalinux.frames_scrubbed_async": (
            counters["petalinux.frames_scrubbed_async"] / ops
        ),
        "analysis.map_dump.ms_per_mib": ratio(
            1000.0 * inclusive["analysis.map_dump"],
            nbytes["analysis.map_dump"] / mib,
        ),
        "attack.identify_buffer.ms_per_mib": ratio(
            1000.0 * inclusive["attack.identify_buffer"],
            nbytes["attack.identify_buffer"] / mib,
        ),
        "service.wire.up_bytes_per_dump_byte": ratio(
            counters["service.wire.up_bytes"], counters["service.wire.dump_bytes"]
        ),
        "service.spool.dedup_hit_ratio": ratio(
            counters["service.spool.dedup_hits"], counters["service.spool.uploads"]
        ),
        "service.quota.refusals": counters["service.quota.refusals"] / ops,
        "runtime.executor.efficiency": counters["runtime.executor.efficiency"],
        "fabric.wire.up_bytes_per_dump_byte": ratio(
            counters["fabric.wire.up_bytes"], counters["fabric.wire.dump_bytes"]
        ),
        "fabric.efficiency": counters["fabric.efficiency"],
        "trace_overhead": counters["trace_overhead"],
    }
    for name, value in values.items():
        metrics[name] = (value, COUNTERS[name][0])
    return metrics
