"""Process-parallel, checkpointable campaign runtime.

PR 1's engine ran every board on one thread pool in one process and
kept everything in memory until the end — fine for a demo fleet,
fragile for the fleet-scale scraping scenario the paper implies (and
the Resurrection-Attack / Pentimento-style long-horizon variants in
PAPERS.md demand).  This package turns the engine into a restartable,
service-grade runtime:

- :mod:`~repro.campaign.runtime.executors` — the placement layer:
  boards in turn on one worker thread (:class:`InProcessExecutor`) or
  sharded across one ``multiprocessing`` process per shard for the
  length of a run (:class:`MultiprocessExecutor`), streaming wave
  outcomes back over a queue; :func:`resolve_executor` applies the
  small-fleet fallback policy.
- :mod:`~repro.campaign.runtime.spool` — :class:`DumpSpool`, the
  content-addressed on-disk store every scraped dump is appended to
  the moment step-4 analysis finishes (one segment file per writer),
  keeping resident memory flat regardless of campaign size.
- :mod:`~repro.campaign.runtime.checkpoint` — :class:`RunDirectory`:
  the spec, the per-wave outcome journal, telemetry, and the final
  report, which holds no host timing and so comes out the same bytes
  however the run went.
- :mod:`~repro.campaign.runtime.runner` — :class:`CampaignRuntime`,
  which ties the three together so ``repro campaign run --resume``
  continues an interrupted campaign to a byte-identical report.
- :mod:`~repro.campaign.runtime.fabric` — the distributed fabric:
  :class:`FabricCoordinator` serves board shards as heartbeat-carrying
  leases over a JSON/TCP protocol, :class:`FabricWorker` claims them
  and plays each through the executors' board loop on a remote host
  (``repro campaign serve`` / ``work``), and the
  journaled run directory keeps the final report byte-identical to a
  single-host run across crashes, reclaims, and replays.

See ``docs/campaigns.md`` for the operator runbook and
``docs/distributed.md`` for the fabric protocol and failure drills.
"""

from repro.campaign.runtime.checkpoint import JournalState, RunDirectory
from repro.campaign.runtime.executors import (
    MULTIPROCESS_AUTO_BOARDS,
    CampaignExecutionError,
    InProcessExecutor,
    MultiprocessExecutor,
    resolve_executor,
)
from repro.campaign.runtime.runner import CampaignRuntime
from repro.campaign.runtime.spool import DumpSpool, MappedDump, SpoolEntry
from repro.campaign.runtime.fabric import (
    DEFAULT_LEASE_TTL,
    FABRIC_FORMAT,
    FabricClient,
    FabricCoordinator,
    FabricWorker,
    Lease,
    LeaseTable,
    ManualClock,
)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "FABRIC_FORMAT",
    "MULTIPROCESS_AUTO_BOARDS",
    "CampaignExecutionError",
    "CampaignRuntime",
    "DumpSpool",
    "FabricClient",
    "FabricCoordinator",
    "FabricWorker",
    "InProcessExecutor",
    "JournalState",
    "Lease",
    "LeaseTable",
    "ManualClock",
    "MappedDump",
    "MultiprocessExecutor",
    "RunDirectory",
    "SpoolEntry",
    "resolve_executor",
]
