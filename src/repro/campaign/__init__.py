"""Fleet-scale campaign orchestration over the single-board attack.

The paper demonstrates one attacker scraping one terminated victim on
one board; related work (*Pentimento*'s fleet-wide remanence survey,
the *Resurrection Attack*'s reuse of the same choreography) operates
at cloud scale.  This package provides that scale for the simulation:

- :mod:`repro.campaign.schedule` — :class:`CampaignSpec` and the
  seeded, deterministic victim scheduler (boards × waves × tenants);
- :mod:`repro.campaign.fleet` — provisioning N booted board twins,
  each with its tenants and translation cache;
- :mod:`repro.campaign.worker` — the per-board wave choreography:
  launch co-residents, harvest while alive, terminate, scrape;
- :mod:`repro.campaign.report` — :class:`CampaignReport` aggregation
  (per-model / per-board breakdowns) and JSON persistence;
- :mod:`repro.campaign.engine` — :func:`run_campaign`: one offline
  prep, then every board concurrently on a worker pool;
- :mod:`repro.campaign.runtime` — the process-parallel, checkpointable
  runtime: executors (threads or ``multiprocessing`` shards), the
  content-addressed :class:`DumpSpool`, and
  :class:`CampaignRuntime` for journaled interrupt/resume runs
  (``repro campaign run --run-dir/--resume``) — plus the distributed
  fabric (:class:`FabricCoordinator` / :class:`FabricWorker`,
  ``repro campaign serve`` / ``work``) leasing board shards to
  remote hosts under the same byte-identical report contract.  Every
  placement plays a board through one loop, the executors'
  ``run_board``.

Quick use (also exposed as ``repro campaign run``):

>>> from repro.campaign import CampaignSpec, run_campaign
>>> report = run_campaign(CampaignSpec(boards=2, victims=4, seed=3))
>>> report.victims
4
"""

from repro.campaign.schedule import (
    CampaignSpec,
    VictimJob,
    build_schedule,
    jobs_by_board,
    spec_from_dict,
    spec_to_dict,
)
from repro.campaign.fleet import ProvisionedBoard, provision_board
from repro.campaign.worker import BoardEnd, BoardWorker, VictimOutcome
from repro.campaign.report import (
    BoardBreakdown,
    CampaignReport,
    ModelBreakdown,
)
from repro.campaign.engine import (
    prepare_offline,
    prepare_offline_cached,
    run_campaign,
)
from repro.campaign.runtime import (
    CampaignRuntime,
    DumpSpool,
    FabricCoordinator,
    FabricWorker,
    RunDirectory,
)

__all__ = [
    "CampaignSpec",
    "VictimJob",
    "build_schedule",
    "jobs_by_board",
    "spec_from_dict",
    "spec_to_dict",
    "ProvisionedBoard",
    "provision_board",
    "BoardEnd",
    "BoardWorker",
    "VictimOutcome",
    "BoardBreakdown",
    "CampaignReport",
    "ModelBreakdown",
    "prepare_offline",
    "prepare_offline_cached",
    "run_campaign",
    "CampaignRuntime",
    "DumpSpool",
    "FabricCoordinator",
    "FabricWorker",
    "RunDirectory",
]
