"""The defense arena — one fleet campaign per hardening profile.

:func:`run_defense_arena` executes the *same* :class:`CampaignSpec`
(same schedule, same victims, same secret images, same offline prep)
under each requested profile and distills every run into one
:class:`~repro.defense.matrix.DefenseRow`:

- the fleet boots the profile's kernel via the campaign engine's
  *kernel_config*;
- attacker latency is the engine's *scrape_delay_ticks*: after each
  wave terminates, every board's kernel runs that many scheduler
  ticks, during which the asynchronous scrub daemon races the
  attacker — the window of vulnerability — and each board reports
  its scrub counters as a :class:`~repro.campaign.worker.BoardEnd`;
- an optional weight-theft probe runs the fine-tuned-weight attack
  (:mod:`repro.attack.weights`) against one victim under the same
  kernel config, scoring how much of a private model survives the
  profile.

Every profile replays the same victims on the same images, so the
sweep runs inside one :func:`~repro.vitis.memo.inference_memo`: each
distinct inference is computed once, and later profiles reuse its
output while their DPU jobs still move the bytes through DRAM.  The
memo closes with the sweep.

Offline prep happens once, on a vulnerable reference board — the
adversary profiles on hardware they control; only the victims' fleet
is defended.
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.attack.addressing import AddressHarvester
from repro.attack.config import AttackConfig
from repro.attack.extraction import MemoryScraper
from repro.attack.weights import (
    WeightExtractor,
    WeightLayoutProfile,
    profile_weight_layout,
)
from repro.campaign.engine import prepare_offline, run_campaign
from repro.campaign.report import CampaignReport
from repro.campaign.schedule import CampaignSpec
from repro.campaign.worker import BoardEnd
from repro.defense.matrix import DefenseMatrix, DefenseRow
from repro.defense.profiles import DefenseConfig, DEFAULT_SWEEP, defense_profile
from repro.errors import AttackError, EmptyMetricError, PermissionDeniedError
from repro.evaluation.metrics import window_hit_rate
from repro.evaluation.scenarios import BoardSession
from repro.petalinux.kernel import KernelConfig
from repro.vitis.memo import inference_memo
from repro.vitis.xmodel import XModel
from repro.vitis.zoo import build_model, fine_tune

WEIGHT_PROBE_SEED = 9
"""Seed of the fine-tuned private weights the probe tries to steal."""


def prepare_weight_probe(
    model_name: str = "resnet50_pt", input_hw: int = 32
) -> tuple["WeightLayoutProfile", "XModel"]:
    """The probe's offline half: buffer layout + a private fine-tune.

    Both are profile-independent (the layout is profiled on a
    vulnerable reference board the adversary controls), so an arena
    sweep prepares them once and reuses them for every profile.  The
    layout scrape coalesces its reads, as the probe's own scrape does:
    a layout records only offsets and sizes, identical in every read
    mode.
    """
    reference = BoardSession.boot(input_hw=input_hw)
    layout = profile_weight_layout(
        reference.attacker_shell,
        model_name,
        input_hw=input_hw,
        config=AttackConfig(coalesce_reads=True),
    )
    private = fine_tune(
        build_model(model_name, input_hw=input_hw), seed=WEIGHT_PROBE_SEED
    )
    return layout, private


def probe_weight_theft(
    kernel_config: KernelConfig,
    model_name: str = "resnet50_pt",
    input_hw: int = 32,
    delay_ticks: int = 0,
    prepared: tuple["WeightLayoutProfile", "XModel"] | None = None,
) -> float:
    """Steal a fine-tuned model's weights under one kernel config.

    Returns the recovered match fraction against the victim's private
    weights: 1.0 on the vulnerable default, 0.0 when the profile
    blocks extraction or scrubs the residue.  *prepared* is the output
    of :func:`prepare_weight_probe`; omitted, it is built on the spot.
    """
    layout, private = prepared or prepare_weight_probe(
        model_name, input_hw=input_hw
    )
    session = BoardSession.boot(config=kernel_config, input_hw=input_hw)
    run = session.victim_application().launch(model_name, model=private)
    harvester = AddressHarvester(
        session.attacker_shell.procfs, caller=session.attacker_shell.user
    )
    scraper = MemoryScraper(
        session.attacker_shell.devmem_tool,
        session.attacker_shell.user,
        AttackConfig(coalesce_reads=True),
    )
    try:
        harvested = harvester.harvest(run.pid)
        run.terminate()
        session.kernel.tick(delay_ticks)
        dump = scraper.scrape(harvested)
        stolen = WeightExtractor(layout).extract(dump)
        return stolen.match_fraction(private)
    except (AttackError, PermissionDeniedError):
        return 0.0


def summarize_run(
    profile: DefenseConfig,
    report: CampaignReport,
    ends: Sequence[BoardEnd],
    weight_theft_match: float | None,
    wall_seconds: float,
) -> DefenseRow:
    """Distill one profile's campaign into a matrix row.

    *ends* holds the campaign's board ends, one per board.
    *wall_seconds* is the campaign's host time; the report has none.  A
    zero-victim run has a defined answer here: nothing was attacked, so
    nothing was scraped inside the window — the
    :class:`~repro.errors.EmptyMetricError` the rate metric raises is
    caught and reported as 0.0 instead of crashing summarization.
    """
    outcomes = report.outcomes
    try:
        hit_rate = window_hit_rate([o.residue_nbytes for o in outcomes])
    except EmptyMetricError:
        hit_rate = 0.0
    return DefenseRow(
        profile=profile.name,
        defenses=profile.describe(),
        victims=report.victims,
        success_rate=report.success_rate,
        identification_rate=report.identification_rate,
        image_recovery_rate=report.image_recovery_rate,
        residue_bytes=sum(o.residue_nbytes for o in outcomes),
        bytes_scraped=sum(o.nbytes for o in outcomes),
        window_hit_rate=hit_rate,
        weight_theft_match=weight_theft_match,
        teardown_seconds=sum(end.teardown_seconds for end in ends),
        frames_scrubbed_sync=sum(o.frames_scrubbed_sync for o in outcomes),
        frames_scrubbed_async=sum(end.frames_scrubbed_async for end in ends),
        scrub_backlog=sum(end.scrub_backlog for end in ends),
        wall_seconds=wall_seconds,
    )


def run_defense_arena(
    spec: CampaignSpec,
    profiles: Sequence[str | DefenseConfig] = DEFAULT_SWEEP,
    scrape_delay_ticks: int = 2,
    weight_theft: bool = True,
) -> DefenseMatrix:
    """Sweep *profiles* over one campaign spec; returns the matrix.

    Profiles may be names (``"zero_on_free"``,
    ``"scrub_pool+pinned_xen"``) or :class:`DefenseConfig` instances
    (e.g. a scrub-rate sweep).  Every profile attacks the identical
    schedule with identical offline prep, so rows differ only in the
    defense.
    """
    if not profiles:
        raise ValueError("no profiles to sweep")
    resolved = [
        profile if isinstance(profile, DefenseConfig) else defense_profile(profile)
        for profile in profiles
    ]
    names = [profile.name for profile in resolved]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate profiles in sweep: {names}")
    with inference_memo():
        prep_profiles, database = prepare_offline(spec)
        probe_prep = (
            prepare_weight_probe(input_hw=spec.input_hw) if weight_theft else None
        )
        rows = []
        for profile in resolved:
            config = profile.kernel_config(spec)
            ends: list[BoardEnd] = []
            started = time.perf_counter()
            report = run_campaign(
                spec,
                profiles=prep_profiles,
                database=database,
                kernel_config=config,
                scrape_delay_ticks=scrape_delay_ticks,
                on_board_complete=lambda board, end: ends.append(end),
            )
            wall_seconds = time.perf_counter() - started
            match = (
                probe_weight_theft(
                    config,
                    input_hw=spec.input_hw,
                    delay_ticks=scrape_delay_ticks,
                    prepared=probe_prep,
                )
                if weight_theft
                else None
            )
            rows.append(summarize_run(profile, report, ends, match, wall_seconds))
    return DefenseMatrix(
        spec=spec, scrape_delay_ticks=scrape_delay_ticks, rows=rows
    )
