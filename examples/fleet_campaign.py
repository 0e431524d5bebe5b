#!/usr/bin/env python3
"""Fleet campaign: 4 boards, 10 victims, multi-tenant waves.

Scales the paper's one-board choreography to a small cloud-FPGA
region: the adversary profiles the model mix once, then a worker pool
attacks staggered waves of co-resident victims on every board
concurrently, scraping each wave's residue with coalesced devmem
reads.  The aggregated :class:`CampaignReport` is what a fleet-wide
remanence survey (Pentimento-style) would collect.

Run:  python examples/fleet_campaign.py
"""

from repro.campaign import CampaignSpec, build_schedule, run_campaign

SPEC = CampaignSpec(
    boards=4,
    victims=10,
    model_mix=(
        "resnet50_pt",
        "squeezenet_pt",
        "inception_v1_tf",
        "mobilenet_v2_tf",
    ),
    tenants_per_board=2,
    wave_size=2,
    seed=2024,
)


def main() -> None:
    # The schedule is a pure function of the spec — print it first so
    # the report below can be checked against it.
    print("schedule:")
    for job in build_schedule(SPEC):
        print(
            f"  job {job.job_id}: {job.model_name:<16} -> board "
            f"{job.board_index}, tenant {job.tenant_index}, "
            f"wave {job.launch_wave}"
        )
    print()

    report = run_campaign(SPEC)
    print(report.render())
    print()

    largest = max(report.outcomes, key=lambda outcome: outcome.nbytes)
    print(
        f"largest dump: job {largest.job_id} ({largest.model_name}) "
        f"at {largest.nbytes / 1024:.0f} KiB"
    )
    assert report.success_rate == 1.0, "fleet campaign should leak everywhere"


if __name__ == "__main__":
    main()
