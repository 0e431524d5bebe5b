"""The defense arena: profiles, scrape delay, leakage, the matrix."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.campaign import (
    BoardEnd,
    CampaignReport,
    CampaignSpec,
    prepare_offline,
    run_campaign,
)
from repro.defense import (
    DefenseConfig,
    DefenseMatrix,
    XenPolicy,
    campaign_deployment,
    defense_profile,
    probe_weight_theft,
    run_defense_arena,
    summarize_run,
)
from repro.errors import PermissionDeniedError
from repro.evaluation.metrics import (
    leakage_reduction,
    nonzero_bytes,
    window_hit_rate,
)
from repro.evaluation.scenarios import BoardSession
from repro.petalinux.sanitizer import SanitizePolicy
from repro.petalinux.users import User

SMALL = CampaignSpec(
    boards=2, victims=4, model_mix=("resnet50_pt",), wave_size=2, seed=7
)


# -- profiles -----------------------------------------------------------------


class TestDefenseProfiles:
    def test_elementary_profiles_resolve(self):
        assert defense_profile("none").sanitize_policy is SanitizePolicy.NONE
        assert (
            defense_profile("zero_on_free").sanitize_policy
            is SanitizePolicy.ZERO_ON_FREE
        )
        assert defense_profile("pinned_xen").xen is XenPolicy.PINNED
        assert defense_profile("aslr").physical_aslr

    def test_composition_merges_axes(self):
        combo = defense_profile("scrub_pool+pinned_xen")
        assert combo.name == "scrub_pool+pinned_xen"
        assert combo.sanitize_policy is SanitizePolicy.SCRUB_POOL
        assert combo.xen is XenPolicy.PINNED

    def test_full_is_every_axis(self):
        full = defense_profile("full")
        assert full.sanitize_policy is SanitizePolicy.ZERO_ON_FREE
        assert full.physical_aslr and full.virtual_aslr
        assert full.xen is XenPolicy.PINNED

    def test_conflicting_axes_refuse_to_compose(self):
        with pytest.raises(ValueError):
            defense_profile("zero_on_free+scrub_pool")
        with pytest.raises(ValueError):
            defense_profile("pinned_xen+passthrough_xen")

    def test_composition_keeps_owning_sides_tuning(self):
        # A custom scrub rate survives composition with a profile that
        # leaves the sanitize axis alone (either side), and the ASLR
        # seed follows the side that enables randomization.
        fast = DefenseConfig(
            name="fast",
            sanitize_policy=SanitizePolicy.SCRUB_POOL,
            scrub_rate_per_tick=4096,
        )
        assert fast.compose(defense_profile("pinned_xen")).scrub_rate_per_tick == 4096
        assert defense_profile("pinned_xen").compose(fast).scrub_rate_per_tick == 4096
        seeded = DefenseConfig(name="a42", virtual_aslr=True, aslr_seed=42)
        assert defense_profile("none").compose(seeded).aslr_seed == 42
        assert seeded.compose(defense_profile("none")).aslr_seed == 42

    def test_conflicting_tuning_refuses_to_compose(self):
        fast = DefenseConfig(
            name="fast",
            sanitize_policy=SanitizePolicy.SCRUB_POOL,
            scrub_rate_per_tick=4096,
        )
        with pytest.raises(ValueError, match="scrub rates"):
            fast.compose(defense_profile("scrub_pool"))
        seeded = DefenseConfig(name="a42", virtual_aslr=True, aslr_seed=42)
        with pytest.raises(ValueError, match="ASLR seeds"):
            seeded.compose(defense_profile("aslr"))

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown defense profile"):
            defense_profile("rowhammer_shield")

    def test_kernel_config_lowering(self):
        config = defense_profile("zero_on_free").kernel_config(SMALL)
        assert config.sanitize_policy is SanitizePolicy.ZERO_ON_FREE
        assert config.xen is None

        pinned = defense_profile("pinned_xen").kernel_config(SMALL)
        assert pinned.xen is not None
        assert not pinned.xen.dev_mem_passthrough
        # One domain for the attacker plus one per victim tenant.
        assert len(pinned.xen.domains) == 1 + SMALL.tenants_per_board

    def test_deployment_covers_attacker_and_tenants(self):
        deployment = campaign_deployment(
            (1002, 1101), dev_mem_passthrough=False, total_frames=0x80000
        )
        assert deployment.domain_of_user(User("attacker", 1001)) is not None
        assert deployment.domain_of_user(User("victim", 1002)) is not None
        assert deployment.domain_of_user(User("guest1", 1101)) is not None
        assert deployment.domain_of_user(User("outsider", 1500)) is None


# -- metrics ------------------------------------------------------------------


class TestLeakageMetrics:
    def test_nonzero_bytes(self):
        assert nonzero_bytes(b"\x00\x01\x00\xff") == 2
        assert nonzero_bytes(b"\x00" * 64) == 0
        assert nonzero_bytes(b"") == 0

    def test_leakage_reduction(self):
        assert leakage_reduction(100.0, 0.0) == 1.0
        assert leakage_reduction(100.0, 50.0) == 0.5
        assert leakage_reduction(0.0, 0.0) == 0.0
        assert leakage_reduction(10.0, 20.0) == -1.0
        with pytest.raises(ValueError):
            leakage_reduction(-1.0, 0.0)

    def test_window_hit_rate(self):
        assert window_hit_rate([4096, 0, 12]) == pytest.approx(2 / 3)
        with pytest.raises(ValueError):
            window_hit_rate([])


# -- the scrape delay ---------------------------------------------------------


def _board_ends(**kwargs) -> tuple[CampaignReport, dict[int, BoardEnd]]:
    """Run SMALL, collecting each board's end record by board index."""
    ends: dict[int, BoardEnd] = {}
    report = run_campaign(SMALL, on_board_complete=ends.__setitem__, **kwargs)
    return report, ends


class TestDefenseHooks:
    def test_scrape_delay_hook_rejects_negative(self, monkeypatch):
        """A negative delay is refused on every executor before any
        board boots, the prep's reference board included."""

        def boot(*args, **kwargs):
            raise AssertionError("a board booted")

        monkeypatch.setattr(BoardSession, "boot", boot)
        for executor in ("inprocess", "multiprocess"):
            with pytest.raises(ValueError, match="non-negative"):
                run_campaign(SMALL, scrape_delay_ticks=-1, executor=executor)

    def test_every_board_reports_one_end_record(self):
        spec = CampaignSpec(boards=4, victims=4, wave_size=1, seed=7)
        records: list[tuple[int, BoardEnd]] = []
        run_campaign(
            spec, on_board_complete=lambda *record: records.append(record)
        )
        assert sorted(board for board, _ in records) == [0, 1, 2, 3]
        assert all(isinstance(end, BoardEnd) for _, end in records)

    def test_teardown_hook_fires_per_wave(self, monkeypatch):
        """The delay ticks each board's kernel once per wave."""
        from repro.petalinux.kernel import PetaLinuxKernel

        prep = prepare_offline(SMALL)
        ticks: list[int] = []
        monkeypatch.setattr(
            PetaLinuxKernel, "tick", lambda kernel, n: ticks.append(n)
        )
        report = run_campaign(SMALL, *prep, scrape_delay_ticks=3)
        # 2 boards x 1 wave each.
        assert ticks == [3, 3]
        assert report.success_rate == 1.0
        ticks.clear()
        run_campaign(SMALL, *prep)
        assert ticks == []

    def test_outcomes_carry_residue_and_teardown_stats(self):
        report, ends = _board_ends()
        for outcome in report.outcomes:
            assert outcome.residue_nbytes > 0
            assert outcome.residue_nbytes <= outcome.nbytes
            assert outcome.frames_scrubbed_sync == 0
        row = summarize_run(
            defense_profile("none"), report, list(ends.values()), None, 0.0
        )
        assert row.teardown_seconds > 0.0

    def test_zero_on_free_kernel_scrubs_at_teardown(self):
        config = defense_profile("zero_on_free").kernel_config(SMALL)
        report = run_campaign(SMALL, kernel_config=config)
        assert all(o.frames_scrubbed_sync > 0 for o in report.outcomes)
        assert all(o.residue_nbytes == 0 for o in report.outcomes)

    def test_failed_victims_still_charge_teardown_cost(self):
        # A profile that kills the attack at step 1-2 (pagemap locked)
        # still terminates — and scrubs — every victim; the failed
        # outcomes and the row must carry that overhead, not zeros.
        from repro.petalinux.kernel import KernelConfig

        config = KernelConfig(
            pagemap_world_readable=False,
            sanitize_policy=SanitizePolicy.ZERO_ON_FREE,
        )
        report, ends = _board_ends(kernel_config=config)
        assert report.success_rate == 0.0
        for outcome in report.outcomes:
            assert outcome.failed_step == "step 1-2 (observe/harvest)"
            assert outcome.frames_scrubbed_sync > 0
        row = summarize_run(
            defense_profile("zero_on_free"),
            report,
            list(ends.values()),
            None,
            0.0,
        )
        assert row.teardown_seconds > 0.0


# -- the arena ----------------------------------------------------------------


class TestDefenseArena:
    @pytest.fixture(scope="class")
    def matrix(self) -> DefenseMatrix:
        return run_defense_arena(
            SMALL,
            profiles=("none", "zero_on_free", "aslr", "pinned_xen"),
            scrape_delay_ticks=2,
            weight_theft=False,
        )

    def test_none_reproduces_campaign_baseline(self, matrix):
        baseline = run_campaign(SMALL)
        row = matrix.row("none")
        assert row.success_rate == baseline.success_rate == 1.0
        assert row.window_hit_rate == 1.0
        assert row.residue_bytes > 0

    def test_zero_on_free_recovers_nothing(self, matrix):
        row = matrix.row("zero_on_free")
        assert row.residue_bytes == 0
        assert row.success_rate == 0.0
        assert row.window_hit_rate == 0.0
        # The cost shows up where it belongs: synchronous teardown.
        assert row.frames_scrubbed_sync > 0
        assert matrix.leakage_reduction_of("zero_on_free") == 1.0

    def test_aslr_alone_stops_nothing(self, matrix):
        # The pagemap-assisted paper attack reads the slid layout
        # straight from procfs — the arena reproduces the finding that
        # randomization alone is not a defense.
        assert matrix.row("aslr").success_rate == 1.0

    def test_pinned_xen_blocks_extraction(self, matrix):
        row = matrix.row("pinned_xen")
        assert row.success_rate == 0.0
        assert row.residue_bytes == 0

    def test_every_row_times_the_host(self, matrix):
        for row in matrix.rows:
            assert row.wall_seconds > 0.0
            assert row.teardown_seconds > 0.0

    def test_unknown_row_raises(self, matrix):
        with pytest.raises(KeyError):
            matrix.row("no_such_profile")

    def test_render_lists_every_profile(self, matrix):
        text = matrix.render()
        markdown = matrix.render_markdown()
        for row in matrix.rows:
            assert row.profile in text
            assert f"| {row.profile} |" in markdown

    def test_json_round_trip(self, matrix):
        rebuilt = DefenseMatrix.from_json(matrix.to_json())
        assert rebuilt.spec == matrix.spec
        assert rebuilt.scrape_delay_ticks == matrix.scrape_delay_ticks
        assert rebuilt.rows == matrix.rows
        assert rebuilt.render() == matrix.render()

    def test_duplicate_profiles_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            run_defense_arena(SMALL, profiles=("none", "none"))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="no profiles"):
            run_defense_arena(SMALL, profiles=())


class TestDegenerateRows:
    """Zero-victim rows and non-finite rates stay explicit, not NaN."""

    @staticmethod
    def _row(**overrides) -> "DefenseRow":
        from repro.defense import DefenseRow

        fields = dict(
            profile="none",
            defenses="no countermeasures",
            victims=0,
            success_rate=0.0,
            identification_rate=0.0,
            image_recovery_rate=0.0,
            residue_bytes=0,
            bytes_scraped=0,
            window_hit_rate=0.0,
            weight_theft_match=None,
            teardown_seconds=0.0,
            frames_scrubbed_sync=0,
            frames_scrubbed_async=0,
            scrub_backlog=0,
        )
        fields.update(overrides)
        return DefenseRow(wall_seconds=0.0, **fields)

    def test_zero_victim_summarize_run_defines_every_rate(self):
        from repro.campaign.report import CampaignReport
        from repro.defense import defense_profile
        from repro.defense.arena import summarize_run

        report = CampaignReport(spec=SMALL, outcomes=[])
        row = summarize_run(defense_profile("none"), report, [], None, 0.0)
        assert row.victims == 0
        assert row.window_hit_rate == 0.0
        assert row.success_rate == 0.0
        assert row.residue_fraction == 0.0

    def test_non_finite_rates_survive_json_round_trip(self):
        matrix = DefenseMatrix(
            spec=SMALL,
            scrape_delay_ticks=2,
            rows=[
                self._row(
                    window_hit_rate=float("nan"),
                    weight_theft_match=float("inf"),
                    teardown_seconds=float("-inf"),
                )
            ],
        )
        text = matrix.to_json()
        # Valid JSON all the way: no bare NaN/Infinity tokens (which
        # only Python's own parser would accept back).
        import json
        import math

        json.loads(text)
        assert "NaN" not in text.replace('"NaN"', "")
        rebuilt = DefenseMatrix.from_json(text)
        row = rebuilt.rows[0]
        assert math.isnan(row.window_hit_rate)
        assert row.weight_theft_match == float("inf")
        assert row.teardown_seconds == float("-inf")

    def test_non_finite_rates_render_as_absent(self):
        matrix = DefenseMatrix(
            spec=SMALL,
            scrape_delay_ticks=2,
            rows=[
                self._row(
                    window_hit_rate=float("nan"),
                    teardown_seconds=float("inf"),
                )
            ],
        )
        for rendered in (matrix.render(), matrix.render_markdown()):
            assert "nan" not in rendered.lower()
            assert "inf" not in rendered.lower()
            assert "-" in rendered


class TestScrubPoolWindow:
    def test_leakage_shrinks_monotonically_with_scrub_rate(self):
        spec = CampaignSpec(
            boards=1,
            victims=2,
            model_mix=("resnet50_pt",),
            wave_size=2,
            seed=3,
        )
        rates = (4, 64, 4096)
        matrix = run_defense_arena(
            spec,
            profiles=[
                DefenseConfig(
                    name=f"scrub_rate_{rate}",
                    sanitize_policy=SanitizePolicy.SCRUB_POOL,
                    scrub_rate_per_tick=rate,
                )
                for rate in rates
            ],
            scrape_delay_ticks=2,
            weight_theft=False,
        )
        residues = [matrix.row(f"scrub_rate_{rate}").residue_bytes for rate in rates]
        assert residues == sorted(residues, reverse=True)
        # A crawling daemon loses the race, a fast one wins it outright.
        assert residues[0] > 0
        assert residues[-1] == 0
        backlogs = [
            matrix.row(f"scrub_rate_{rate}").scrub_backlog for rate in rates
        ]
        assert backlogs == sorted(backlogs, reverse=True)


class TestPinnedXenSemantics:
    def test_cross_domain_devmem_read_raises(self):
        from repro.attack.addressing import AddressHarvester

        config = defense_profile("pinned_xen").kernel_config(SMALL)
        session = BoardSession.boot(config=config)
        run = session.victim_application().launch("resnet50_pt")
        # Steps 1-2 still work (procfs/pagemap stay world-readable)...
        harvester = AddressHarvester(
            session.attacker_shell.procfs, caller=session.attacker_shell.user
        )
        harvested = harvester.harvest(run.pid)
        entry = next(e for e in harvested.translations if e.present)
        # ...but the step-3 read crosses into the victim's domain.
        with pytest.raises(PermissionDeniedError, match="Xen"):
            session.attacker_shell.devmem_tool.read(
                entry.physical_page_address, session.attacker_shell.user
            )

    def test_campaign_outcome_records_blocked_extraction(self):
        config = defense_profile("pinned_xen").kernel_config(SMALL)
        report = run_campaign(SMALL, kernel_config=config)
        assert report.success_rate == 0.0
        for outcome in report.outcomes:
            assert outcome.failed_step == "step 3 (extract)"
            assert "Xen" in outcome.detail

    def test_passthrough_xen_defends_nothing(self):
        config = defense_profile("passthrough_xen").kernel_config(SMALL)
        report = run_campaign(SMALL, kernel_config=config)
        assert report.success_rate == 1.0


class TestWeightTheftProbe:
    def test_vulnerable_default_leaks_private_weights(self):
        match = probe_weight_theft(defense_profile("none").kernel_config(SMALL))
        assert match == 1.0

    def test_zero_on_free_protects_private_weights(self):
        match = probe_weight_theft(
            defense_profile("zero_on_free").kernel_config(SMALL)
        )
        assert match < 0.5

    def test_pinned_xen_protects_private_weights(self):
        match = probe_weight_theft(
            defense_profile("pinned_xen").kernel_config(SMALL)
        )
        assert match == 0.0


# -- the docs gate ------------------------------------------------------------


class TestDocsCheck:
    """The static half of the docs gate, in-process.

    The doctest half (``failing_doctests``) is exercised by the
    ``make test`` prerequisite on ``docs-check`` — not repeated here,
    so the suite does not run every documented campaign twice.
    """

    @pytest.fixture(scope="class")
    def docs_check(self):
        import importlib.util

        repo_root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "docs_check", repo_root / "tools" / "docs_check.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_static_docs_invariants_hold(self, docs_check):
        assert docs_check.missing_docstrings() == []
        assert docs_check.missing_from_package_map() == []
        assert docs_check.stale_package_map_entries() == []
        assert docs_check.broken_links() == []
