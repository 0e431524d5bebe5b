"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.model == "resnet50_pt"
        assert args.input_hw == 32
        assert args.board == "ZCU104"

    def test_bad_board_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["demo", "--board", "VCK190"])


class TestCommands:
    def test_boards_lists_both(self, capsys):
        assert main(["boards"]) == 0
        output = capsys.readouterr().out
        assert "ZCU104" in output
        assert "ZCU102" in output

    def test_zoo_lists_models(self, capsys):
        assert main(["zoo", "--input-hw", "16"]) == 0
        output = capsys.readouterr().out
        assert "resnet50_pt" in output
        assert "pytorch" in output
        assert "tensorflow" in output

    def test_demo_succeeds_on_vulnerable_board(self, capsys):
        assert main(["demo"]) == 0
        output = capsys.readouterr().out
        assert "Step 4a" in output
        assert "resnet50_pt" in output
        assert "100.0% pixel match" in output

    def test_demo_other_model(self, capsys):
        assert main(["demo", "--model", "squeezenet_pt"]) == 0
        assert "squeezenet_pt" in capsys.readouterr().out

    def test_figures_all_pass(self, capsys):
        assert main(["figures"]) == 0
        output = capsys.readouterr().out
        assert "fig04" in output
        assert "fig12" in output
        assert "[FAIL]" not in output

    def test_defenses_matrix(self, capsys):
        assert main(["defenses"]) == 0
        output = capsys.readouterr().out
        assert "vulnerable-default" in output
        assert "fully-hardened" in output
        assert "YES" in output
        assert "no" in output

    def test_profile_to_stdout(self, capsys):
        assert main(["profile", "resnet50_pt"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "resnet50_pt" in payload
        assert payload["resnet50_pt"]["image_offset"] > 0

    def test_profile_to_file(self, tmp_path, capsys):
        target = tmp_path / "notebook.json"
        assert main(
            ["profile", "resnet50_pt", "squeezenet_pt", "-o", str(target)]
        ) == 0
        payload = json.loads(target.read_text())
        assert set(payload) == {"resnet50_pt", "squeezenet_pt"}


class TestCampaignCheckpointCli:
    """``repro campaign run`` with the checkpointable runtime flags."""

    RUN = [
        "campaign", "run", "--boards", "2", "--victims", "4", "--seed", "3",
    ]

    def test_run_dir_writes_canonical_artifacts(self, tmp_path, capsys):
        run_dir = tmp_path / "fleet"
        assert main(self.RUN + ["--run-dir", str(run_dir)]) == 0
        output = capsys.readouterr().out
        assert "Campaign report" in output
        assert str(run_dir) in output
        assert (run_dir / "report.json").exists()
        assert (run_dir / "journal.jsonl").exists()
        assert (run_dir / "telemetry.json").exists()
        assert (run_dir / "spool" / "manifest.json").exists()

    def test_interrupt_exits_3_and_resume_matches_uninterrupted(
        self, tmp_path, capsys
    ):
        full_dir = tmp_path / "full"
        assert main(self.RUN + ["--run-dir", str(full_dir)]) == 0
        crash_dir = tmp_path / "crash"
        assert (
            main(
                self.RUN
                + ["--run-dir", str(crash_dir), "--interrupt-after", "1"]
            )
            == 3
        )
        error_output = capsys.readouterr().err
        assert "INTERRUPTED" in error_output
        assert not (crash_dir / "report.json").exists()
        assert main(["campaign", "run", "--resume", str(crash_dir)]) == 0
        assert (crash_dir / "report.json").read_bytes() == (
            full_dir / "report.json"
        ).read_bytes()

    @staticmethod
    def _victims_per_second(output: str) -> float:
        match = re.search(r"throughput: .*\(.*, ([0-9.]+) victims/s\)", output)
        assert match, output
        return float(match.group(1))

    def test_every_run_prints_the_throughput_it_timed(self, tmp_path, capsys):
        """Reports record no host time; the command times itself."""
        assert main(self.RUN) == 0
        assert self._victims_per_second(capsys.readouterr().out) > 0
        run_dir = tmp_path / "fleet"
        assert main(self.RUN + ["--run-dir", str(run_dir)]) == 0
        assert self._victims_per_second(capsys.readouterr().out) > 0
        crash_dir = tmp_path / "crash"
        assert main(
            self.RUN + ["--run-dir", str(crash_dir), "--interrupt-after", "1"]
        ) == 3
        capsys.readouterr()
        assert main(["campaign", "run", "--resume", str(crash_dir)]) == 0
        assert self._victims_per_second(capsys.readouterr().out) > 0
        # A finished run reuses every board: nothing attacked, nothing
        # to count in this invocation's time.
        assert main(["campaign", "run", "--resume", str(crash_dir)]) == 0
        assert "throughput: 0 victims" in capsys.readouterr().out

        payload = json.loads((run_dir / "report.json").read_text())
        keys = {*payload, *payload["spec"]}
        keys.update(key for record in payload["outcomes"] for key in record)
        assert not [key for key in keys if key.endswith("_seconds")]
        assert main(["campaign", "report", str(run_dir / "report.json")]) == 0
        assert "victims/s" not in capsys.readouterr().out

    def test_interrupt_requires_checkpointable_run(self, capsys):
        assert main(self.RUN + ["--interrupt-after", "1"]) == 2
        assert "--interrupt-after" in capsys.readouterr().err

    def test_resume_of_missing_directory_fails_cleanly(
        self, tmp_path, capsys
    ):
        assert (
            main(["campaign", "run", "--resume", str(tmp_path / "typo")])
            == 2
        )
        assert "not a run directory" in capsys.readouterr().err

    def test_run_dir_refuses_existing_campaign(self, tmp_path, capsys):
        run_dir = tmp_path / "fleet"
        assert main(self.RUN + ["--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        assert main(self.RUN + ["--run-dir", str(run_dir)]) == 2
        assert "already holds a campaign" in capsys.readouterr().err

    def test_run_dir_and_resume_are_mutually_exclusive(
        self, tmp_path, capsys
    ):
        assert (
            main(
                self.RUN
                + [
                    "--run-dir",
                    str(tmp_path / "a"),
                    "--resume",
                    str(tmp_path / "b"),
                ]
            )
            == 2
        )
        assert "mutually exclusive" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_multiprocess_executor_flag(self, capsys):
        assert (
            main(self.RUN + ["--executor", "multiprocess", "--processes", "2"])
            == 0
        )
        assert "Campaign report" in capsys.readouterr().out

    def test_executor_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["campaign", "run", "--executor", "quantum"]
            )


class TestCliErrorPaths:
    """Bad inputs must exit 2 with a message, never a traceback."""

    def test_campaign_report_missing_file(self, tmp_path, capsys):
        assert main(["campaign", "report", str(tmp_path / "ghost.json")]) == 2
        assert "ghost.json" in capsys.readouterr().err

    def test_campaign_report_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["campaign", "report", str(path)]) == 2
        assert "not a campaign report" in capsys.readouterr().err

    def test_campaign_report_wrong_shape(self, tmp_path, capsys):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"something": "else"}))
        assert main(["campaign", "report", str(path)]) == 2
        assert "not a campaign report" in capsys.readouterr().err

    def test_defense_report_missing_file(self, tmp_path, capsys):
        assert main(["defense", "report", str(tmp_path / "ghost.json")]) == 2
        assert "ghost.json" in capsys.readouterr().err

    def test_defense_report_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("][")
        assert main(["defense", "report", str(path)]) == 2
        assert "not a defense matrix" in capsys.readouterr().err

    def test_campaign_run_rejects_zero_boards(self, capsys):
        assert main(["campaign", "run", "--boards", "0"]) == 2
        assert "boards must be positive" in capsys.readouterr().err

    def test_campaign_run_rejects_unknown_model(self, capsys):
        assert (
            main(["campaign", "run", "--models", "resnet50_pt,notanet"])
            == 2
        )
        assert "unknown models" in capsys.readouterr().err

    def test_campaign_run_rejects_nonpositive_processes(self, capsys):
        assert (
            main(
                [
                    "campaign", "run",
                    "--executor", "multiprocess",
                    "--processes", "0",
                ]
            )
            == 2
        )
        assert "--processes" in capsys.readouterr().err

    def test_demo_rejects_unknown_model(self, capsys):
        assert main(["demo", "--model", "notanet"]) == 2
        assert "notanet" in capsys.readouterr().err

    def test_profile_rejects_unknown_model(self, capsys):
        assert main(["profile", "notanet"]) == 2
        assert "notanet" in capsys.readouterr().err

    def test_defense_sweep_rejects_unknown_profile(self, capsys):
        assert (
            main(
                [
                    "defense", "sweep",
                    "--boards", "1", "--victims", "1",
                    "--profiles", "adamantium",
                ]
            )
            == 2
        )
        assert "unknown defense profile" in capsys.readouterr().err

    def test_defense_sweep_rejects_negative_delay(self, capsys):
        assert (
            main(
                [
                    "defense", "sweep",
                    "--boards", "1", "--victims", "1",
                    "--profiles", "none", "--no-weight-theft",
                    "--delay-ticks", "-1",
                ]
            )
            == 2
        )
        assert "non-negative" in capsys.readouterr().err

    def test_campaign_output_path_error_exits_2(self, tmp_path, capsys):
        bad = str(tmp_path / "no_such_dir" / "out.json")
        assert (
            main(
                ["campaign", "run", "--boards", "1", "--victims", "1",
                 "-o", bad]
            )
            == 2
        )
        assert "no_such_dir" in capsys.readouterr().err

    def test_profile_output_path_error_exits_2(self, tmp_path, capsys):
        bad = str(tmp_path / "no_such_dir" / "profiles.json")
        assert main(["profile", "resnet50_pt", "-o", bad]) == 2
        assert "no_such_dir" in capsys.readouterr().err

    def test_resume_of_wrong_format_spec(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "spec.json").write_text(json.dumps({"format": 99}))
        assert main(["campaign", "run", "--resume", str(run_dir)]) == 2
        assert "unsupported format" in capsys.readouterr().err


class TestFuzzCli:
    """The ``repro fuzz`` lane: run, replay, and its exit codes."""

    CORPUS = str(Path(__file__).parent / "corpus" / "fuzzlab")

    def test_run_green_exits_0(self, capsys):
        assert main(["fuzz", "run", "--budget", "2", "--seed", "0"]) == 0
        output = capsys.readouterr().out
        assert "Fuzzlab report" in output
        assert "2 ok, 0 violating" in output

    def test_run_writes_deterministic_report(self, tmp_path, capsys):
        target = tmp_path / "fuzz.json"
        assert (
            main(
                [
                    "fuzz", "run", "--budget", "1", "--seed", "0",
                    "--quiet", "-o", str(target),
                ]
            )
            == 0
        )
        payload = json.loads(target.read_text())
        assert payload["seed"] == 0
        assert payload["budget"] == 1
        assert len(payload["verdicts"]) == 1

    def test_run_rejects_zero_budget(self, capsys):
        assert main(["fuzz", "run", "--budget", "0"]) == 2
        assert "--budget" in capsys.readouterr().err

    def test_run_rejects_unknown_oracle(self, capsys):
        assert (
            main(["fuzz", "run", "--budget", "1", "--oracles", "vibes"]) == 2
        )
        assert "unknown oracle" in capsys.readouterr().err

    def test_run_rejects_nonpositive_shrink_reruns(self, capsys):
        assert (
            main(["fuzz", "run", "--budget", "1", "--shrink-reruns", "0"])
            == 2
        )
        assert "--shrink-reruns" in capsys.readouterr().err

    def test_run_output_path_error_exits_2(self, tmp_path, capsys):
        bad = str(tmp_path / "no_such_dir" / "fuzz.json")
        assert (
            main(
                ["fuzz", "run", "--budget", "1", "--seed", "0",
                 "--quiet", "-o", bad]
            )
            == 2
        )
        assert "no_such_dir" in capsys.readouterr().err

    def test_replay_non_object_seed_exits_2(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["fuzz", "replay", str(path)]) == 2
        assert "not a fuzzlab seed" in capsys.readouterr().err

    def test_replay_committed_corpus_green(self, capsys):
        assert main(["fuzz", "replay", self.CORPUS]) == 0
        output = capsys.readouterr().out
        assert "violating" in output
        assert "FAIL" not in output

    def test_replay_planted_seed_exits_1(self, tmp_path, capsys):
        from repro.fuzzlab import load_scenario, save_scenario, with_plant

        scenario, _ = load_scenario(
            sorted(Path(self.CORPUS).glob("*.json"))[0]
        )
        seed = save_scenario(
            with_plant(scenario, "spool-tamper"),
            tmp_path / "planted.json",
            note="deliberate",
        )
        assert main(["fuzz", "replay", str(seed)]) == 1
        assert "spool_integrity" in capsys.readouterr().out

    def test_replay_missing_seed_exits_2(self, tmp_path, capsys):
        assert main(["fuzz", "replay", str(tmp_path / "ghost.json")]) == 2
        assert "ghost.json" in capsys.readouterr().err


class TestDefenseSweepDedupe:
    """Duplicate --profiles entries are swept once, with a warning."""

    ARGS = [
        "defense", "sweep", "--boards", "1", "--victims", "1",
        "--models", "resnet50_pt", "--input-hw", "16",
        "--no-weight-theft",
    ]

    def test_duplicates_deduped_with_warning(self, capsys):
        assert main(self.ARGS + ["--profiles", "none,none,zero_on_free"]) == 0
        captured = capsys.readouterr()
        assert "duplicate profile(s)" in captured.err
        assert "none" in captured.err
        # Each profile appears as exactly one matrix row.
        assert captured.out.count("\nnone ") == 1

    def test_unique_profiles_stay_silent(self, capsys):
        assert main(self.ARGS + ["--profiles", "none,zero_on_free"]) == 0
        assert "duplicate" not in capsys.readouterr().err


class TestExploreCli:
    """The ``repro explore`` lanes: frontiers, elites, exit codes."""

    ATTACK = [
        "explore", "attack", "--seed", "0", "--population", "3",
        "--generations", "2", "--keep-elites", "1",
    ]
    DEFENSES = [
        "explore", "defenses", "--boards", "1", "--victims", "2",
        "--models", "resnet50_pt", "--input-hw", "16",
        "--scrub-rates", "16",
    ]

    def test_attack_prints_ranked_frontier(self, capsys):
        assert main(self.ATTACK) == 0
        output = capsys.readouterr().out
        assert "mode=attack" in output
        assert "# 1" in output

    def test_attack_run_twice_is_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "one.json"
        second = tmp_path / "two.json"
        assert main(self.ATTACK + ["-o", str(first)]) == 0
        assert main(self.ATTACK + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_attack_rejects_bad_population(self, capsys):
        assert main(self.ATTACK[:-2] + ["--population", "1"]) == 2
        assert "population" in capsys.readouterr().err

    def test_attack_rejects_unknown_profile(self, capsys):
        assert main(self.ATTACK + ["--profiles", "tinfoil"]) == 2
        assert "tinfoil" in capsys.readouterr().err

    def test_attack_exports_replayable_elites(self, tmp_path, capsys):
        elites = tmp_path / "elites"
        assert main(self.ATTACK + ["--elites", str(elites)]) == 0
        seeds = sorted(elites.glob("*.json"))
        assert seeds
        assert main(["fuzz", "replay", str(elites)]) == 0
        assert "0 violating" in capsys.readouterr().out

    def test_defenses_flags_pareto_frontier(self, tmp_path, capsys):
        target = tmp_path / "front.json"
        assert main(self.DEFENSES + ["-o", str(target)]) == 0
        output = capsys.readouterr().out
        assert "non-dominated frontier" in output
        payload = json.loads(target.read_text())
        assert payload["mode"] == "defenses"
        assert any(entry["on_front"] for entry in payload["entries"])

    def test_defenses_rejects_bad_scrub_rates(self, capsys):
        assert (
            main(self.DEFENSES[:-2] + ["--scrub-rates", "16,banana"]) == 2
        )
        assert "banana" in capsys.readouterr().err

    def test_defenses_markdown_table(self, capsys):
        assert main(self.DEFENSES + ["--markdown"]) == 0
        assert "| rank |" in capsys.readouterr().out
