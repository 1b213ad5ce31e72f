"""Tests for the command-line front end: config handling, artifacts, exit codes."""

import csv
import dataclasses
import json
import math
import os
import stat
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regretsim import cli, diagnostics, dynamics, learners
from regretsim.cli import (
    ConfigError,
    DiagnosticsToggles,
    ExperimentConfig,
    compare_learners,
    run_experiment,
)
from regretsim.dynamics import EmpiricalPlay, cce_gap
from regretsim.export import load_game_json
from regretsim.game import game_from_dict, game_to_dict, named_game, random_game
from trajectory_csv import trajectory_from_csv


def parse_flags(argv):
    parser = cli._build_parser()
    return cli.parse_config(parser.parse_args(argv))


class TestParseConfig:
    def test_minimal_flags_apply_defaults(self):
        cfg = parse_flags(["run", "--game", "matching_pennies", "--rounds", "1000"])
        assert cfg.game_name == "matching_pennies"
        assert cfg.rounds == 1000
        assert len(cfg.learner_specs) == 1
        assert cfg.learner_specs[0].mode == "opt_hedge"
        assert cfg.learner_specs[0].eta_policy == "practical"
        assert set(cfg.formats) == {"json", "csv"}

    def test_negative_eta_rejected(self):
        with pytest.raises(ConfigError):
            parse_flags(["run", "--game", "matching_pennies", "--eta", "-0.1"])

    def test_unknown_game_rejected(self):
        with pytest.raises(ConfigError):
            parse_flags(["run", "--game", "no_such_game"])

    def test_random_game_spec(self):
        cfg = parse_flags(["run", "--game", "random", "--actions", "3,3",
                           "--game-seed", "9", "--rounds", "16"])
        assert cfg.game_random == {"players": 2, "actions": [3, 3], "seed": 9}

    def test_random_requires_actions(self):
        with pytest.raises(ConfigError):
            parse_flags(["run", "--game", "random"])

    def test_learner_list(self):
        cfg = parse_flags(["compare", "--game", "matching_pennies",
                           "--learner", "hedge,opt_hedge", "--rounds", "8"])
        assert [s.mode for s in cfg.learner_specs] == ["hedge", "opt_hedge"]

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"game_name": "matching_pennies", "rounds": 64,
                                    "out_dir": "from_file"}))
        cfg = parse_flags(["run", "--config", str(path), "--rounds", "32"])
        assert cfg.rounds == 32          # flag wins
        assert cfg.out_dir == "from_file"  # file beats default

    def test_file_may_leave_the_game_to_flags(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"rounds": 64}))
        code = cli.main(["run", "--config", str(path), "--game", "matching_pennies",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["rounds"] == 64
        assert summary["config"]["game_name"] == "matching_pennies"
        assert "T=64 " in capsys.readouterr().out

    @pytest.mark.parametrize("flag, eta, played", [
        ("practical", None, learners.practical_eta(2, 64)),
        ("theorem", None, learners.recommended_eta(2, 64)), ("explicit", 0.5, 0.5)],
        ids=["practical-None", "theorem-None", "explicit-0.5"])
    def test_eta_policy_flag_over_config_eta(self, flag, eta, played, tmp_path):
        # a computed policy drops the config's eta; --eta-policy explicit keeps it
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"game_name": "matching_pennies", "learner_specs": [
            {"mode": "hedge", "eta_policy": "explicit", "eta": 0.5}]}))
        out = tmp_path / "out"
        cfg = parse_flags(["run", "--config", str(path), "--eta-policy", flag, "--rounds", "64",
                           "--format", "json", "--out", str(out)])
        assert cfg.learner_specs == (cli.LearnerSpec("hedge", flag, eta),)
        run_experiment(cfg)
        assert json.loads((out / "summary.json").read_text())["etas"] == [played] * 2

    @pytest.mark.parametrize("flags", [["--eta", "0.5"],
                                       ["--eta-policy", "explicit", "--eta", "0.5"]],
                             ids=["eta_alone", "eta_with_explicit"])
    def test_eta_flag_sets_explicit_policy(self, flags):
        cfg = parse_flags(["run", "--game", "matching_pennies", "--learner", "hedge"] + flags)
        assert cfg.learner_specs == (cli.LearnerSpec("hedge", "explicit", 0.5),)

    def test_round_trip_idempotent(self, tmp_path):
        cfg = parse_flags(["run", "--game", "random", "--actions", "2,2",
                           "--game-seed", "3", "--rounds", "128",
                           "--learner", "hedge", "--eta", "0.25",
                           "--diagnostics", "bound_terms,closeness"])
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert ExperimentConfig.from_dict(again.to_dict()) == again

    def test_diagnostics_flag_parsing(self):
        cfg = parse_flags(["run", "--game", "matching_pennies", "--rounds", "8",
                           "--diagnostics", "all", "--fd-h-max", "3"])
        assert cfg.diagnostics == DiagnosticsToggles(
            bound_terms=True, variance_inequality=True, fd_h_max=3, closeness=True)
        cfg = parse_flags(["run", "--game", "matching_pennies", "--rounds", "8",
                           "--diagnostics", "none"])
        assert cfg.diagnostics == DiagnosticsToggles()

    @pytest.mark.parametrize("command, config, flags, expected", [
        ("run", {"fd_h_max": 2}, ["--fd-h-max", "5"], DiagnosticsToggles(fd_h_max=5)),
        ("run", None, ["--fd-h-max", "5"], DiagnosticsToggles(fd_h_max=5)),
        ("diagnose", {"fd_h_max": 2}, [], DiagnosticsToggles(True, True, 2, True)),
        ("diagnose", {"fd_h_max": 2}, ["--fd-h-max", "3"], DiagnosticsToggles(True, True, 3, True)),
        ("run", {"fd_h_max": 2}, ["--diagnostics", "fd_profile"], DiagnosticsToggles(fd_h_max=2)),
    ], ids=["flag_beats_config", "flag_alone_turns_fd_profile_on", "diagnose_keeps_config",
            "diagnose_flag_beats_config", "config_order_for_listed_fd_profile"])
    def test_fd_h_max_flag_then_config_then_default(self, command, config, flags, expected,
                                                     tmp_path):
        body = {"game_name": "matching_pennies"}
        if config is not None:
            body["diagnostics"] = config
        path = tmp_path / "config.json"
        path.write_text(json.dumps(body))
        assert parse_flags([command, "--config", str(path)] + flags).diagnostics == expected

    def test_game_flags_override_config_random_game(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"game_random": {"actions": [3, 3], "seed": 1}}))
        cfg = parse_flags(["run", "--config", str(path), "--game-seed", "5"])
        assert cfg.game_random == {"actions": [3, 3], "seed": 5}
        cfg = parse_flags(["run", "--config", str(path), "--actions", "4,2,2"])
        assert cfg.game_random == {"actions": [4, 2, 2], "seed": 1, "players": 3}

    def test_diagnostic_table_matches_config_format(self):
        # every per-player diagnostic is a config toggle and a --diagnostics name
        fields = {f.name for f in dataclasses.fields(DiagnosticsToggles)}
        assert set(cli.PLAYER_DIAGNOSTICS) | {"fd_h_max"} == fields
        assert set(cli.PLAYER_DIAGNOSTICS) | {"fd_profile"} == set(cli.DIAGNOSTIC_NAMES)

    def test_exactly_one_game_source(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"rounds": 4, "game_name": "matching_pennies",
                                        "game_random": {"actions": [2, 2]}})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"rounds": 4})

    def test_formats_string_rejected_whole(self):
        # not split into the one-letter formats 'j', 's', 'o', 'n'
        with pytest.raises(ConfigError, match="non-empty list of formats, got 'json'"):
            ExperimentConfig.from_dict({"game_name": "matching_pennies", "formats": "json"})


class TestRunExperiment:
    def test_artifact_files_and_row_counts(self, tmp_path):
        cfg = parse_flags(["run", "--game", "matching_pennies",
                           "--rounds", str(2**10), "--out", str(tmp_path / "out")])
        run_experiment(cfg)
        curve = (tmp_path / "out" / "regret_curve.csv").read_text().splitlines()
        assert len(curve) == 1 + 2 * 2**10
        assert (tmp_path / "out" / "summary.json").exists()
        assert (tmp_path / "out" / "trajectory.csv").exists()

    def test_summary_records_switch_rounds(self, tmp_path, monkeypatch):
        # the CLI sets no c', so a zero switch threshold is patched into the run
        real_run = dynamics.run
        monkeypatch.setattr(dynamics, "run", lambda game, configs, rounds: real_run(
            game, [dataclasses.replace(c, c_prime=0.0) for c in configs], rounds))
        code = cli.main(["run", "--game", "random", "--actions", "2,2,2", "--game-seed", "20",
                         "--learner", "adaptive_opt_hedge,opt_hedge,hedge", "--eta", "0.5",
                         "--rounds", "48", "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["metadata"] == {"switch_rounds": [8, None, None]}

    def test_diagnose_scores_and_sums_each_player_once(self, tmp_path, monkeypatch):
        # the bound audits take Reg_i(T) from the regret report, and the variance
        # inequality its sums from the bound terms: one of each per player
        calls = []
        targets = [(m, "regret") for m in (dynamics, diagnostics) if hasattr(m, "regret")]
        for module, name in targets + [(diagnostics, "_variance_sums")]:
            def counted(trajectory, player, real=getattr(module, name), name=name):
                calls.append((name, player))
                return real(trajectory, player)
            monkeypatch.setattr(module, name, counted)
        code = cli.main(["diagnose", "--game", "random", "--actions", "3,2", "--game-seed", "1",
                         "--rounds", "64", "--out", str(tmp_path / "out")])
        assert code == 0
        assert sorted(calls) == [("_variance_sums", 0), ("_variance_sums", 1),
                                 ("regret", 0), ("regret", 1)]
        assert not hasattr(diagnostics, "regret")  # the audits do not rescore

    def test_summary_deterministic_modulo_duration(self, tmp_path):
        argv = ["run", "--game", "random", "--actions", "2,2", "--game-seed", "5",
                "--rounds", "64"]
        summaries = []
        for sub in ("a", "b"):
            cfg = parse_flags(argv + ["--out", str(tmp_path / sub)])
            run_experiment(cfg)
            data = json.loads((tmp_path / sub / "summary.json").read_text())
            data.pop("duration_seconds")
            data["config"].pop("out_dir")
            summaries.append(json.dumps(data, sort_keys=True))
        assert summaries[0] == summaries[1]

    def test_seed_is_only_a_label(self, tmp_path):
        # self-play is deterministic: --seed reaches summary.json's config and nothing else
        artifacts = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert cli.main(["run", "--game", "random", "--actions", "3,2", "--game-seed", "4",
                             "--rounds", "64", "--seed", seed, "--out", str(out)]) == 0
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            summary = json.loads(files.pop("summary.json"))
            assert summary["config"].pop("seed") == int(seed)
            summary["config"].pop("out_dir")
            summary.pop("duration_seconds")
            artifacts.append((files, summary))
        assert sorted(artifacts[0][0]) == ["regret_curve.csv", "trajectory.csv"]
        assert artifacts[0] == artifacts[1]

    def test_second_diagnose_into_the_same_out_writes_the_same_artifacts(self, tmp_path):
        out = tmp_path / "out"
        argv = ["diagnose", "--game", "random", "--actions", "3,2", "--game-seed", "4",
                "--rounds", "300", "--fd-h-max", "3", "--seed", "7", "--out", str(out)]

        def artifacts():
            files = {path.name: path.read_bytes() for path in out.iterdir()}
            summary = json.loads(files.pop("summary.json"))
            summary.pop("duration_seconds")
            return files, summary

        assert cli.main(argv) == 0
        first = artifacts()
        assert len(first[0]) == 7  # diagnostics.json and six CSV files
        assert cli.main(argv) == 0
        assert artifacts() == first

    def test_diagnose_reports_one_profile_whatever_the_format(self, tmp_path):
        # the fd profile comes from fd_decay_profile with or without the CSV files
        argv = ["diagnose", "--game", "random", "--actions", "3,2", "--game-seed", "4",
                "--rounds", "300", "--fd-h-max", "4"]
        assert cli.main(argv + ["--format", "json", "--out", str(tmp_path / "json")]) == 0
        assert cli.main(argv + ["--out", str(tmp_path / "both")]) == 0
        assert ((tmp_path / "json" / "diagnostics.json").read_bytes()
                == (tmp_path / "both" / "diagnostics.json").read_bytes())
        summaries = []
        for sub in ("json", "both"):
            summary = json.loads((tmp_path / sub / "summary.json").read_text())
            summary.pop("duration_seconds")
            assert summary["config"].pop("out_dir") == str(tmp_path / sub)
            summaries.append(summary)
        assert (summaries[0]["config"].pop("formats"), summaries[1]["config"].pop("formats")) == (
            ["json"], ["json", "csv"])
        assert summaries[0] == summaries[1]

    def test_subnormal_eta_writes_null_entropy_terms(self, tmp_path):
        # log(3) / 1e-320 is past the double range: strict JSON has null for it
        out = tmp_path / "out"
        assert cli.main(["diagnose", "--game", "random", "--actions", "3,3", "--game-seed", "1",
                         "--rounds", "8", "--eta", "1e-320", "--out", str(out)]) == 0

        def strict(constant):
            raise AssertionError(f"{constant} in strict JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=strict)
        report = json.loads((out / "diagnostics.json").read_text(), parse_constant=strict)
        assert summary["etas"] == [1e-320, 1e-320]
        for entry in report["bound_terms"]:
            assert entry["term_log_nats"] is None and entry["term_log_base2"] is None
            assert entry["c_star"] == 0.0 and entry["holds_at_zero"] is True

    def test_diagnostics_json_has_finite_c_star(self, tmp_path):
        cfg = parse_flags(["run", "--game", "random", "--actions", "3,3",
                           "--game-seed", "9", "--rounds", "256",
                           "--diagnostics", "all", "--out", str(tmp_path / "out")])
        run_experiment(cfg)
        report = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert "bound_terms" in report
        for entry in report["bound_terms"]:
            assert entry["c_star"] is not None
            assert math.isfinite(entry["c_star"])
        assert all(e["within_bound"] for e in report["closeness"])

    def test_summary_recomputable_from_trajectory_csv(self, tmp_path):
        cfg = parse_flags(["run", "--game", "random", "--actions", "2,3",
                           "--game-seed", "2", "--rounds", "128",
                           "--out", str(tmp_path / "out")])
        summary = run_experiment(cfg)
        strategies, losses = trajectory_from_csv(tmp_path / "out" / "trajectory.csv")
        for i, entry in enumerate(summary["regret"]):
            play = float(np.einsum("tj,tj->", strategies[i], losses[i]))
            best = float(losses[i].sum(axis=0).min())
            assert entry["regret"] == pytest.approx(play - best, abs=1e-9)
            assert entry["cumulative_loss"] == pytest.approx(play, abs=1e-9)
        # the CCE gap follows from the CSV strategies plus the game pinned in
        # the config echo
        spec = summary["config"]["game_random"]
        game = random_game(spec["players"], spec["actions"], spec["seed"])
        rounds = strategies[0].shape[0]
        probs = sum(np.multiply.outer(strategies[0][t], strategies[1][t])
                    for t in range(rounds)) / rounds
        gap = cce_gap(game, EmpiricalPlay(probs=probs, rounds=rounds))
        assert summary["cce"]["epsilon"] == pytest.approx(gap.epsilon, abs=1e-9)

    def test_cce_past_dense_limit(self, tmp_path):
        # 1001 x 1000 = 1,001,000 profiles, one past dynamics.DENSE_SUPPORT_LIMIT's 10^6
        code = cli.main(["run", "--game", "random", "--actions", "1001,1000", "--rounds", "2",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        gaps = [e["regret"] / 2 for e in summary["regret"]]
        assert summary["cce"] == {"epsilon": max(0.0, *gaps), "raw_gaps": gaps}

    def test_cce_taken_from_regret_report(self, tmp_path, capsys, monkeypatch):
        def dense(*args, **kwargs):
            raise AssertionError("the CLI built the dense joint distribution")

        monkeypatch.setattr(dynamics, "empirical_joint_distribution", dense)
        monkeypatch.setattr(dynamics, "cce_gap", dense)
        code = cli.main(["run", "--game", "random", "--actions", "2,3,2", "--game-seed", "3",
                         "--rounds", "64", "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        gaps = [e["regret"] / 64 for e in summary["regret"]]
        assert summary["cce"] == {"epsilon": max(0.0, *gaps), "raw_gaps": gaps}
        assert f"cce gap {max(0.0, *gaps):.6g}" in capsys.readouterr().out

    def test_float_rendering_is_full_precision(self, tmp_path):
        cfg = parse_flags(["run", "--game", "matching_pennies", "--rounds", "4",
                           "--out", str(tmp_path / "out")])
        run_experiment(cfg)
        with open(tmp_path / "out" / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        strategy_values = {r["value"] for r in rows if r["kind"] == "strategy"}
        assert "0.5" in strategy_values
        for r in rows:
            assert float(r["value"]) == float(format(float(r["value"]), ".17g"))

    def test_trajectory_gate(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "TRAJECTORY_ROW_LIMIT", 10)
        cfg = parse_flags(["run", "--game", "matching_pennies", "--rounds", "8",
                           "--out", str(tmp_path / "out")])
        run_experiment(cfg)
        assert not (tmp_path / "out" / "trajectory.csv").exists()
        assert "skipping trajectory.csv" in capsys.readouterr().err
        cfg = parse_flags(["run", "--game", "matching_pennies", "--rounds", "8",
                           "--force-trajectory", "--out", str(tmp_path / "out2")])
        run_experiment(cfg)
        assert (tmp_path / "out2" / "trajectory.csv").exists()
        # the limit counts CSV rows: one strategy and one loss row per round and action
        monkeypatch.setattr(cli, "TRAJECTORY_ROW_LIMIT", 20)
        cfg = parse_flags(["run", "--game", "matching_pennies", "--rounds", "3",
                           "--out", str(tmp_path / "out3")])
        run_experiment(cfg)
        assert not (tmp_path / "out3" / "trajectory.csv").exists()
        assert "24 rows" in capsys.readouterr().err
        monkeypatch.setattr(cli, "TRAJECTORY_ROW_LIMIT", 24)
        cfg = parse_flags(["run", "--game", "matching_pennies", "--rounds", "3",
                           "--out", str(tmp_path / "out4")])
        run_experiment(cfg)
        lines = (tmp_path / "out4" / "trajectory.csv").read_text().splitlines()
        assert len(lines) == 1 + 24
        # --no-trajectory skips it below the limit too, and writes the other CSV files
        cfg = parse_flags(["run", "--game", "matching_pennies", "--rounds", "3", "--no-trajectory",
                           "--format", "csv", "--out", str(tmp_path / "out5")])
        run_experiment(cfg)
        assert [f.name for f in (tmp_path / "out5").iterdir()] == ["regret_curve.csv"]


class TestCompare:
    def test_requires_two_learners(self, tmp_path):
        cfg = parse_flags(["compare", "--game", "matching_pennies", "--rounds", "8",
                           "--out", str(tmp_path / "out")])
        with pytest.raises(ConfigError):
            compare_learners(cfg)

    def test_checkpoints_nondecreasing_and_csv(self, tmp_path):
        cfg = parse_flags(["compare", "--game", "matching_pennies",
                           "--learner", "hedge,opt_hedge", "--rounds", "64",
                           "--eta", "0.1", "--out", str(tmp_path / "out")])
        rows = compare_learners(cfg)
        with open(tmp_path / "out" / "compare.csv", newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert {r["learner"] for r in parsed} == {"hedge", "opt_hedge"}
        for learner in ("hedge", "opt_hedge"):
            rounds = [int(r["round"]) for r in parsed if r["learner"] == learner]
            assert rounds == sorted(rounds)
        assert {int(r["round"]) for r in parsed} == {16, 32, 64}
        assert len(rows) == len(parsed)
        raw = (tmp_path / "out" / "compare.csv").read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "learner,eta,round,player,regret"
        assert len(lines) == 1 + 2 * 3 * 2  # learners * checkpoints * players
        assert lines[1:] == [
            f"{r['learner']},{format(r['eta'], '.17g')},{r['round']},{r['player']},"
            f"{format(r['regret'], '.17g')}" for r in rows]

    def test_spec_without_eta_rejected_before_simulating(self, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("dynamics.run called on a rejected config")

        path = tmp_path / "config.json"
        path.write_text(json.dumps({"game_name": "matching_pennies", "learner_specs": [
            {"mode": "hedge", "eta_policy": "explicit", "eta": 0.1},
            {"mode": "opt_hedge", "eta_policy": "explicit"}]}))
        monkeypatch.setattr(dynamics, "run", no_run)
        code = cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "explicit policy needs an eta" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integer_eta_is_a_float_in_every_artifact(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"game_name": "matching_pennies", "rounds": 8, "learner_specs": [
            {"mode": mode, "eta_policy": "explicit", "eta": 1} for mode in ("hedge", "opt_hedge")]}))
        for command in ("run", "compare"):
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        rows = json.loads((tmp_path / "compare" / "compare.json").read_text())
        with open(tmp_path / "compare" / "compare.csv", newline="") as fh:
            column = [r["eta"] for r in csv.DictReader(fh)]
        etas = summary["etas"] + [r["eta"] for r in rows]
        assert all(type(eta) is float for eta in etas)
        assert set(etas) == {float(eta) for eta in column} == {1.0}

    def test_matching_pennies_symmetric_fixed_point(self, tmp_path):
        # uniform self-play never moves on the symmetric fixture, so both
        # learners score exactly zero regret at every checkpoint
        cfg = parse_flags(["compare", "--game", "matching_pennies",
                           "--learner", "hedge,opt_hedge",
                           "--rounds", str(2**14), "--out", str(tmp_path / "out")])
        rows = compare_learners(cfg)
        assert all(r["regret"] == 0.0 for r in rows)

    def test_optimism_wins_on_asymmetric_game(self, tmp_path):
        cfg = parse_flags(["compare", "--game", "random", "--actions", "2,2",
                           "--game-seed", "11", "--learner", "hedge,opt_hedge",
                           "--rounds", str(2**12), "--out", str(tmp_path / "out")])
        rows = compare_learners(cfg)
        final = {r["learner"]: max(x["regret"] for x in rows
                                   if x["learner"] == r["learner"] and x["round"] == 2**12)
                 for r in rows}
        assert final["opt_hedge"] < final["hedge"]


class TestMainExitCodes:
    def test_ok(self, tmp_path, capsys):
        code = cli.main(["run", "--game", "matching_pennies", "--rounds", "8",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert "regret" in capsys.readouterr().out

    def test_config_error(self, tmp_path, capsys):
        code = cli.main(["run", "--game", "matching_pennies", "--rounds", "8",
                         "--eta", "-0.1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "absent.json")])
        assert code == 2

    @pytest.mark.parametrize("body", [None, b"\xff\xfe{}"], ids=["directory", "not_utf8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, body):
        path = tmp_path
        if body is not None:
            path = tmp_path / "config.json"
            path.write_bytes(body)
        code = cli.main(["run", "--config", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: --config:")

    def test_bad_game_file_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"players": 2, "actions": [2, 2],
                                    "losses": [[0.0, 0.5, 0.5, 2.0], [0.0] * 4]}))
        code = cli.main(["run", "--game", str(path), "--rounds", "4",
                         "--out", str(tmp_path / "out")])
        assert code == 2

    # a 401-digit integer is past the double range: converting it overflows
    @pytest.mark.parametrize("cell", [True, "0.5", 10**400], ids=["true", "string", "huge_int"])
    def test_non_number_loss_cell_is_config_error(self, cell, tmp_path, capsys, monkeypatch):
        data = game_to_dict(named_game("matching_pennies"))
        data["losses"][0][1] = cell
        with pytest.raises(ValueError, match="game JSON"):
            game_from_dict(data)

        def no_run(*args, **kwargs):
            raise AssertionError("dynamics.run called on a rejected game")

        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        monkeypatch.setattr(dynamics, "run", no_run)
        code = cli.main(["run", "--game", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_runtime_error(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = cli.main(["run", "--game", "matching_pennies", "--rounds", "4",
                         "--out", str(blocker)])
        assert code == 3

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_non_finite_run_exits_3_and_writes_nothing(self, command, tmp_path, capsys):
        # a step of 1e308 turns the strategies into NaN in round 3
        out = tmp_path / "out"
        code = cli.main([command, "--game", "random", "--actions", "3,3", "--game-seed", "2",
                         "--rounds", "16", "--eta", "1e308", "--out", str(out)]
                        + ["--learner", "opt_hedge,hedge"] * (command == "compare"))
        assert code == 3
        # only the CLI's message: no numpy warning from inside the engine
        assert capsys.readouterr().err == "error: round 3, player 1: strategy or loss not finite\n"
        assert list(out.iterdir()) == []

    def test_eta_1000_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # a legal step size whose strategies turn NaN in round 5
        out = tmp_path / "out"
        code = cli.main(["run", "--game", "random", "--actions", "3,3", "--game-seed", "6",
                         "--rounds", "256", "--eta", "1000", "--learner", "opt_hedge",
                         "--format", "json", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err == "error: round 5, player 1: strategy or loss not finite\n"
        assert list(out.iterdir()) == []

    def test_closeness_bound_past_float_range_is_null(self, tmp_path):
        # exp(6 * 200) overflows a double; the run itself stays finite
        out = tmp_path / "out"
        code = cli.main(["diagnose", "--game", "random", "--actions", "3,3", "--game-seed", "1",
                         "--rounds", "64", "--eta", "200", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "diagnostics.json").read_text())
        assert [(e["bound"], e["within_bound"]) for e in report["closeness"]] == [(None, True)] * 2

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=2, max_size=3), st.sampled_from(learners.MODES),
           st.sampled_from([0.1, 10.0, 1e3, 1e5, 1e308]), st.integers(1, 64),
           st.integers(0, 2**32 - 1))
    def test_scoring_names_the_first_non_finite_round_and_player(self, actions, mode, eta,
                                                                   rounds, game_seed):
        game = random_game(len(actions), actions, game_seed)
        configs = [dynamics.LearnerConfig(mode=mode, eta=eta)] * len(actions)
        with np.errstate(all="ignore"):
            traj = dynamics.run(game, configs, rounds)
        # the first round, then the first player, with a non-finite strategy or loss entry
        finite = np.stack([np.isfinite(x).all(axis=1) & np.isfinite(losses).all(axis=1)
                           for x, losses in zip(traj.strategies, traj.losses)], axis=1)
        cfg = ExperimentConfig(rounds=rounds)
        if finite.all():
            entries = cli._score(game, configs, cfg)[1]
            assert [e.total_regret for e in entries] == [
                e.total_regret for e in dynamics.regret_report(traj)]
        else:
            t, i = np.argwhere(~finite)[0]
            with pytest.raises(RuntimeError) as info:
                cli._score(game, configs, cfg)
            assert str(info.value) == f"round {t + 1}, player {i + 1}: strategy or loss not finite"

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_unusable_out_exits_before_simulating(self, command, tmp_path, monkeypatch):
        # a patched run that raised would exit 3 as well, so record the calls
        calls = []
        monkeypatch.setattr(dynamics, "run", lambda *args, **kwargs: calls.append(args))
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        code = cli.main([command, "--game", "matching_pennies", "--rounds", "4",
                         "--learner", "hedge,opt_hedge", "--out", str(blocker)])
        assert code == 3
        assert calls == []

    @pytest.mark.parametrize("policy", ["practical", "theorem"])
    def test_eta_flag_beside_computed_policy_exits_before_simulating(self, policy, tmp_path,
                                                                      capsys, monkeypatch):
        # the flag twin of a config spec with an eta under a computed policy
        calls = []
        monkeypatch.setattr(dynamics, "run", lambda *args, **kwargs: calls.append(args))
        code = cli.main(["run", "--game", "matching_pennies", "--rounds", "64", "--eta", "0.5",
                         "--eta-policy", policy, "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (f"config error: --eta: sets an explicit step size, "
                                           f"but --eta-policy is {policy!r}\n")
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", [["--diagnostics", "all"], ["--fd-h-max", "3"],
                                      ["--no-trajectory"], ["--force-trajectory"]],
                             ids=["diagnostics", "fd_h_max", "no_trajectory", "force_trajectory"])
    def test_compare_rejects_diagnostic_and_trajectory_flags(self, flag, tmp_path, monkeypatch):
        # compare runs no diagnostic and writes no trajectory, so these flags would be dropped
        calls = []
        monkeypatch.setattr(dynamics, "run", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(SystemExit) as exc:
            cli.main(["compare", "--game", "matching_pennies", "--learner", "hedge,opt_hedge",
                      "--rounds", "8", "--out", str(tmp_path / "out"), *flag])
        assert exc.value.code == 2
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("diagnostics", {"closeness": True, "fd_h_max": 3}),
                                            ("emit_trajectory", False), ("force_trajectory", True)],
                             ids=["diagnostics", "emit_trajectory", "force_trajectory"])
    def test_compare_rejects_diagnostic_and_trajectory_config_keys(self, key, value, tmp_path,
                                                                    capsys, monkeypatch):
        # the config twin of the flag test above: compare would drop these keys
        calls = []
        monkeypatch.setattr(dynamics, "run", lambda *args, **kwargs: calls.append(args))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"game_name": "matching_pennies", "rounds": 8, key: value,
                                    "learner_specs": [{"mode": "hedge"}, {"mode": "opt_hedge"}]}))
        code = cli.main(["compare", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: config.{key}:")
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--game", "--config"])
    def test_directory_game_is_config_error(self, flag, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("dynamics.run called on a rejected config")

        monkeypatch.setattr(dynamics, "run", no_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "config.json").write_text(json.dumps({"game_path": "d"}))
        code = cli.main(["run", flag, "d" if flag == "--game" else "config.json"])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: config.game:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["--game", "matching_pennies", "--diagnostics", "closeness", "--fd-h-max", "5"],
        ["--game", "matching_pennies", "--diagnostics", "none", "--fd-h-max", "5"],
        ["--game", "matching_pennies", "--game-seed", "5"],
        ["--game", "matching_pennies", "--actions", "4,4"],
        ["--game", "game.json", "--game-seed", "5"],
        ["--config", "named.json", "--game-seed", "5"],
        ["--config", "path.json", "--actions", "2,2"],
        ["--config", "named.json", "--game", ""],
    ], ids=["fd_h_max_without_fd_profile", "fd_h_max_with_none", "game_seed_named_game",
            "actions_named_game", "game_seed_game_path", "game_seed_config_named_game",
            "actions_config_game_path", "empty_game_beside_config"])
    def test_dropped_flag_exits_before_simulating(self, argv, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("dynamics.run called on a rejected config")

        monkeypatch.setattr(dynamics, "run", no_run)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen-game", "--actions", "2,2", "--out", "game.json"]) == 0
        (tmp_path / "named.json").write_text(json.dumps({"game_name": "matching_pennies"}))
        (tmp_path / "path.json").write_text(json.dumps({"game_path": "game.json"}))
        code = cli.main(["run", "--rounds", "8"] + argv)
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_gen_game(self, tmp_path, capsys):
        out = tmp_path / "game.json"
        code = cli.main(["gen-game", "--actions", "2,3,2", "--game-seed", "4",
                         "--out", str(out)])
        assert code == 0
        game = load_game_json(out)
        assert game.action_counts == (2, 3, 2)

    def test_gen_game_creates_missing_directories(self, tmp_path):
        out = tmp_path / "a" / "b" / "game.json"
        assert cli.main(["gen-game", "--actions", "2,2", "--out", str(out)]) == 0
        assert load_game_json(out).action_counts == (2, 2)

    def test_gen_game_writes_into_a_fifo_and_keeps_it(self, tmp_path):
        fifo, read = tmp_path / "game.fifo", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
        reader.start()
        assert cli.main(["gen-game", "--actions", "2,2", "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert stat.S_ISFIFO(fifo.lstat().st_mode)
        assert json.loads(read[0])["actions"] == [2, 2]

    def test_gen_game_out_directory_is_runtime_error(self, tmp_path, capsys):
        assert cli.main(["gen-game", "--actions", "2,2", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["run", "compare", "diagnose", "gen-game"])
    def test_oversized_random_game_is_refused_before_allocation(self, command, tmp_path, capsys,
                                                                 monkeypatch):
        # two 10^5 x 10^5 tensors would take 149 GiB; the stand-in allocates nothing
        calls = []

        def sentinel(*args):
            calls.append(args)
            raise MemoryError("random_game called for an oversized game")

        monkeypatch.setattr(cli, "random_game", sentinel)
        out = tmp_path / "out"
        game = [] if command == "gen-game" else ["--game", "random"]
        learners_flag = ["--learner", "hedge,opt_hedge"] if command == "compare" else []
        code = cli.main([command, *game, "--actions", "100000,100000", *learners_flag,
                         "--out", str(out)])
        assert (code, calls) == (2, [])
        err = capsys.readouterr().err
        assert "160000000000 bytes" in err and f"limit of {cli.RANDOM_GAME_BYTES}" in err, err
        assert not out.exists()

    def test_diagnose_enables_everything(self, tmp_path):
        code = cli.main(["diagnose", "--game", "random", "--actions", "2,2",
                         "--game-seed", "1", "--rounds", "32",
                         "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert set(report) == {"bound_terms", "variance_inequality",
                               "fd_profile", "closeness"}
        # the audit's regret is the run's regret, to the last bit
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert ([e["regret"] for e in report["bound_terms"]]
                == [e["regret"] for e in summary["regret"]])

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--game", "random", "--actions", "2,2", "--fd-h-max", "-1", "--rounds", "16"],
        ["run", "--game", "random", "--actions", "3", "--rounds", "16"],
        ["compare", "--game", "random", "--actions", "2,0", "--learner", "hedge,opt_hedge"],
        ["diagnose", "--game", "random", "--actions", "2,2", "--learner", "hedge"],
        ["gen-game", "--actions", "2,0"],
        ["run", "--game", "matching_pennies", "--rounds", "8", "--format", ","],
        ["compare", "--game", "matching_pennies", "--learner", "hedge,opt_hedge", "--rounds", "8",
         "--format", ","],
        ["run", "--game", "matching_pennies", "--learner", "bogus"],
        ["run", "--game", "matching_pennies", "--format", "xml"],
        ["run", "--game", "matching_pennies", "--learner", "hedge,opt_hedge,hedge"],
        ["run", "--game", "random", "--actions", "3,x"],
        ["run", "--game", "matching_pennies", "--diagnostics", "nope"],
        ["run", "--game", "matching_pennies", "--learner", ""],
        ["run", "--game", "matching_pennies", "--learner", ","],
        ["run", "--game", "matching_pennies", "--format", ""],
        ["run", "--game", "matching_pennies", "--diagnostics", ""],
        ["run", "--game", "matching_pennies", "--diagnostics", ","],
        ["diagnose", "--game", "matching_pennies", "--diagnostics", ""],
    ], ids=["fd_h_max_negative", "one_player", "zero_actions", "diagnose_hedge",
            "gen_game_zero_actions", "run_no_formats", "compare_no_formats", "learner_unknown",
            "format_unknown", "more_learners_than_players", "actions_not_integers_flag",
            "diagnostic_unknown", "learner_empty", "learner_comma", "format_empty",
            "diagnostics_empty", "diagnostics_comma", "diagnose_diagnostics_empty"])
    def test_bad_input_exits_before_simulating(self, argv, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("dynamics.run called on a rejected config")

        monkeypatch.setattr(dynamics, "run", no_run)
        code = cli.main(argv + ["--out", str(tmp_path / "out")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "diagnose", "compare"])
    def test_empty_out_exits_before_simulating(self, command, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("dynamics.run called on a rejected config")

        monkeypatch.setattr(dynamics, "run", no_run)
        monkeypatch.chdir(tmp_path)
        learners_flag = ["--learner", "hedge,opt_hedge"] if command == "compare" else []
        code = cli.main([command, "--game", "matching_pennies", *learners_flag, "--out", ""])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: config.out_dir:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, body", [
        ("--config", {"game_name": "matching_pennies", "rounds": "10"}),
        ("--config", {"game_name": "matching_pennies",
                      "learner_specs": [{"eta_policy": "explicit", "eta": "0.1"}]}),
        ("--config", {"game_name": "matching_pennies", "diagnostics": {"fd_h_max": "3"}}),
        ("--config", {"game_random": {"actions": ["x", 2]}}),
        ("--config", {"game_random": {"players": "two", "actions": [2, 2]}}),
        ("--config", [{"game_name": "matching_pennies"}]),
        ("--config", {"game_path": ["game.json"]}),
        ("--game", {"players": 2, "actions": 3, "losses": [[0.5] * 4] * 2}),
        ("--game", {"players": 2, "actions": [2, 2], "losses": 5}),
        ("--config", {"game_name": "matching_pennies", "rounds": True}),
        ("--config", {"game_name": "matching_pennies",
                      "learner_specs": [{"eta_policy": "explicit", "eta": True}]}),
        ("--config", {"game_name": "matching_pennies", "diagnostics": {"fd_h_max": True}}),
        ("--config", {"game_name": "matching_pennies", "seed": "abc"}),
        ("--config", {"game_random": {"actions": [3]}}),
        ("--config", {"game_name": "matching_pennies", "out_dir": 5}),
        ("--config", {"game_name": "matching_pennies", "out_dir": ""}),
        ("--config", {"game_random": {"actions": [True, 2.9]}}),
        ("--game", {"players": 2, "actions": [2, 2.5], "losses": [[0.5] * 4] * 2}),
        ("--config", {"game_name": "matching_pennies", "emit_trajectory": "no"}),
        ("--config", {"game_name": "matching_pennies", "diagnostics": {"closeness": "no"}}),
        ("--config", {"game_name": "matching_pennies", "diagnostics": {"variance_inequality": True},
                      "learner_specs": [{"mode": "opt_hedge", "eta_policy": "explicit", "eta": eta}
                                        for eta in (0.1, 0.2)]}),
        ("--config", {"game_name": "matching_pennies",
                      "learner_specs": [{"mode": "opt_hedge", "eta": 0.5}]}),
        ("--config", {"game_name": "matching_pennies",
                      "learner_specs": [{"eta_policy": "theorem", "eta": 0.5}]}),
        ("--config", {"game_name": "matching_pennies", "formats": []}),
        ("--config", {"game_name": "matching_pennies", "formats": "json"}),
        ("--config", {"game_name": "matching_pennies", "roundz": 10}),
        ("--config", {"game_name": "matching_pennies", "learner_specs": [{"eta_policy": "bogus"}]}),
        ("--eta 0.1 --config", {"game_name": "matching_pennies", "learner_specs": ["hedge"]}),
        ("--config", {"game_name": "matching_pennies", "diagnostics": ["closeness"]}),
    ], ids=["rounds_string", "eta_string", "fd_h_max_string", "actions_not_integers",
            "players_not_integer", "config_array", "game_path_not_string",
            "game_actions_scalar", "game_losses_scalar", "rounds_true", "eta_true",
            "fd_h_max_true", "seed_string", "random_one_player", "out_dir_not_string",
            "out_dir_empty", "random_actions_bool_and_fraction", "game_actions_fraction",
            "emit_trajectory_string", "closeness_string", "variance_inequality_mixed_eta",
            "eta_under_practical", "eta_under_theorem", "formats_empty", "formats_string",
            "unknown_key", "eta_policy_unknown", "learner_spec_string_under_eta_flag",
            "diagnostics_list"])
    def test_bad_file_exits_before_simulating(self, flag, body, tmp_path, capsys, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("dynamics.run called on a rejected config")

        path = tmp_path / "input.json"
        path.write_text(json.dumps(body))
        monkeypatch.setattr(dynamics, "run", no_run)
        # no --out flag, so a file's out_dir is read; the default is ./out
        monkeypatch.chdir(tmp_path)
        code = cli.main(["run", *flag.split(), str(path)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
