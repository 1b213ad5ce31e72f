"""Self-test of the benchmark's output checks.

    python3 benchmarks/selftest.py

Runs each workload at a small size, then feeds its check the genuine result
and deliberately corrupted copies: one strategy entry moved by 1e-6, one CSV
row dropped, one regret off by 1e-6, and so on. Exits 0 when every genuine
result passes and every corruption is reported as a failure.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workload  # noqa: E402  (needs the src path above)

NUDGE = 1e-6


class SmallCli(workload.CliDiagnose):
    ROUNDS = 256


class SmallBatch(workload.BatchSmallGames):
    GAMES_PER_SIZE = 1
    ROUNDS = 64


class SmallMultiplayer(workload.MultiplayerLong):
    BIG_ACTIONS = (3,) * 5
    BIG_ROUNDS = 128
    SMALL_ROUNDS = 256


def _edit_csv(path: Path, row: int, edit) -> None:
    """Replace data row ``row`` (0 = first after the header) by ``edit(fields)``;
    an edit returning None drops the row."""
    lines = path.read_text().splitlines()
    fields = edit(lines[row + 1].split(","))
    lines[row + 1: row + 2] = [] if fields is None else [",".join(fields)]
    path.write_text("\n".join(lines) + "\n")


def _nudge_last(fields):
    return fields[:-1] + [repr(float(fields[-1]) + NUDGE)]


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def cli_cases(work: Path):
    w = SmallCli(3, work)
    code, _ = w.body()
    assert code == 0, f"diagnose exited with {code}"

    def corrupted(edit):
        def run():
            broken = work / "broken"
            shutil.rmtree(broken, ignore_errors=True)
            shutil.copytree(w.out, broken)
            edit(broken)
            return workload.checks.check_cli_outputs(broken, w.a, w.b, w.eta, w.ROUNDS, w.FD_H_MAX)
        return run

    def nudge_cce(d):
        d["cce"]["raw_gaps"][0] += NUDGE

    def nudge_regret(d):
        d["regret"][1]["regret"] += NUDGE

    def nudge_fd(d):
        d["fd_profile"][0]["sup_norms"][2] += NUDGE

    yield "cli genuine", lambda: w.check(None), False
    yield "cli strategy entry moved by 1e-6", corrupted(
        lambda d: _edit_csv(d / "trajectory.csv", 20, _nudge_last)), True
    yield "cli trajectory.csv row dropped", corrupted(
        lambda d: _edit_csv(d / "trajectory.csv", 100, lambda f: None)), True
    yield "cli regret_curve.csv row dropped", corrupted(
        lambda d: _edit_csv(d / "regret_curve.csv", 7, lambda f: None)), True
    yield "cli regret curve entry off by 1e-6", corrupted(
        lambda d: _edit_csv(d / "regret_curve.csv", 40, _nudge_last)), True
    yield "cli fd_values row dropped", corrupted(
        lambda d: _edit_csv(d / "fd_values_player2.csv", 300, lambda f: None)), True
    yield "cli fd_norms sup norm off by 1e-6", corrupted(
        lambda d: _edit_csv(d / "fd_norms_player1.csv", 3, _nudge_last)), True
    yield "cli diagnostics.json sup norm off by 1e-6", corrupted(
        lambda d: _edit_json(d / "diagnostics.json", nudge_fd)), True
    yield "cli summary.json cce gap off by 1e-6", corrupted(
        lambda d: _edit_json(d / "summary.json", nudge_cce)), True
    yield "cli summary.json regret off by 1e-6", corrupted(
        lambda d: _edit_json(d / "summary.json", nudge_regret)), True


def batch_cases(work: Path):
    w = SmallBatch(5, work)
    result = w.body()

    def corrupted(edit):
        def run():
            broken = {mode: list(results) for mode, results in result.items()}
            edit(broken)
            return w.check(broken)
        return run

    def nudge_regret(r):
        r["opt_hedge"][1] = dataclasses.replace(
            r["opt_hedge"][1], total_regrets=[r["opt_hedge"][1].total_regrets[0] + NUDGE,
                                              r["opt_hedge"][1].total_regrets[1]])

    def change_best_action(r):
        old = r["hedge"][2]
        r["hedge"][2] = dataclasses.replace(
            old, best_actions=[(old.best_actions[0] + 1) % 8, old.best_actions[1]])

    def swap(r):
        r["adaptive_opt_hedge"][0], r["adaptive_opt_hedge"][1] = (
            r["adaptive_opt_hedge"][1], r["adaptive_opt_hedge"][0])

    yield "batch genuine", lambda: w.check(result), False
    yield "batch regret off by 1e-6", corrupted(nudge_regret), True
    yield "batch best action changed", corrupted(change_best_action), True
    yield "batch results reordered", corrupted(swap), True


def multiplayer_cases(work: Path):
    w = SmallMultiplayer(7, work)
    result = w.body()

    def corrupted(edit):
        def run():
            broken = copy.deepcopy(result)
            edit(*broken)
            return w.check(broken)
        return run

    def nudge_strategy(traj, entries, play, cce, s):
        traj.strategies[0][5, 0] += NUDGE

    def nudge_loss(traj, entries, play, cce, s):
        traj.losses[3][9, 1] += NUDGE

    def nudge_regret(traj, entries, play, cce, s):
        entries[2].total_regret += NUDGE

    def nudge_gap(traj, entries, play, cce, s):
        cce.raw_gaps[4] += NUDGE

    def move_mass(traj, entries, play, cce, s):
        play.probs[(0,) * 5] -= NUDGE
        play.probs[(1,) + (0,) * 4] += NUDGE

    def nudge_streaming_regret(traj, entries, play, cce, s):
        s.total_regret[1] += NUDGE

    def nudge_final_strategy(traj, entries, play, cce, s):
        s.final_strategies[0][0] += NUDGE

    yield "multiplayer genuine", lambda: w.check(result), False
    yield "multiplayer strategy entry moved by 1e-6", corrupted(nudge_strategy), True
    yield "multiplayer loss entry off by 1e-6", corrupted(nudge_loss), True
    yield "multiplayer regret off by 1e-6", corrupted(nudge_regret), True
    yield "multiplayer cce gap off by 1e-6", corrupted(nudge_gap), True
    yield "multiplayer joint mass moved by 1e-6", corrupted(move_mass), True
    yield "streaming regret off by 1e-6", corrupted(nudge_streaming_regret), True
    yield "streaming final strategy off by 1e-6", corrupted(nudge_final_strategy), True


def main() -> int:
    work = workload.OUT / f"selftest_{os.getpid()}"
    work.mkdir(parents=True)
    wrong = 0
    try:
        for cases in (cli_cases, batch_cases, multiplayer_cases):
            for name, run, should_fail in cases(work):
                failures = run()
                ok = bool(failures) == should_fail
                wrong += not ok
                detail = failures[0] if failures else "no failure reported"
                print(f"{'ok    ' if ok else 'WRONG '} {name}: {detail}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{wrong} wrong verdicts")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
