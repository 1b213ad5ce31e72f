"""One benchmark workload in its own process: set up, time, trace, check.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.
Everything up to the first timed call is set-up: interpreter start, the
imports, and generating and writing the inputs. The timed body then repeats
until ``--seconds`` have passed; each repetition is a whole round of the same
operations, timed between two runs of a fixed reference computation. Outputs are checked after the timing, against computations made
apart from the program (``checks.py``). The last stdout line is one JSON
object for run.py.

With ``--setup-only`` the process stops where the timed body would start and
reports only when that was.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import regretsim
from regretsim import cli, dynamics

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# The speed of a core on a shared host drifts by tens of percent within
# minutes, and the median raw duration of one workload then spread by 0.21 of
# its median over ten runs. Each repetition is therefore timed next to a fixed
# reference computation that does not touch regretsim: the independent
# two-player simulator of checks.py on a fixed 3x3 game. Each repetition is
# paired with the mean of the reference runs just before and just after it,
# and a run's corrected duration is REFERENCE_S times the repetitions' summed
# raw durations over their summed reference durations. REFERENCE_S is the
# reference's median duration on the 2-core host the README's figures come
# from, so corrected durations read as seconds of one repetition on that host.
REFERENCE_GAME = tuple(np.random.default_rng(0).random((2, 3, 3)))
REFERENCE_ROUNDS = 6000
REFERENCE_S = 0.15


class Workload:
    """Defaults for a workload whose operations fail only by raising and that
    writes no CLI artifacts."""

    def failed(self, result) -> int:
        return 0

    def trace_metrics(self) -> dict[str, float]:
        return {"cli.summary_json.mb": 0.0, "cli.diagnostics_json.mb": 0.0}


class CliDiagnose(Workload):
    """`regretsim diagnose` through cli.main on a generated 3x3 game loaded from JSON."""

    ROUNDS = 2**14
    FD_H_MAX = 5
    ops = 1

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 0])
        self.a, self.b = rng.random((3, 3)), rng.random((3, 3))
        game_path = work / "game.json"
        regretsim.save_game_json(regretsim.Game(2, (3, 3), (self.a, self.b)), game_path)
        self.out = work / "out"
        self.argv = ["diagnose", "--game", os.path.relpath(game_path, ROOT),
                     "--learner", "opt_hedge", "--rounds", str(self.ROUNDS),
                     "--fd-h-max", str(self.FD_H_MAX), "--seed", str(seed),
                     "--out", os.path.relpath(self.out, ROOT)]
        # The CLI's default "practical" step size, min(0.1, 1 / (m log2(T)^2)).
        self.eta = min(0.1, 1.0 / (2 * np.log2(self.ROUNDS) ** 2))

    def body(self):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cli.main(self.argv)
        return code, printed.getvalue()

    def failed(self, result) -> int:
        return int(result[0] != cli.EXIT_OK)

    def signature(self, result):
        return result

    def check(self, result) -> list[str]:
        return checks.check_cli_outputs(self.out, self.a, self.b, self.eta, self.ROUNDS,
                                        self.FD_H_MAX)

    def trace_metrics(self) -> dict[str, float]:
        return {f"cli.{stem}_json.mb": _megabytes(self.out / f"{stem}.json")
                for stem in ("summary", "diagnostics")}


class BatchSmallGames(Workload):
    """`batch_run` over generated two-player games, once per learner mode."""

    SIZES = (2, 3, 8)
    GAMES_PER_SIZE = 12
    ROUNDS = 256
    ETA = 0.1
    MODES = ("hedge", "opt_hedge", "adaptive_opt_hedge")

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 1])
        self.matrices = [(rng.random((n, n)), rng.random((n, n)))
                         for n in self.SIZES for _ in range(self.GAMES_PER_SIZE)]
        self.games = {k: regretsim.Game(2, a.shape, (a, b)) for k, (a, b) in enumerate(self.matrices)}
        self.seeds = list(self.games)
        self.ops = len(self.seeds) * len(self.MODES)

    def body(self):
        return {mode: dynamics.batch_run(self.games.__getitem__, self.seeds,
                                         [dynamics.LearnerConfig(mode=mode, eta=self.ETA)] * 2,
                                         self.ROUNDS)
                for mode in self.MODES}

    def signature(self, result):
        return [(mode, r.seed, r.total_regrets, r.best_actions)
                for mode, results in result.items() for r in results]

    def check(self, result) -> list[str]:
        failures = []
        for mode, results in result.items():
            if [r.seed for r in results] != self.seeds:
                failures.append(f"batch_small_games {mode}: results out of seed order")
                continue
            for r in results:
                a, b = self.matrices[r.seed]
                failures += checks.check_batch_game(
                    f"batch_small_games {mode} game {r.seed} ({a.shape[0]}x{a.shape[1]})",
                    a, b, mode, self.ETA, self.ROUNDS, r.total_regrets, r.best_actions)
        return failures


class MultiplayerLong(Workload):
    """`run` plus scoring on a 5-player 8^5 game, and `run_streaming` of the
    adaptive learner on a 4-player 3^4 game over a long horizon."""

    BIG_ACTIONS = (8,) * 5
    BIG_ROUNDS = 2**10
    SMALL_ACTIONS = (3,) * 4
    SMALL_ROUNDS = 2**13
    ETA = 0.1
    ops = 2

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 2])
        self.big = regretsim.Game(5, self.BIG_ACTIONS,
                                  tuple(rng.random(self.BIG_ACTIONS) for _ in range(5)))
        self.small = regretsim.Game(4, self.SMALL_ACTIONS,
                                    tuple(rng.random(self.SMALL_ACTIONS) for _ in range(4)))

    def body(self):
        trajectory = dynamics.run(self.big, [dynamics.LearnerConfig("opt_hedge", self.ETA)] * 5,
                                  self.BIG_ROUNDS)
        entries = dynamics.regret_report(trajectory)
        play = dynamics.empirical_joint_distribution(trajectory)
        cce = dynamics.cce_gap(self.big, play)
        streaming = dynamics.run_streaming(
            self.small, [dynamics.LearnerConfig("adaptive_opt_hedge", self.ETA)] * 4,
            self.SMALL_ROUNDS)
        return trajectory, entries, play, cce, streaming

    def signature(self, result):
        _, entries, _, cce, streaming = result
        return ([e.total_regret for e in entries], cce.raw_gaps.tolist(),
                streaming.total_regret.tolist())

    def check(self, result) -> list[str]:
        trajectory, entries, play, cce, s = result
        label = "multiplayer_long run"
        x, l = trajectory.strategies, trajectory.losses
        regrets = [e.total_regret for e in entries]
        return (checks.check_losses_recomputed(label, self.big.loss_tensors, x, l)
                + checks.check_optimistic_recurrence(label, x, l, [self.ETA] * 5)
                + checks.check_regret_entries(label, x, l, regrets, [e.curve for e in entries])
                + checks.check_cce_gaps(label, cce.raw_gaps, cce.epsilon, regrets,
                                        self.BIG_ROUNDS)
                + checks.check_marginals(label, play.probs, x)
                + checks.check_streaming("multiplayer_long run_streaming", s.final_strategies,
                                         s.cumulative_loss, s.action_cumulative,
                                         s.total_regret, s.best_actions))


WORKLOADS = {"cli_diagnose": CliDiagnose, "batch_small_games": BatchSmallGames,
             "multiplayer_long": MultiplayerLong}


def _megabytes(path: Path) -> float:
    return path.stat().st_size / tracing.MB if path.is_file() else 0.0


def reference_seconds() -> float:
    start = time.perf_counter()
    checks.simulate_two_player(*REFERENCE_GAME, "opt_hedge", 0.01, REFERENCE_ROUNDS)
    return time.perf_counter() - start


def corrected_seconds(reps: list[dict]) -> float | None:
    """Summed raw durations over summed reference durations, times REFERENCE_S."""
    if not reps:
        return None
    return REFERENCE_S * sum(r["raw_s"] for r in reps) / sum(r["reference_s"] for r in reps)


def measure(workload, seconds: float, traced: bool) -> dict:
    """Repeat the body for ``seconds``, each repetition between two reference
    runs. A traced run alternates untraced and traced repetitions and always
    ends on a whole pair."""
    untraced, traced_reps, layer_reps = [], [], []
    attempted = failed = 0
    first = last = None
    consistent = True
    started = time.perf_counter()
    reference_before = reference_seconds()
    k = 0
    while True:
        tracer = tracing.Tracer() if traced and k % 2 else None
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                result = workload.body()
            except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
                traceback.print_exc()
                result = None
            raw = time.perf_counter() - t0
        reference_after = reference_seconds()
        rep = {"raw_s": raw, "reference_s": (reference_before + reference_after) / 2}
        reference_before = reference_after
        k += 1
        attempted += workload.ops
        bad = workload.ops if result is None else workload.failed(result)
        failed += bad
        if not bad:
            if first is None:
                first = workload.signature(result)
            elif workload.signature(result) != first:
                consistent = False
            last = result
            if tracer:
                layer_reps.append({**tracing.layer_metrics(tracer), **workload.trace_metrics()})
                traced_reps.append({**rep, "spans": tracer.spans, "counts": tracer.counts})
            else:
                untraced.append(rep)
        if time.perf_counter() - started >= seconds and not (traced and k % 2):
            break
    return {"untraced": untraced, "traced": traced_reps, "layer_reps": layer_reps,
            "attempted": attempted, "failed": failed, "last": last, "consistent": consistent,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / tracing.MB}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work = OUT / f"work_{args.workload}_{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        ready = time.perf_counter()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        run = measure(workload, args.seconds, bool(args.trace))
        failures = [] if run["last"] is None else workload.check(run["last"])
        if run["last"] is None:
            failures.append("no repetition completed")
        if not run["consistent"]:
            failures.append("repetitions returned different results")
        for failure in failures:
            print(f"check failed: {failure}", file=sys.stderr)
        report = {"ready": ready, "correct": not failures, "attempted": run["attempted"],
                  "failed": run["failed"], "wall_s": corrected_seconds(run["untraced"]),
                  "repetitions": run["untraced"], "peak_rss_mb": run["peak_rss_mb"]}
        if args.trace:
            layers = {name: statistics.median(rep[name] for rep in run["layer_reps"])
                      for name in run["layer_reps"][0]} if run["layer_reps"] else {}
            if run["untraced"] and run["traced"]:
                layers["trace.overhead_s"] = (corrected_seconds(run["traced"])
                                              - corrected_seconds(run["untraced"]))
            report["layers"] = layers
            trace_file = OUT / f"trace_{args.workload}_seed{args.seed}.json"
            with open(trace_file, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "layers": layers,
                           "untraced": run["untraced"], "traced": run["traced"]}, fh)
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
