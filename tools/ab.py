"""A/B timing of the engine: is the working tree faster or slower than a git revision?

Usage: python tools/ab.py <rev>

Exports ``src`` at <rev> with ``git archive``, by ``tools/golden.py``'s ``export_src``.
Then it runs PAIRS pairs of fresh processes, one against that export and one
against the working tree's ``src``, alternating which side goes first. Each
process times the fixed engine calls of ``cases()``, each REPS times after one
warm-up call, in an order rotated by one case per pair, so that no case always
follows the same one and inherits its allocator and cache state. It reports
each case's median seconds, raw and divided by the benchmark's reference
computation (``benchmarks/workload.py``'s ``reference_seconds``) timed just
before and after each call, as the benchmark does, since the host's speed
drifts. The cases are the engine calls of the benchmark's three workloads,
built by their own classes at seed SEED; a sweep of two-player games of
n = 2 ... 16 actions, at eta = 0.1 and at eta = 2, where every family shifts
its exponent; a batch of three-player games whose players run Hedge, Optimistic
Hedge and the adaptive variant with c' = 0, so the engine keeps two families
and tests switch rows each round; and a 4-player 8^4 game with Hedge for
player 0 and Optimistic Hedge for the rest, so each player forms its own cell
and folds two opponents. No benchmark workload runs the shifted sweep or the
last two. For each case the tool prints the median over pairs of the ratio
working tree / revision of the corrected times (below 1 is faster), the number
of pairs in which the working tree was faster, and each side's median raw
seconds. Ratios within about ±6 % of 1 are noise on a shared 2-core host. Needs
only the stdlib and the numpy that ``regretsim`` itself imports.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from golden import export_src, fail

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
REPS = 5
SEED = 3


def cases(work: Path):
    """Name -> zero-argument engine call, built from fixed seeds on either side."""
    from regretsim import Game, dynamics, random_game

    from workload import BatchSmallGames, CliDiagnose, MultiplayerLong

    diagnose = CliDiagnose(SEED, work)
    diagnose_game = Game(2, (3, 3), (diagnose.a, diagnose.b))
    small = BatchSmallGames(SEED, work)
    long = MultiplayerLong(SEED, work)
    # a sweep over n = 2 ... 16 at m = 2: eight random games per n, T = 1024
    sweep = {8 * (n - 2) + k: random_game(2, (n, n), seed=k) for n in range(2, 17)
             for k in range(8)}
    # 16 three-player games, 2x3x2 and 3x3x3 in turn: the optimistic family holds a group of
    # two actions and one of three
    mixed = {k: random_game(3, (3, 3, 3) if k % 2 else (2, 3, 2), seed=k) for k in range(16)}
    modes = [dynamics.LearnerConfig(mode, 0.5, c_prime=0.0)
             for mode in ("hedge", "opt_hedge", "adaptive_opt_hedge")]
    # two families over one action count: four one-player cells
    cells = random_game(4, (8,) * 4, seed=SEED)
    split = [dynamics.LearnerConfig(mode, 0.1) for mode in ("hedge",) + ("opt_hedge",) * 3]
    return {
        "cli_diagnose run": lambda: dynamics.run(
            diagnose_game, [dynamics.LearnerConfig("opt_hedge", diagnose.eta)] * 2,
            diagnose.ROUNDS),
        "batch_small_games": small.body,
        "multiplayer_long run": lambda: dynamics.run(
            long.big, [dynamics.LearnerConfig("opt_hedge", long.ETA)] * 5, long.BIG_ROUNDS),
        "multiplayer_long run_streaming": lambda: dynamics.run_streaming(
            long.small, [dynamics.LearnerConfig("adaptive_opt_hedge", long.ETA)] * 4,
            long.SMALL_ROUNDS),
        "sweep n=2..16, 8 games each, T=1024": lambda: dynamics.batch_run(
            sweep.__getitem__, range(len(sweep)), [dynamics.LearnerConfig("opt_hedge", 0.1)] * 2,
            1024),
        "sweep n=2..16 at eta=2, shifted": lambda: dynamics.batch_run(
            sweep.__getitem__, range(len(sweep)), [dynamics.LearnerConfig("opt_hedge", 2.0)] * 2,
            1024),
        "mixed modes, 16 3-player games, T=1024": lambda: dynamics.batch_run(
            mixed.__getitem__, range(len(mixed)), modes, 1024),
        "one-player cells, 8^4 Hedge + OptHedge, T=2048": lambda: dynamics.run(
            cells, split, 2048),
    }


def seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def time_cases(rotation: int) -> dict[str, list[float]]:
    """Each case's median over REPS calls, after one warm-up call, of its seconds and of
    its seconds over the mean of the reference's just before and just after it. The cases
    run in ``cases()``'s order rotated left by ``rotation``."""
    from workload import reference_seconds

    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        calls = list(cases(Path(tmp)).items())
    medians = {}
    rotation %= len(calls)
    for name, call in calls[rotation:] + calls[:rotation]:
        call()
        raw, corrected, before = [], [], reference_seconds()
        for _ in range(REPS):
            raw.append(seconds(call))
            after = reference_seconds()
            corrected.append(2 * raw[-1] / (before + after))
            before = after
        medians[name] = [statistics.median(raw), statistics.median(corrected)]
    return medians


def timed_process(src: Path, rotation: int) -> dict[str, float]:
    """Run ``time_cases(rotation)`` in a fresh process that imports ``regretsim`` from ``src``."""
    paths = [str(ROOT / "tools"), str(ROOT / "benchmarks")]
    code = f"import json, sys; sys.path[:0] = {paths!r}; " \
           f"import ab; print(json.dumps(ab.time_cases({rotation})))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    if done.returncode != 0:
        fail(f"timing against {src} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = {"rev": export_src(rev, Path(tmp)), "tree": ROOT / "src"}
        runs = []
        for k in range(PAIRS):
            order = ("rev", "tree") if k % 2 == 0 else ("tree", "rev")
            runs.append({side: timed_process(sides[side], k) for side in order})
            print(f"ab: pair {k + 1} of {PAIRS} done", file=sys.stderr)
    print(f"ab: working tree / {rev}, reference-corrected, median over {PAIRS} pairs of "
          f"fresh processes, {REPS} calls each")
    for name in runs[0]["rev"]:  # pair 1 times the cases in their own order
        ratios = [run["tree"][name][1] / run["rev"][name][1] for run in runs]
        old, new = (statistics.median(run[side][name][0] for run in runs)
                    for side in ("rev", "tree"))
        print(f"  {statistics.median(ratios):6.3f}  faster in {sum(r < 1 for r in ratios):2d} "
              f"of {PAIRS}  {old:8.4f} s -> {new:8.4f} s  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
