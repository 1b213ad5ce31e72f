"""Output checks made apart from regretsim.

The checks compare what regretsim returned or wrote with an independent
two-player simulator, or test properties every correct run has. They use
numpy only and never import regretsim, so a fault in the program cannot hide
in its own check. Each check returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import string

import numpy as np

# Tolerances are absolute. Engine and oracle agree to about 1e-14 per
# strategy or loss entry and to about 1e-11 on regrets over 2^14 rounds, so
# each bound leaves a wide margin and still catches a change of 1e-6.
STRATEGY_TOL = 1e-10
LOSS_TOL = 1e-12
REGRET_TOL = 1e-8
GAP_TOL = 1e-10
PROB_TOL = 1e-12

HEDGE = "hedge"


def _close(a, b, tol: float) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= tol))


# ---------------------------------------------------------------------------
# Independent two-player simulator
# ---------------------------------------------------------------------------

def simulate_two_player(a: np.ndarray, b: np.ndarray, mode: str, eta: float, rounds: int):
    """Self-play on the bimatrix loss game (a, b) from the telescoped closed forms.

    Player 1's loss vector is ``a @ y`` and player 2's is ``b.T @ x``. Hedge
    plays x_{t+1} ∝ exp(-eta * sum_{s<=t} l_s); the optimistic rules play
    x_{t+1} ∝ exp(-eta * (sum_{s<=t} l_s + l_t)). Returns per-player (T, n)
    strategy and loss arrays.
    """
    n, k = a.shape
    x, y = np.full(n, 1.0 / n), np.full(k, 1.0 / k)
    cum_x, cum_y = np.zeros(n), np.zeros(k)
    xs, ys = np.empty((rounds, n)), np.empty((rounds, k))
    lxs, lys = np.empty((rounds, n)), np.empty((rounds, k))
    for t in range(rounds):
        lx, ly = a @ y, b.T @ x
        xs[t], ys[t], lxs[t], lys[t] = x, y, lx, ly
        cum_x += lx
        cum_y += ly
        x = _softmin(eta, cum_x if mode == HEDGE else cum_x + lx)
        y = _softmin(eta, cum_y if mode == HEDGE else cum_y + ly)
    return [xs, ys], [lxs, lys]


def _softmin(eta: float, cumulative: np.ndarray) -> np.ndarray:
    w = np.exp(-eta * (cumulative - cumulative.min()))
    return w / w.sum()


def regret_curve(strategies: np.ndarray, losses: np.ndarray) -> np.ndarray:
    """Regret after each round: cumulative play loss minus best fixed action."""
    play = np.cumsum(np.einsum("tj,tj->t", strategies, losses))
    return play - np.cumsum(losses, axis=0).min(axis=1)


# ---------------------------------------------------------------------------
# Checks on in-memory results
# ---------------------------------------------------------------------------

def check_regrets_against_oracle(label: str, oracle_curves, regrets) -> list[str]:
    """Final regrets against the oracle's regret curves."""
    failures = []
    if len(regrets) != len(oracle_curves):
        return [f"{label}: {len(regrets)} regrets for {len(oracle_curves)} players"]
    for i, curve in enumerate(oracle_curves):
        if abs(float(regrets[i]) - float(curve[-1])) > REGRET_TOL:
            failures.append(f"{label}: player {i + 1} regret {float(regrets[i])!r} "
                            f"vs oracle {float(curve[-1])!r}")
    return failures


def check_batch_game(label: str, a: np.ndarray, b: np.ndarray, mode: str, eta: float,
                     rounds: int, total_regrets, best_actions) -> list[str]:
    """One `batch_run` result against the oracle run of the same game.

    The adaptive learner is checked against the optimistic closed form: its
    switch fires only once the loss-difference variance sum, at most T,
    exceeds c' * ceil(log2 T)^5 with c' = 165262, which no T the workloads
    use can reach.
    """
    xs, ls = simulate_two_player(a, b, mode, eta, rounds)
    failures = check_regrets_against_oracle(
        label, [regret_curve(x, l) for x, l in zip(xs, ls)], total_regrets)
    expect = [int(np.argmin(l.sum(axis=0))) for l in ls]
    if [int(k) for k in best_actions] != expect:
        failures.append(f"{label}: best actions {list(best_actions)} vs oracle {expect}")
    return failures


def check_losses_recomputed(label: str, tensors, strategies, losses, chunk: int = 64) -> list[str]:
    """Every recorded loss vector equals the einsum of the player's tensor with
    the other players' recorded strategies of the same round."""
    m = len(tensors)
    axes = string.ascii_lowercase[:m]
    failures = []
    for i in range(m):
        others = [j for j in range(m) if j != i]
        spec = axes + "," + ",".join("z" + axes[j] for j in others) + "->z" + axes[i]
        rounds = losses[i].shape[0]
        worst = 0.0
        for start in range(0, rounds, chunk):
            part = slice(start, start + chunk)
            expect = np.einsum(spec, tensors[i], *(strategies[j][part] for j in others),
                               optimize=True)
            if expect.shape != losses[i][part].shape:
                failures.append(f"{label}: player {i + 1} loss shape {losses[i][part].shape}, "
                                f"expected {expect.shape}")
                break
            worst = max(worst, float(np.abs(expect - losses[i][part]).max()))
        if worst > LOSS_TOL:
            failures.append(f"{label}: player {i + 1} recorded loss off its einsum by {worst:.3g}")
    return failures


def check_optimistic_recurrence(label: str, strategies, losses, etas) -> list[str]:
    """Recorded strategies follow x_1 uniform and
    x_{t+1} ∝ exp(-eta * (sum_{s<=t} l_s + l_t)) on the recorded losses."""
    failures = []
    for i, (x, l) in enumerate(zip(strategies, losses)):
        exponent = np.cumsum(l, axis=0)[:-1] + l[:-1]
        w = np.exp(-etas[i] * (exponent - exponent.min(axis=1, keepdims=True)))
        expect = np.vstack([np.full((1, x.shape[1]), 1.0 / x.shape[1]),
                            w / w.sum(axis=1, keepdims=True)])
        worst = float(np.abs(expect - x).max())
        if worst > STRATEGY_TOL:
            failures.append(f"{label}: player {i + 1} strategies off the optimistic rule by {worst:.3g}")
    return failures


def check_regret_entries(label: str, strategies, losses, totals, curves) -> list[str]:
    """Reported regrets and regret curves against regret computed from the trajectory."""
    failures = []
    for i, (x, l) in enumerate(zip(strategies, losses)):
        expect = regret_curve(x, l)
        if abs(float(totals[i]) - float(expect[-1])) > REGRET_TOL:
            failures.append(f"{label}: player {i + 1} regret {float(totals[i])!r} "
                            f"vs {float(expect[-1])!r}")
        if not _close(curves[i], expect, REGRET_TOL):
            failures.append(f"{label}: player {i + 1} regret curve differs from the trajectory")
    return failures


def check_cce_gaps(label: str, raw_gaps, epsilon, regrets, rounds: int) -> list[str]:
    """Each raw CCE gap equals that player's regret divided by T."""
    failures = []
    expect = np.asarray(regrets, dtype=np.float64) / rounds
    if not _close(raw_gaps, expect, GAP_TOL):
        failures.append(f"{label}: cce raw gaps {np.asarray(raw_gaps).tolist()} "
                        f"vs regret/T {expect.tolist()}")
    if abs(float(epsilon) - max(0.0, float(np.max(raw_gaps)))) > PROB_TOL:
        failures.append(f"{label}: cce epsilon {epsilon!r} is not the largest gap clamped at 0")
    return failures


def check_marginals(label: str, joint: np.ndarray, strategies) -> list[str]:
    """Each marginal of the empirical joint distribution is that player's mean strategy."""
    failures = []
    m = joint.ndim
    for i in range(m):
        marginal = joint.sum(axis=tuple(j for j in range(m) if j != i))
        mean = strategies[i].mean(axis=0)
        if not _close(marginal, mean, PROB_TOL):
            failures.append(f"{label}: player {i + 1} marginal differs from mean strategy by "
                            f"{float(np.abs(marginal - mean).max()):.3g}")
    return failures


def check_streaming(label: str, final_strategies, cumulative_loss, action_cumulative,
                    total_regret, best_actions) -> list[str]:
    """Final strategies are probability vectors; total regret is the cumulative
    loss minus the smallest per-action cumulative loss."""
    failures = []
    for i, x in enumerate(final_strategies):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 1 or np.any(x < 0.0) or abs(float(x.sum()) - 1.0) > PROB_TOL:
            failures.append(f"{label}: player {i + 1} final strategy is not a probability vector")
        actions = np.asarray(action_cumulative[i], dtype=np.float64)
        expect = float(cumulative_loss[i]) - float(actions.min())
        if abs(float(total_regret[i]) - expect) > REGRET_TOL:
            failures.append(f"{label}: player {i + 1} total regret {float(total_regret[i])!r} "
                            f"vs {expect!r}")
        if actions[int(best_actions[i])] != actions.min():
            failures.append(f"{label}: player {i + 1} best action {best_actions[i]} is not a minimiser")
    return failures


def fd_sup_norms(losses: np.ndarray, h_max: int) -> np.ndarray:
    """Sup norm of the order-h finite difference of a (T, n) loss array, h = 0..h_max."""
    return np.array([float(np.abs(np.diff(losses, n=h, axis=0)).max()) for h in range(h_max + 1)])


# ---------------------------------------------------------------------------
# Checks on the CLI artifacts
# ---------------------------------------------------------------------------

def parse_trajectory_csv(path, rounds: int, actions):
    """Parse trajectory.csv into per-player (T, n) strategy and loss arrays.

    Raises ValueError unless every (round, player, kind, action) cell appears
    exactly once.
    """
    arrays = {kind: [np.full((rounds, n), np.nan) for n in actions] for kind in ("strategy", "loss")}
    seen = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["round", "player", "kind", "action", "value"]:
            raise ValueError("trajectory.csv: unexpected header")
        for t, i, kind, j, v in reader:
            cell = arrays[kind][int(i) - 1]
            if not math.isnan(cell[int(t) - 1, int(j) - 1]):
                raise ValueError(f"trajectory.csv: duplicate cell {t},{i},{kind},{j}")
            cell[int(t) - 1, int(j) - 1] = float(v)
            seen += 1
    if seen != 2 * rounds * sum(actions):
        raise ValueError(f"trajectory.csv: {seen} cells, expected {2 * rounds * sum(actions)}")
    return arrays["strategy"], arrays["loss"]


def parse_regret_curve_csv(path, players: int, rounds: int) -> np.ndarray:
    """Parse regret_curve.csv into a (players, T) array; every cell exactly once."""
    curves = np.full((players, rounds), np.nan)
    count = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["round", "player", "regret"]:
            raise ValueError("regret_curve.csv: unexpected header")
        for count, (t, i, v) in enumerate(reader, 1):
            curves[int(i) - 1, int(t) - 1] = float(v)
    if count != players * rounds or np.isnan(curves).any():
        raise ValueError(f"regret_curve.csv: {count} rows, expected {players * rounds}")
    return curves


def _read_rows(path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != header:
            raise ValueError(f"{os.path.basename(path)}: unexpected header")
        return list(reader)


def check_fd_artifacts(label: str, out_dir, losses, h_max: int, diag_profiles) -> list[str]:
    """Finite-difference sup norms in diagnostics.json and fd_norms_player*.csv,
    and the per-round values in fd_values_player*.csv, against np.diff of the
    parsed losses."""
    failures = []
    for i, l in enumerate(losses):
        expect = fd_sup_norms(l, h_max)
        entry = diag_profiles[i]
        if entry.get("player") != i + 1 or not _close(entry["sup_norms"], expect, 0.0):
            failures.append(f"{label}: diagnostics.json fd sup norms of player {i + 1} differ from np.diff")
        rows = _read_rows(os.path.join(out_dir, f"fd_norms_player{i + 1}.csv"), ["order", "sup_norm"])
        if [int(h) for h, _ in rows] != list(range(h_max + 1)) or not _close(
                [float(v) for _, v in rows], expect, 0.0):
            failures.append(f"{label}: fd_norms_player{i + 1}.csv differs from np.diff")
        rows = _read_rows(os.path.join(out_dir, f"fd_values_player{i + 1}.csv"), ["order", "t", "value"])
        expect_rows = [(h, t + 1, v) for h in range(h_max + 1)
                       for t, v in enumerate(np.abs(np.diff(l, n=h, axis=0)).max(axis=1))]
        if len(rows) != len(expect_rows) or any(
                (int(h), int(t)) != (eh, et) or float(v) != ev
                for (h, t, v), (eh, et, ev) in zip(rows, expect_rows)):
            failures.append(f"{label}: fd_values_player{i + 1}.csv differs from np.diff")
    return failures


def check_cli_outputs(out_dir, a: np.ndarray, b: np.ndarray, eta: float, rounds: int,
                      h_max: int) -> list[str]:
    """Every artifact of one `regretsim diagnose` run on the bimatrix game (a, b)
    with the optimistic learner."""
    label = "cli_diagnose"
    actions = list(a.shape)
    oracle_x, oracle_l = simulate_two_player(a, b, "opt_hedge", eta, rounds)
    oracle_curves = [regret_curve(x, l) for x, l in zip(oracle_x, oracle_l)]
    try:
        xs, ls = parse_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), rounds, actions)
        curves = parse_regret_curve_csv(os.path.join(out_dir, "regret_curve.csv"), 2, rounds)
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        with open(os.path.join(out_dir, "diagnostics.json")) as fh:
            diag = json.load(fh)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{label}: unreadable artifact: {exc!r}"]
    failures = []
    for i in range(2):
        if not _close(xs[i], oracle_x[i], STRATEGY_TOL):
            failures.append(f"{label}: trajectory.csv strategies of player {i + 1} differ from the oracle")
        if not _close(ls[i], oracle_l[i], STRATEGY_TOL):
            failures.append(f"{label}: trajectory.csv losses of player {i + 1} differ from the oracle")
        if not _close(curves[i], oracle_curves[i], REGRET_TOL):
            failures.append(f"{label}: regret_curve.csv of player {i + 1} differs from the oracle")
    failures += check_losses_recomputed(label, [a, b], xs, ls)
    regrets = [e["regret"] for e in summary["regret"]]
    failures += check_regrets_against_oracle(label + " summary.json", oracle_curves, regrets)
    failures += check_regrets_against_oracle(
        label + " bound_terms", oracle_curves, [e["regret"] for e in diag["bound_terms"]])
    if not _close(summary["etas"], [eta, eta], 0.0):
        failures.append(f"{label}: summary.json etas {summary['etas']} vs practical policy {eta}")
    failures += check_cce_gaps(label, summary["cce"]["raw_gaps"], summary["cce"]["epsilon"],
                               [c[-1] for c in oracle_curves], rounds)
    failures += check_fd_artifacts(label, out_dir, ls, h_max, diag["fd_profile"])
    return failures
