"""Self-play dynamics: run T rounds, record trajectories, score regret.

All round-t loss vectors are computed from round-t strategies before any
learner advances, so updates are synchronous. Runs are deterministic given
(game, configs, T, seed); the seed is carried as metadata for generators
upstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import learners
from .diagnostics import variance
from .game import Game, expected_loss, loss_matrix, validate_game, write_csv

__version__ = "0.1.0"

# Dense storage cap for the empirical joint distribution.
DENSE_SUPPORT_LIMIT = 10**6


@dataclass(frozen=True)
class LearnerConfig:
    """Per-player learner selection: update rule and step size."""

    mode: str = learners.OPT_HEDGE
    eta: float = 0.05
    c_prime: float = learners.DEFAULT_C_PRIME


@dataclass(frozen=True)
class RunMetadata:
    modes: tuple[str, ...]
    etas: tuple[float, ...]
    seed: int | None
    version: str
    switch_rounds: tuple[int | None, ...] = ()


@dataclass
class Trajectory:
    """Full record of a T-round run.

    ``strategies[i]`` and ``losses[i]`` are (T, n_i) arrays; row t - 1 holds
    round t. Round-1 strategies are uniform, and every stored loss vector is
    recomputable from the same round's strategies.
    """

    game: Game
    rounds: int
    strategies: list[np.ndarray]
    losses: list[np.ndarray]
    metadata: RunMetadata


def _play(game: Game, configs: Sequence[LearnerConfig], rounds: int, seed: int | None,
          full_history: bool):
    """The self-play loop behind every runner.

    Checks the inputs, then plays ``rounds`` synchronous rounds: each round,
    every player's full expected-loss vector is computed from the current
    strategy profile (full information) and recorded before all learners
    advance together. A player's state is a strategy array, the previous
    loss vector and a step size, plus two variance sums and a switch round
    for the adaptive mode; each update repeats the arithmetic of
    ``learners.step``. The record is the (T, n_i) strategy and loss arrays
    with ``full_history``, else each player's cumulative loss and per-action
    cumulative losses. Returns the record, the final strategies and the run
    metadata.
    """
    violations = validate_game(game)
    if violations:
        raise ValueError("invalid game: " + "; ".join(violations))
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if len(configs) != game.num_players:
        raise ValueError(f"{len(configs)} learner configs for {game.num_players} players")
    players = range(game.num_players)
    counts = game.action_counts
    matrices = [loss_matrix(game, i) for i in players]
    states = [learners.init_state(counts[i], cfg.eta, cfg.mode, horizon=rounds,
                                  c_prime=cfg.c_prime) for i, cfg in enumerate(configs)]
    strategies = [s.strategy for s in states]
    prev_losses = [s.prev_loss for s in states]
    etas = [s.eta for s in states]
    pending = [s.mode == learners.ADAPTIVE_OPT_HEDGE for s in states]  # switch may still fire
    var_sums = [[0.0, 0.0] for _ in players]  # loss-difference and previous-loss variances
    switch_rounds = [None for _ in players]
    if full_history:
        record = ([np.empty((rounds, n)) for n in counts], [np.empty((rounds, n)) for n in counts])
    else:
        record = (np.zeros(game.num_players), [np.zeros(n) for n in counts])
    for t in range(rounds):
        round_losses = [expected_loss(matrices[i], i, strategies) for i in players]
        for i in players:
            x, loss, prev = strategies[i], round_losses[i], prev_losses[i]
            if full_history:
                record[0][i][t], record[1][i][t] = x, loss
            else:
                record[0][i] += float(x @ loss)
                record[1][i] += loss
            if pending[i]:
                sums = var_sums[i]
                sums[0] += variance(x, loss - prev)
                sums[1] += variance(x, prev)
                if (t + 1 >= learners.MIN_SWITCH_ROUND
                        and sums[0] > 0.5 * sums[1] + states[i].switch_threshold):
                    pending[i] = False
                    switch_rounds[i] = t + 1
                    etas[i] = states[i].eta_post
            exponent = loss if states[i].mode == learners.HEDGE else 2.0 * loss - prev
            strategies[i] = learners._exp_weights(x, -etas[i] * exponent)
            prev_losses[i] = loss
    metadata = RunMetadata(
        modes=tuple(cfg.mode for cfg in configs),
        etas=tuple(cfg.eta for cfg in configs),
        seed=seed,
        version=__version__,
        switch_rounds=tuple(switch_rounds),
    )
    return record, strategies, metadata


def run(game: Game, configs: Sequence[LearnerConfig], rounds: int,
        seed: int | None = None) -> Trajectory:
    """Play ``rounds`` rounds of simultaneous self-play and record everything."""
    (strategies, losses), _, metadata = _play(game, configs, rounds, seed, full_history=True)
    return Trajectory(game=game, rounds=rounds, strategies=strategies,
                      losses=losses, metadata=metadata)


@dataclass
class StreamingSummary:
    """Running-sum record for horizons too long to store in full."""

    rounds: int
    cumulative_loss: np.ndarray          # per player
    action_cumulative: list[np.ndarray]  # per player, per action
    total_regret: np.ndarray
    best_actions: np.ndarray
    final_strategies: list[np.ndarray]
    metadata: RunMetadata


def run_streaming(game: Game, configs: Sequence[LearnerConfig], rounds: int,
                  seed: int | None = None) -> StreamingSummary:
    """Like ``run`` but stores only regret-relevant running sums (O(sum n_i))."""
    (cumulative, action_cumulative), final, metadata = _play(
        game, configs, rounds, seed, full_history=False)
    best_actions = np.array([int(np.argmin(a)) for a in action_cumulative])
    total_regret = np.array([
        c - float(a[k]) for c, a, k in zip(cumulative, action_cumulative, best_actions)
    ])
    return StreamingSummary(
        rounds=rounds, cumulative_loss=cumulative,
        action_cumulative=action_cumulative, total_regret=total_regret,
        best_actions=best_actions, final_strategies=final, metadata=metadata)


@dataclass
class RegretEntry:
    """One player's regret accounting.

    ``curve[t - 1]`` is the regret after t rounds, so the last entry equals
    ``total_regret``. Best-action ties break toward the lowest index.
    """

    player: int
    total_regret: float
    best_action: int
    cumulative_loss: float
    best_fixed_loss: float
    curve: np.ndarray

    def to_dict(self) -> dict:
        return {
            "player": self.player + 1,
            "regret": self.total_regret,
            "best_action": self.best_action + 1,
            "cumulative_loss": self.cumulative_loss,
            "best_fixed_loss": self.best_fixed_loss,
        }


def regret(trajectory: Trajectory, player: int) -> RegretEntry:
    """Regret of one player, computed directly from the stored trajectory."""
    x = trajectory.strategies[player]
    losses = trajectory.losses[player]
    play_cum = np.cumsum(np.einsum("tj,tj->t", x, losses))
    action_cum = np.cumsum(losses, axis=0)
    curve = play_cum - action_cum.min(axis=1)
    best_action = int(np.argmin(action_cum[-1]))
    return RegretEntry(
        player=player,
        total_regret=float(curve[-1]),
        best_action=best_action,
        cumulative_loss=float(play_cum[-1]),
        best_fixed_loss=float(action_cum[-1, best_action]),
        curve=curve,
    )


def regret_report(trajectory: Trajectory) -> list[RegretEntry]:
    return [regret(trajectory, i) for i in range(trajectory.game.num_players)]


@dataclass
class EmpiricalPlay:
    """Time average of the per-round product distributions, stored densely."""

    probs: np.ndarray
    rounds: int


def empirical_joint_distribution(trajectory: Trajectory,
                                 limit: int = DENSE_SUPPORT_LIMIT) -> EmpiricalPlay:
    """Average over rounds of the joint product distribution of play."""
    game = trajectory.game
    if game.profile_count > limit:
        raise ValueError(
            f"joint support {game.profile_count} exceeds dense limit {limit}")
    total = np.zeros(game.action_counts)
    for t in range(trajectory.rounds):
        joint = trajectory.strategies[0][t]
        for i in range(1, game.num_players):
            joint = np.multiply.outer(joint, trajectory.strategies[i][t])
        total += joint
    return EmpiricalPlay(probs=total / trajectory.rounds, rounds=trajectory.rounds)


@dataclass
class CceReport:
    """Best-deviation gaps of a joint distribution of play.

    ``raw_gaps[i]`` is player i's on-path loss minus its best fixed
    deviation; ``epsilon`` is the maximum over players of the gaps clamped
    below at zero.
    """

    epsilon: float
    raw_gaps: np.ndarray
    best_deviations: np.ndarray
    on_path: np.ndarray

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "raw_gaps": self.raw_gaps.tolist(),
            "best_deviations": [int(a) + 1 for a in self.best_deviations],
            "on_path": self.on_path.tolist(),
        }


def cce_gap(game: Game, play: EmpiricalPlay) -> CceReport:
    """Approximation gap of ``play`` as a coarse correlated equilibrium."""
    m = game.num_players
    raw = np.empty(m)
    on_path = np.empty(m)
    best = np.empty(m, dtype=int)
    for i in range(m):
        tensor = game.loss_tensors[i]
        on_path[i] = float((play.probs * tensor).sum())
        marginal = play.probs.sum(axis=i)
        deviations = loss_matrix(game, i) @ marginal.reshape(-1)
        best[i] = int(np.argmin(deviations))
        raw[i] = on_path[i] - float(deviations[best[i]])
    return CceReport(
        epsilon=float(np.maximum(raw, 0.0).max()),
        raw_gaps=raw, best_deviations=best, on_path=on_path)


@dataclass
class BatchResult:
    seed: int
    total_regrets: list[float]
    best_actions: list[int]


def batch_run(game_source: Game | Callable[[int], Game], seeds: Sequence[int],
              configs: Sequence[LearnerConfig], rounds: int) -> list[BatchResult]:
    """Independent runs, one per seed, played in order; results follow ``seeds``.

    ``game_source`` is either a fixed game or a callable mapping a seed to a
    game.
    """
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    results = []
    for seed in seeds:
        game = game_source(seed) if callable(game_source) else game_source
        entries = regret_report(run(game, configs, rounds, seed=seed))
        results.append(BatchResult(
            seed=seed,
            total_regrets=[e.total_regret for e in entries],
            best_actions=[e.best_action for e in entries]))
    return results


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def trajectory_to_csv(trajectory: Trajectory, path) -> None:
    """Write rows (round, player, kind, action, value), 1-indexed, LF-terminated."""
    kinds = (("strategy", trajectory.strategies), ("loss", trajectory.losses))
    rows = ((t + 1, i + 1, kind, j, v)
            for t in range(trajectory.rounds)
            for i in range(trajectory.game.num_players)
            for kind, hist in kinds
            for j, v in enumerate(hist[i][t].tolist(), 1))
    write_csv(path, ("round", "player", "kind", "action", "value"), rows)


def regret_curves_to_csv(entries: Sequence[RegretEntry], path) -> None:
    """Write rows (round, player, regret), 1-indexed, LF-terminated."""
    players = [entry.player + 1 for entry in entries]
    rows = ((t, p, v)
            for t, values in enumerate(zip(*(entry.curve for entry in entries)), 1)
            for p, v in zip(players, values))
    write_csv(path, ("round", "player", "regret"), rows)
