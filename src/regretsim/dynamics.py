"""Self-play dynamics: run T rounds, record trajectories, score regret.

All round-t loss vectors are computed from round-t strategies before any
learner advances, so updates are synchronous. Runs are deterministic given
(game, configs, T, seed); the seed is carried as metadata for generators
upstream.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import learners
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


class _History:
    """Recorder that keeps every round's strategies and loss vectors."""

    def __init__(self, game: Game, rounds: int):
        self.strategies = [np.empty((rounds, n)) for n in game.action_counts]
        self.losses = [np.empty((rounds, n)) for n in game.action_counts]

    def __call__(self, t: int, profile: list[np.ndarray], losses: list[np.ndarray]) -> None:
        for i, (x, loss) in enumerate(zip(profile, losses)):
            self.strategies[i][t] = x
            self.losses[i][t] = loss


class _RunningSums:
    """Recorder that keeps only the running sums regret needs."""

    def __init__(self, game: Game, rounds: int):
        self.cumulative = np.zeros(game.num_players)
        self.action_cumulative = [np.zeros(n) for n in game.action_counts]

    def __call__(self, t: int, profile: list[np.ndarray], losses: list[np.ndarray]) -> None:
        for i, (x, loss) in enumerate(zip(profile, losses)):
            self.cumulative[i] += float(x @ loss)
            self.action_cumulative[i] += loss


def _play(game: Game, configs: Sequence[LearnerConfig], rounds: int, seed: int | None,
          recorder: type[_History] | type[_RunningSums]):
    """The self-play loop behind every runner.

    Checks the inputs, then plays ``rounds`` synchronous rounds: each round,
    every player's full expected-loss vector is computed from the current
    strategy profile (full information) and handed to ``recorder`` before
    all learners advance together. Returns the recorder, the final learner
    states and the run metadata.
    """
    violations = validate_game(game)
    if violations:
        raise ValueError("invalid game: " + "; ".join(violations))
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if len(configs) != game.num_players:
        raise ValueError(f"{len(configs)} learner configs for {game.num_players} players")
    players = range(game.num_players)
    matrices = [loss_matrix(game, i) for i in players]
    states = [learners.init_state(game.action_counts[i], cfg.eta, cfg.mode,
                                  horizon=rounds, c_prime=cfg.c_prime)
              for i, cfg in enumerate(configs)]
    record = recorder(game, rounds)
    for t in range(rounds):
        profile = [s.strategy for s in states]
        round_losses = [expected_loss(matrices[i], i, profile) for i in players]
        record(t, profile, round_losses)
        states = [learners.step(s, loss) for s, loss in zip(states, round_losses)]
    metadata = RunMetadata(
        modes=tuple(cfg.mode for cfg in configs),
        etas=tuple(cfg.eta for cfg in configs),
        seed=seed,
        version=__version__,
        switch_rounds=tuple(s.switch_round for s in states),
    )
    return record, states, metadata


def run(game: Game, configs: Sequence[LearnerConfig], rounds: int,
        seed: int | None = None) -> Trajectory:
    """Play ``rounds`` rounds of simultaneous self-play and record everything."""
    history, _, metadata = _play(game, configs, rounds, seed, _History)
    return Trajectory(game=game, rounds=rounds, strategies=history.strategies,
                      losses=history.losses, metadata=metadata)


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
    sums, states, metadata = _play(game, configs, rounds, seed, _RunningSums)
    best_actions = np.array([int(np.argmin(a)) for a in sums.action_cumulative])
    total_regret = np.array([
        c - float(a[k]) for c, a, k in zip(sums.cumulative, sums.action_cumulative, best_actions)
    ])
    return StreamingSummary(
        rounds=rounds, cumulative_loss=sums.cumulative,
        action_cumulative=sums.action_cumulative, total_regret=total_regret,
        best_actions=best_actions,
        final_strategies=[s.strategy for s in states], metadata=metadata)


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

    @property
    def max_regret(self) -> float:
        return max(self.total_regrets)


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


def trajectory_from_csv(path) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Parse a trajectory CSV back into per-player (T, n_i) arrays."""
    cells: dict[tuple[str, int], dict[tuple[int, int], float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["kind"], int(row["player"]) - 1)
            cells.setdefault(key, {})[(int(row["round"]) - 1, int(row["action"]) - 1)] = float(row["value"])
    players = sorted({p for _, p in cells})
    out: dict[str, list[np.ndarray]] = {"strategy": [], "loss": []}
    for kind in ("strategy", "loss"):
        for p in players:
            data = cells[(kind, p)]
            rounds = 1 + max(t for t, _ in data)
            n = 1 + max(j for _, j in data)
            arr = np.empty((rounds, n))
            for (t, j), v in data.items():
                arr[t, j] = v
            out[kind].append(arr)
    return out["strategy"], out["loss"]
