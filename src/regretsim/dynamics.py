"""Self-play dynamics: run T rounds, record trajectories, score regret.

All round-t loss vectors are computed from round-t strategies before any
learner advances, so updates are synchronous. Runs are deterministic given
(game, configs, T).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import learners
from .game import AUDIT_BLOCK_ROWS, Game, _reduce_rows, loss_matrix, validate_game, write_csv

__version__ = "0.1.0"

# Dense storage cap for the empirical joint distribution.
DENSE_SUPPORT_LIMIT = 10**6

# ``batch_run`` plays a shape's waiting games once their loss tensors reach this many bytes.
BATCH_BYTES = 2 * 2**20
# ``_play`` records rounds in windows of at most this many (see there).
WINDOW_ROUNDS = 64


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
    switch_rounds: tuple[int | None, ...]


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


def _check(game: Game, configs: Sequence[LearnerConfig], rounds: int) -> None:
    violations = validate_game(game)
    if violations:
        raise ValueError("invalid game: " + "; ".join(violations))
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if len(configs) != game.num_players:
        raise ValueError(f"{len(configs)} learner configs for {game.num_players} players")


def _play(games: Sequence[Game], configs: Sequence[LearnerConfig], rounds: int,
          full_history: bool):
    """The self-play loop behind every runner, over B checked games of one shape.

    Players that share an action count n, an update kind (Hedge, or the
    optimistic rule of the other modes) and ``LearnerState.shift`` form a
    group. Its strategies and losses live in two round-major (W + 1, m_g, B, n)
    windows: the round in slot s reads its strategies and previous losses from
    row s and writes its losses and next strategies into row s + 1. W is
    ``WINDOW_ROUNDS``, less for a shorter horizon or where a window of all
    strategies would pass BATCH_BYTES / 8. Arrays of -eta, the exponent and a
    (m_g, B, 1) reduction buffer are made once, so the update allocates nothing
    and broadcasts only that buffer. An adaptive player whose threshold is
    below 2T (see ``init_state``) extends its two (B,) variance sums each round
    by ``learners.row_variances`` and tests them against
    ``learners.variance_budget``. A group whose players never use a step size
    above 1 skips the max shift of the exponent, two of its calls per round,
    since exp cannot overflow there (see ``learners``). Each round, each cell
    (every player if one group holds them all, else one player) builds its
    players' opponent joints as right folds, x_j1 * (x_j2 * (... * x_jk)), and
    computes their expected losses into their rows of the group's loss window
    in one contraction; then each group updates at once, repeating
    ``learners.step`` row by row, bit for bit, so no game depends on its batch
    nor a player on its group. Each full window, and the last, is recorded in
    one step, and its last row copied to row 0, so no round copies a record.
    The record is each player's (T, B, n_i) strategies and losses, views of its
    group's (m_g, T, B, n) history, with ``full_history``, else its (B,)
    cumulative losses and (B, n_i) per-action sums. Returns it, the final (B,
    n_i) strategies and each player's (B,) switch rounds (0: none).
    """
    batch, counts = len(games), games[0].action_counts
    players = range(len(counts))
    states = [learners.init_state(n, cfg.eta, cfg.mode, horizon=rounds, c_prime=cfg.c_prime)
              for n, cfg in zip(counts, configs)]
    var_sums = {i: np.zeros((2, batch)) for i, s in enumerate(states)
                if s.mode == learners.ADAPTIVE_OPT_HEDGE and s.switch_threshold < 2 * rounds}
    kinds = [(n, s.mode == learners.HEDGE, s.shift) for n, s in zip(counts, states)]
    groups = [[i for i in players if kinds[i] == kind] for kind in dict.fromkeys(kinds)]
    place = [(g, members.index(i)) for i in players
             for g, members in enumerate(groups) if i in members]
    shapes = [(len(members), batch, counts[members[0]]) for members in groups]
    width = max(1, min(WINDOW_ROUNDS, rounds, BATCH_BYTES // (64 * batch * sum(counts))))
    strategies = [np.full((width + 1,) + shape, 1.0 / shape[2]) for shape in shapes]
    # Without full_history, an x * loss row stands beside each loss row (see the record).
    windows = [np.zeros((width + 1, 1 if full_history else 2) + shape) for shape in shapes]
    losses = [window[:, -1] for window in windows]
    neg_etas = [np.stack([np.full(shape[1:], -states[i].eta) for i in members])
                for members, shape in zip(groups, shapes)]
    switch_rounds = [np.zeros(batch, dtype=int) for _ in players]
    # A cell's players share one group, so their loss matrices share a shape.
    cells = [list(players)] if len(groups) == 1 else [[i] for i in players]
    # Each round a cell of c rows takes its opponents' strategies from its
    # group's window row in one ``take`` into a (c, m - 1, B, n) buffer (a
    # one-player cell views them in their windows, with c = 1, and a cell of two
    # players views its row reversed, which holds each one's opponent), folds
    # them from the right into preallocated buffers, each earlier opponent
    # multiplied in as the new outer axis of the product so far, as
    # ``expected_loss_vector`` does, so the inner loop runs over that product
    # and the (c, B, N) joint comes out in ``loss_matrix``'s row-major opponent
    # order, and ``matmul``s that column with its (c, B, n_i, N) ``loss_matrix``
    # results into its rows of the loss window. The buffers serve every slot.
    contractions = []
    for cell in cells:
        (g, k), c, n = place[cell[0]], len(cell), counts[cell[0]]
        lead = (c, batch)
        if lead == (1, 1):  # player 0 views its tensor; another keeps loss_matrix's copy
            mat = loss_matrix(games[0], cell[0])[None, None]
        else:
            # A cell row is its player's tensors stacked over the batch, each laid out as
            # loss_matrix lays it out: the player's axis first, the opponents' in order.
            mat = np.empty(lead + (n, games[0].profile_count // n))
            for a, i in enumerate(cell):
                stack = np.stack([game.loss_tensors[i] for game in games])
                mat[a] = np.moveaxis(stack, i + 1, 1).reshape(batch, n, -1)
        opponents = [[j for j in players if j != i] for i in cell]
        gathers, sources = None, [strategies[g][:width, ::-1]]  # the cell of two players
        if c == 1:
            sources = [strategies[place[j][0]][:width, place[j][1], None] for j in opponents[0]]
        elif c > 2:
            gathered = np.empty((c, len(counts) - 1) + shapes[g][1:])
            gathers = [partial(x.take, np.array(opponents), 0, gathered, "clip")
                       for x in strategies[g][:width]]
            sources = [np.broadcast_to(x, (width,) + x.shape) for x in gathered.swapaxes(0, 1)]
        *factors, joint = sources
        chain = []
        for factor in reversed(factors):
            product = np.empty(factor.shape[1:] + joint.shape[-1:])
            chain.append((list(factor[..., :, None]), list(joint[..., None, :]), product))
            joint = product.reshape(lead + (-1,))
            joint = np.broadcast_to(joint, (width,) + joint.shape)
        contractions.append((gathers, chain, mat, list(joint[..., None]),
                             list(losses[g][1:, k:k + c, ..., None])))
    # Per group: its windows as lists of rows, -eta, work arrays, kind and shift.
    updates = [(list(x), list(loss), neg_eta, np.empty(shape), np.empty(shape[:2] + (1,)),
                *kinds[members[0]][1:]) for members, shape, x, loss, neg_eta
               in zip(groups, shapes, strategies, losses, neg_etas)]
    if full_history:
        played, seen = ([np.empty(shape[:1] + (rounds,) + shape[1:]) for shape in shapes]
                        for _ in range(2))
    else:
        # Per group: the (x * loss, loss) sums. Put in row 0 of a window, they take its
        # rows in round order in one add.reduce, as per-round adds would, since each row
        # holds two or more numbers: rows of one number numpy sums pairwise.
        running = [np.zeros((2,) + shape) for shape in shapes]
    # Local names for the ufuncs the loop calls T times per group.
    maximum, total, exp = np.maximum.reduce, np.add.reduce, np.exp
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    for t0 in range(0, rounds, width):
        w = min(width, rounds - t0)
        for s in range(w):
            for gathers, chain, mat, columns, outs in contractions:
                if gathers:
                    gathers[s]()
                for factors, joints, product in chain:
                    multiply(factors[s], joints[s], product)
                np.matmul(mat, columns[s], outs[s])
            for i, sums in var_sums.items():
                (g, k), fired = place[i], switch_rounds[i]
                x, loss, prev = strategies[g][s, k], losses[g][s + 1, k], losses[g][s, k]
                sums[0] += learners.row_variances(x, loss - prev)
                sums[1] += learners.row_variances(x, prev)
                if t0 + s + 1 >= learners.MIN_SWITCH_ROUND:
                    budget = learners.variance_budget(sums[1], states[i].switch_threshold)
                    fire = (fired == 0) & (sums[0] > budget)
                    fired[fire] = t0 + s + 1
                    neg_etas[g][k][fire] = -states[i].eta_post
            for xs, ls, neg_eta, e, red, is_hedge, shift in updates:
                x, loss, prev = xs[s], ls[s + 1], ls[s]
                if is_hedge:
                    multiply(loss, neg_eta, e)
                else:
                    # loss + loss is 2.0 * loss exactly
                    add(loss, loss, e)
                    subtract(e, prev, e)
                    multiply(e, neg_eta, e)
                if shift:
                    maximum(e, -1, None, red, True)
                    subtract(e, red, e)
                exp(e, e)
                multiply(e, x, e)
                total(e, -1, None, red, True)
                divide(e, red, xs[s + 1])
        for g, (x, loss) in enumerate(zip(strategies, losses)):
            if full_history:
                played[g][:, t0:t0 + w] = x[:w].swapaxes(0, 1)
                seen[g][:, t0:t0 + w] = loss[1:w + 1].swapaxes(0, 1)
            else:
                rows = windows[g][:w + 1]
                rows[0] = running[g]  # over the spent previous losses of slot 0
                multiply(x[:w], loss[1:w + 1], rows[1:, 0])
                total(rows, 0, None, running[g])
            x[0], loss[0] = x[w], loss[w]
    if not full_history:
        played, seen = [sums[0].sum(-1) for sums in running], [sums[1] for sums in running]
    finals = [x[0] for x in strategies]
    return [[arrays[g][k] for g, k in place] for arrays in (played, seen, finals)] + [switch_rounds]


def _metadata(configs: Sequence[LearnerConfig], switch_rounds) -> RunMetadata:
    return RunMetadata(modes=tuple(cfg.mode for cfg in configs),
                       etas=tuple(cfg.eta for cfg in configs),
                       switch_rounds=tuple(int(r[0]) or None for r in switch_rounds))


def _regrets(cumulative, action_cumulative):
    """(B, m) total regrets and best actions from each player's running sums."""
    best = np.stack([a.argmin(1) for a in action_cumulative], axis=1)
    fixed = [a[np.arange(len(a)), k] for a, k in zip(action_cumulative, best.T)]
    return np.stack(cumulative, axis=1) - np.stack(fixed, axis=1), best


def run(game: Game, configs: Sequence[LearnerConfig], rounds: int) -> Trajectory:
    """Play ``rounds`` rounds of simultaneous self-play and record everything."""
    _check(game, configs, rounds)
    strategies, losses, _, switch_rounds = _play([game], configs, rounds, full_history=True)
    return Trajectory(game=game, rounds=rounds, strategies=[s[:, 0] for s in strategies],
                      losses=[l[:, 0] for l in losses],
                      metadata=_metadata(configs, switch_rounds))


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


def run_streaming(game: Game, configs: Sequence[LearnerConfig], rounds: int) -> StreamingSummary:
    """Like ``run`` but stores only regret-relevant running sums (O(sum n_i))."""
    _check(game, configs, rounds)
    cumulative, action_cumulative, final, switch_rounds = _play(
        [game], configs, rounds, full_history=False)
    total_regret, best_actions = _regrets(cumulative, action_cumulative)
    return StreamingSummary(
        rounds=rounds, cumulative_loss=np.array([c[0] for c in cumulative]),
        action_cumulative=[a[0] for a in action_cumulative], total_regret=total_regret[0],
        best_actions=best_actions[0], final_strategies=[x[0] for x in final],
        metadata=_metadata(configs, switch_rounds))


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
    """Regret of one player, computed directly from the stored trajectory.

    The running per-action sums are built ``AUDIT_BLOCK_ROWS`` rounds at a
    time: each block's ``cumsum`` starts from the previous block's last row,
    so every sum is added in round order, bit for bit the whole-array form.
    """
    x = trajectory.strategies[player]
    losses = trajectory.losses[player]
    curve = np.einsum("tj,tj->t", x, losses)
    np.cumsum(curve, out=curve)
    cumulative_loss = float(curve[-1])
    last = losses[:0]  # the running sums through the previous block; none before the first
    for start in range(0, len(losses), AUDIT_BLOCK_ROWS):
        sums = np.concatenate([last, losses[start:start + AUDIT_BLOCK_ROWS]])
        np.cumsum(sums, axis=0, out=sums)
        curve[start:start + AUDIT_BLOCK_ROWS] -= _reduce_rows(np.minimum, sums[len(last):])
        last = sums[-1:].copy()  # a view would keep the whole block alive
    best_action = int(np.argmin(last[0]))
    return RegretEntry(
        player=player,
        total_regret=float(curve[-1]),
        best_action=best_action,
        cumulative_loss=cumulative_loss,
        best_fixed_loss=float(last[0, best_action]),
        curve=curve,
    )


def regret_report(trajectory: Trajectory) -> list[RegretEntry]:
    return [regret(trajectory, i) for i in range(trajectory.game.num_players)]


@dataclass
class EmpiricalPlay:
    """Time average of the per-round product distributions, stored densely."""

    probs: np.ndarray
    rounds: int


def empirical_joint_distribution(trajectory: Trajectory) -> EmpiricalPlay:
    """Average over rounds of the joint product distribution of play.

    An oracle for the CCE gap, built one round at a time in T x
    ``profile_count`` operations. Each round's product is built with the
    players' axes reversed, so each multiply runs over its longest axis, in
    ``np.multiply.outer``'s order; the last factor lands in one preallocated
    array, which is added to the running total: bit for bit a loop over rounds.
    """
    game = trajectory.game
    if game.profile_count > DENSE_SUPPORT_LIMIT:
        raise ValueError(
            f"joint support {game.profile_count} exceeds dense limit {DENSE_SUPPORT_LIMIT}")
    first, *middle, last = trajectory.strategies
    total, joint = np.zeros(game.action_counts[::-1]), np.empty(game.action_counts[::-1])
    for t in range(trajectory.rounds):
        product = first[t]
        for x in middle:
            product = np.multiply.outer(x[t], product)
        np.multiply.outer(last[t], product, out=joint)
        total += joint
    probs = np.ascontiguousarray(total.transpose())
    probs /= trajectory.rounds
    return EmpiricalPlay(probs=probs, rounds=trajectory.rounds)


@dataclass
class CceReport:
    """Best-deviation gaps of a joint distribution of play.

    ``raw_gaps[i]`` is player i's expected loss under the distribution minus
    that of its best fixed action ``best_deviations[i]`` against the others'
    marginal; ``epsilon`` is the maximum over players of the gaps clamped
    below at zero. For the average of a run's play, ``raw_gaps[i]`` is
    Reg_i(T) / T in exact arithmetic.
    """

    epsilon: float
    raw_gaps: np.ndarray
    best_deviations: np.ndarray


def cce_gap(game: Game, play: EmpiricalPlay) -> CceReport:
    """Approximation gap of ``play`` as a coarse correlated equilibrium."""
    raw = np.empty(game.num_players)
    best = np.empty(game.num_players, dtype=int)
    for i, tensor in enumerate(game.loss_tensors):
        deviations = loss_matrix(game, i) @ play.probs.sum(axis=i).reshape(-1)
        best[i] = int(np.argmin(deviations))
        raw[i] = float((play.probs * tensor).sum()) - float(deviations[best[i]])
    return CceReport(epsilon=float(np.maximum(raw, 0.0).max()), raw_gaps=raw,
                     best_deviations=best)


@dataclass
class BatchResult:
    seed: int
    total_regrets: list[float]
    best_actions: list[int]


def batch_run(game_source: Callable[[int], Game], seeds: Sequence[int],
              configs: Sequence[LearnerConfig], rounds: int) -> list[BatchResult]:
    """One streaming run of ``game_source(seed)`` per seed; results follow ``seeds``.

    Self-play is deterministic, so seeds that map to one game give equal
    results. Each game is checked as it is built, then waits with the games of
    its ``action_counts``; they are played in one ``_play`` batch, and
    dropped, once they hold ``BATCH_BYTES`` of loss tensors, or at the end.
    A game's result does not depend on the other games of its batch. It
    equals ``regret_report(run(...))`` up to the order in which the
    cumulative losses are summed.
    """
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    results = [None] * len(seeds)

    def play(members):
        cumulative, action_cumulative, _, _ = _play([game for _, game in members], configs,
                                                    rounds, full_history=False)
        regrets, best = _regrets(cumulative, action_cumulative)
        for (k, _), regret_row, best_row in zip(members, regrets, best):
            results[k] = BatchResult(seed=seeds[k], total_regrets=regret_row.tolist(),
                                     best_actions=best_row.tolist())

    waiting: dict[tuple[int, ...], list[tuple[int, Game]]] = {}
    for k, seed in enumerate(seeds):
        game = game_source(seed)
        _check(game, configs, rounds)
        members = waiting.setdefault(game.action_counts, [])
        members.append((k, game))
        if len(members) * sum(tensor.nbytes for tensor in game.loss_tensors) >= BATCH_BYTES:
            play(waiting.pop(game.action_counts))
    for members in waiting.values():
        play(members)
    return results


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------

def trajectory_to_csv(trajectory: Trajectory, path) -> None:
    """Write rows (round, player, kind, action, value), 1-indexed, LF-terminated."""
    histories = [h for pair in zip(trajectory.strategies, trajectory.losses) for h in pair]
    labels = [(k // 2 + 1, ("strategy", "loss")[k % 2], j + 1)
              for k, h in enumerate(histories) for j in range(h.shape[1])]
    write_csv(path, ("round", "player", "kind", "action", "value"),
              _round_blocks(histories), labels)


def regret_curves_to_csv(entries: Sequence[RegretEntry], path) -> None:
    """Write rows (round, player, regret), 1-indexed, LF-terminated."""
    write_csv(path, ("round", "player", "regret"),
              _round_blocks([entry.curve[:, None] for entry in entries]),
              [(entry.player + 1,) for entry in entries])


def _round_blocks(histories):
    """``write_csv`` blocks of whole rounds: each round, then its values in ``histories``."""
    step = max(1, AUDIT_BLOCK_ROWS // sum(h.shape[1] for h in histories))
    for start in range(0, len(histories[0]), step):
        values = np.concatenate([h[start:start + step] for h in histories], axis=1)
        yield np.arange(start + 1, start + len(values) + 1), values.reshape(-1)
