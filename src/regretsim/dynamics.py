"""Self-play dynamics: run T rounds, record trajectories, score regret.

All round-t loss vectors are computed from round-t strategies before any learner advances, so
updates are synchronous. Runs are deterministic given (game, configs, T). The engine, ``_play``,
lays out rows by ``_Layout`` and buffers by ``_cells``, then plays and records the rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from typing import Callable, Sequence

import numpy as np

from . import learners
from .export import write_csv
from .game import Game, loss_matrix

__version__ = "0.1.0"

# ``regret``, the audits and the CSV exporters take a (T, n) history this many rows at a time.
AUDIT_BLOCK_ROWS = 4096

# Dense storage cap for the empirical joint distribution.
DENSE_SUPPORT_LIMIT = 10**6

# ``batch_run`` plays its waiting games once their loss tensors reach this many bytes.
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
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if len(configs) != game.num_players:
        raise ValueError(f"{len(configs)} learner configs for {game.num_players} players")


class _Layout:
    """Where ``_play`` keeps the rows of games of one player count.

    ``shapes`` lists the games' action counts in order of first appearance, ``members[h]`` the
    indices of shape h's games and ``states[h][i]`` player i's initial ``LearnerState`` on them.
    Each (game, player) is a row. Rows that share an action count n, an update kind (Hedge, or
    the optimistic rule of the other modes) and ``LearnerState.shift`` form group (f, n), which
    may span shapes, of family f, whose (is Hedge, shift) is ``families[f]``. A family's
    strategies and losses live in two round-major (W + 1, ``ends[f]``) windows. Their columns
    hold its groups by n, at ``groups[f, n] = (a, b)``, each group's shapes in turn, each
    shape's players in order and each player's (B_s, n) rows, at ``place[h, i] = (f, a, b)``.
    The round in slot s reads row s and writes its losses and next strategies into row s + 1.
    W, ``width``, is ``WINDOW_ROUNDS``, less for a shorter horizon or where a window of all
    strategies would pass BATCH_BYTES / 8.
    """

    def __init__(self, games: Sequence[Game], configs: Sequence[LearnerConfig], rounds: int):
        self.shapes = list(dict.fromkeys(game.action_counts for game in games))
        self.members = [[k for k, game in enumerate(games) if game.action_counts == shape]
                        for shape in self.shapes]
        self.states = [[learners.init_state(n, c.eta, c.mode, horizon=rounds, c_prime=c.c_prime)
                        for n, c in zip(shape, configs)] for shape in self.shapes]
        kinds = {(h, i): (s.mode == learners.HEDGE, s.shift)
                 for h, row in enumerate(self.states) for i, s in enumerate(row)}
        self.families = list(dict.fromkeys(kinds.values()))
        self.place, self.groups, self.ends = {}, {}, [0] * len(self.families)
        # one sort puts each group's blocks side by side, in (shape, player) order
        for f, n, h, i in sorted((self.families.index(kind), self.shapes[h][i], h, i)
                                 for (h, i), kind in kinds.items()):
            a, self.ends[f] = self.ends[f], self.ends[f] + len(self.members[h]) * n
            self.place[h, i] = f, a, self.ends[f]
            self.groups[f, n] = self.groups.get((f, n), (a,))[0], self.ends[f]
        self.width = max(1, min(WINDOW_ROUNDS, rounds, BATCH_BYTES // (64 * sum(self.ends))))

    def rows(self, arrays, h, i, c=1):
        """(..., c, B_s, n_i) views of player i's rows on shape h and the next c - 1."""
        f, a, b = self.place[h, i]
        array = arrays[f][..., a:a + c * (b - a)]
        return array.reshape(array.shape[:-1] + (c, len(self.members[h]), self.shapes[h][i]))


def _cells(layout: _Layout, games: Sequence[Game], strategies, losses):
    """Per cell, made once, the buffers that compute its expected losses each round.

    A cell is a shape's players if one group holds them all, so that their loss matrices share a
    shape, else one player. Each round a cell of c rows takes its opponents' strategies from its
    window row: in one ``take`` into a (c, m - 1, B, n) buffer, as views of their rows in a
    one-player cell, or as its two rows reversed. Of its opponents j1 < j2 < ... < jk it folds
    all but j1 from the right, x_j2 * (x_j3 * (... * x_jk)), into preallocated buffers, each
    earlier opponent the new outer axis, so the (c, B, N / n_j1) joint comes out in
    ``loss_matrix``'s opponent order. Two ``matmul``s follow: the (c, B, n_i n_j1, N / n_j1) view
    of its loss matrices times that joint, then the (c, B, n_i, n_j1) result times x_j1, into its
    loss rows. j1, the outer axis of the matrices' columns, is contracted last: folding it too
    would write the (c, B, N) joint for the one matmul to read back, in as many numpy calls. A
    cell of one opponent runs one ``matmul`` with it.
    """
    width, rows = layout.width, layout.rows
    contractions = []
    for h, (counts, ks) in enumerate(zip(layout.shapes, layout.members)):
        batch, players = [games[k] for k in ks], range(len(counts))
        one_group = len({(layout.place[h, i][0], n) for i, n in enumerate(counts)}) == 1
        for cell in [list(players)] if one_group else [[i] for i in players]:
            c, n = len(cell), counts[cell[0]]
            lead = (c, len(ks))
            if c == 1:  # loss_matrix's stack, a view of the tensor for player 0 of one game
                mat = loss_matrix(batch, cell[0])[None]
            else:
                mat = np.empty(lead + (n, batch[0].profile_count // n))
                for a, i in enumerate(cell):
                    mat[a] = loss_matrix(batch, i)
            opponents = [[j for j in players if j != i] for i in cell]
            own = rows(strategies, h, cell[0], c)[:width]
            gathers, sources = None, [own[:, ::-1]]  # the cell of two players
            if c == 1:
                sources = [rows(strategies, h, j)[:width] for j in opponents[0]]
            elif c > 2:
                gathered = np.empty((c, len(counts) - 1) + own.shape[2:])
                gathers = [partial(x.take, np.array(opponents), 0, gathered, "clip")
                           for x in own]
                sources = [np.broadcast_to(x, (width,) + x.shape) for x in gathered.swapaxes(0, 1)]
            chain, joint = [], sources[-1]
            for factor in reversed(sources[1:-1]):
                product = np.empty(factor.shape[1:] + joint.shape[-1:])
                chain.append((list(factor[..., :, None]), list(joint[..., None, :]), product))
                joint = product.reshape(lead + (-1,))
                joint = np.broadcast_to(joint, (width,) + joint.shape)
            # each matmul's left operand, and its right operands and outputs per slot
            rights, outs = list(joint[..., None]), list(rows(losses, h, cell[0], c)[1:, ..., None])
            stages = [(mat, rights, outs)]
            if len(sources) > 1:
                middle = np.empty(lead + (n * sources[0].shape[-1], 1))
                stages = [(mat.reshape(middle.shape[:-1] + (-1,)), rights, [middle] * width),
                          (middle.reshape(lead + (n, -1)), list(sources[0][..., None]), outs)]
            contractions.append((gathers, chain, stages))
    return contractions


def _rounds(t0: int, w: int, contractions, switches, updates) -> None:
    """Play rounds t0 + 1 ... t0 + w in window slots 0 ... w - 1, as ``_play`` describes."""
    # Local names for the ufuncs the loop calls T times per family or group.
    maximum, total, exp = np.maximum.reduce, np.add.reduce, np.exp
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    for s in range(w):
        for gathers, chain, stages in contractions:
            if gathers:
                gathers[s]()
            for factors, joints, product in chain:
                multiply(factors[s], joints[s], product)
            for left, rights, outs in stages:
                np.matmul(left, rights[s], outs[s])
        for sums, xs, ls, neg_eta, fired, state in switches:
            sums[0] += learners.row_variances(xs[s], ls[s + 1] - ls[s])
            sums[1] += learners.row_variances(xs[s], ls[s])
            if t0 + s + 1 >= learners.MIN_SWITCH_ROUND:
                budget = learners.variance_budget(sums[1], state.switch_threshold)
                fire = (fired == 0) & (sums[0] > budget)
                fired[fire] = t0 + s + 1
                neg_eta[fire] = -state.eta_post
        for xs, ls, neg_eta, e, is_hedge, shift, parts in updates:
            loss, prev = ls[s + 1], ls[s]
            if is_hedge:
                multiply(loss, neg_eta, e)
            else:
                # loss + loss is 2.0 * loss exactly
                add(loss, loss, e)
                subtract(e, prev, e)
                multiply(e, neg_eta, e)
            if shift:
                for eg, red, _ in parts:
                    maximum(eg, -1, None, red, True)
                    subtract(eg, red, eg)
            exp(e, e)
            multiply(e, xs[s], e)
            for eg, red, nexts in parts:
                total(eg, -1, None, red, True)
                divide(eg, red, nexts[s])


def _play(games: Sequence[Game], configs: Sequence[LearnerConfig], rounds: int,
          full_history: bool):
    """The self-play loop behind every runner, over games of one player count.

    Rows, groups, families and windows are ``_Layout``'s, and ``_rounds`` plays each window.
    Each round, each cell computes its expected losses (see ``_cells``), and an adaptive player
    whose threshold is below 2T (see ``init_state``) adds ``learners.row_variances`` to its two
    (B_s,) variance sums and tests them against ``learners.variance_budget``. Then each family
    runs the elementwise update once over its whole row, and each group its max shift (skipped
    in a family whose step sizes stay at most 1; see ``learners``), keepdims sum and divide:
    ``learners.step`` row by row, bit for bit, so no row depends on its batch, group or family.
    Each window is recorded in one step, and its last row copied to row 0: with ``full_history``
    each player's (T, B_s, n_i) strategies and losses, else its (B_s,) cumulative losses and
    (B_s, n_i) per-action sums. Returns per shape of ``_Layout.shapes`` its games' indices, then
    per player its record, final (B_s, n_i) strategies and (B_s,) switch rounds (0: none).
    """
    layout = _Layout(games, configs, rounds)
    width, ends, rows, players = layout.width, layout.ends, layout.rows, range(len(configs))
    strategies = [np.empty((width + 1, end)) for end in ends]
    # Without full_history, an x * loss row stands beside each loss row (see the record).
    windows = [np.zeros((width + 1, 1 if full_history else 2, end)) for end in ends]
    losses = [window[:, -1] for window in windows]
    neg_etas = [np.empty(end) for end in ends]
    switch_rounds = [[np.zeros(len(ks), dtype=int) for _ in players] for ks in layout.members]
    for h, i in layout.place:
        rows(strategies, h, i)[...] = 1.0 / layout.shapes[h][i]
        rows(neg_etas, h, i)[...] = -layout.states[h][i].eta
    switches = [(np.zeros((2, len(layout.members[h]))), rows(strategies, h, i)[:, 0],
                 rows(losses, h, i)[:, 0], rows(neg_etas, h, i)[0], switch_rounds[h][i], s)
                for h, row in enumerate(layout.states) for i, s in enumerate(row)
                if s.mode == learners.ADAPTIVE_OPT_HEDGE and s.switch_threshold < 2 * rounds]
    contractions = _cells(layout, games, strategies, losses)
    # Per family: its window rows, -eta, exponent, kind and shift, and per group (rows, n) views
    # of its exponent, a reduction buffer and its next strategies: the update allocates nothing.
    updates = []
    for f, (x, loss, neg_eta) in enumerate(zip(strategies, losses, neg_etas)):
        e = np.empty(len(neg_eta))
        parts = [(e[a:b].reshape(-1, n), np.empty(((b - a) // n, 1)),
                  list(x[1:, a:b].reshape(width, -1, n)))
                 for (g, n), (a, b) in layout.groups.items() if g == f]
        updates.append((list(x), list(loss), neg_eta, e, *layout.families[f], parts))
    if full_history:
        played, seen = ({key: np.empty((rounds,) + rows(strategies, *key).shape[2:])
                         for key in layout.place} for _ in range(2))
    else:
        # Per family: the (x * loss, loss) sums. Put in row 0 of a window, they take its
        # rows in round order in one add.reduce, as per-round adds would, since each row
        # holds two or more numbers: rows of one number numpy sums pairwise.
        running = [np.zeros((2, end)) for end in ends]
    for t0 in range(0, rounds, width):
        w = min(width, rounds - t0)
        _rounds(t0, w, contractions, switches, updates)
        if full_history:
            for key in layout.place:
                played[key][t0:t0 + w] = rows(strategies, *key)[:w, 0]
                seen[key][t0:t0 + w] = rows(losses, *key)[1:w + 1, 0]
        for f, (x, loss) in enumerate(zip(strategies, losses)):
            if not full_history:
                window = windows[f][:w + 1]
                window[0] = running[f]  # over the spent previous losses of slot 0
                np.multiply(x[:w], loss[1:w + 1], window[1:, 0])
                np.add.reduce(window, 0, None, running[f])
            x[0], loss[0] = x[w], loss[w]
    if not full_history:
        played = {key: rows(running, *key)[0, 0].sum(-1) for key in layout.place}
        seen = {key: rows(running, *key)[1, 0] for key in layout.place}
    return [(ks, *([records[h, i] for i in players] for records in (played, seen)),
             [rows(strategies, h, i)[0, 0] for i in players], switch_rounds[h])
            for h, ks in enumerate(layout.members)]


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
    (_, strategies, losses, _, switch_rounds), = _play([game], configs, rounds, full_history=True)
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
    (_, cumulative, action_cumulative, final, switch_rounds), = _play(
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


def _reduce_rows(ufunc, block: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(block, axis=1)`` for ``np.maximum`` or ``np.minimum``, by one pass per
    column up to n = 32 (strided passes lose from n = 64 at 4,096 rows). Bit for bit equal bar
    a +0/-0 tie's winner and a NaN's bits, which numpy leaves to the CPU's vector width."""
    if not 0 < block.shape[1] <= 32:
        return ufunc.reduce(block, axis=1)
    return reduce(lambda out, column: ufunc(out, column, out=out), block.T[1:], block[:, 0].copy())


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
        deviations = loss_matrix([game], i)[0] @ play.probs.sum(axis=i).reshape(-1)
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
    results. Each game's player count is checked as it is built; then it joins
    one pool of waiting games, whatever its ``action_counts``. The pool is
    played in one ``_play`` batch in this thread, and dropped, once its games
    hold ``BATCH_BYTES`` of loss tensors, or at the end: memory is bounded by
    that limit, not by the number of seeds. A game's result does not depend on
    the other games of its batch. It equals ``regret_report(run(...))`` up to
    the order in which the cumulative losses are summed.
    """
    if len(seeds) < 1:
        raise ValueError("need at least one seed")
    results = [None] * len(seeds)

    def play(pool):
        for ks, cumulative, action_cumulative, _, _ in _play(
                [game for _, game in pool], configs, rounds, full_history=False):
            regrets, best = _regrets(cumulative, action_cumulative)
            for k, regret_row, best_row in zip([pool[j][0] for j in ks], regrets, best):
                results[k] = BatchResult(seed=seeds[k], total_regrets=regret_row.tolist(),
                                         best_actions=best_row.tolist())

    pool, held = [], 0
    for k, seed in enumerate(seeds):
        game = game_source(seed)
        _check(game, configs, rounds)
        pool.append((k, game))
        held += sum(tensor.nbytes for tensor in game.loss_tensors)
        if held >= BATCH_BYTES:
            play(pool)
            pool, held = [], 0
    if pool:
        play(pool)
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
