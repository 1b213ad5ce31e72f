"""Numerical audits of learning-dynamics trajectories, as ``diagnose`` runs them.

The finite-difference decay profile, consecutive closeness and its bound, and
the regret-bound and variance-inequality audits, which take Reg_i(T) from the
regret report and share one walk's variance sums. All of it is pure except the
``fd_profile_*_csv`` writers, which write a file. The sequence identities behind
the paper's lemmas hold for any sequence and are checked in ``tests/paper_lemmas.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dynamics import RegretEntry, Trajectory
from .game import AUDIT_BLOCK_ROWS, _reduce_rows, write_csv
from .learners import (DEFAULT_C_PRIME, OPT_HEDGE, ceil_log2, row_variances, variance_budget,
                       variance_threshold)

# When the C-coefficient of the linear bound audit is below this, the
# inequality is effectively C-free and no boundary constant is reported.
_C_COEFF_EPS = 1e-15


@dataclass
class FiniteDifferenceProfile:
    """Sup norms of the finite differences of a loss sequence.

    ``sup_norms[h]`` is the max over t < length - h and over actions of
    |Delta^h seq[t]|, and ``ratios[h]`` is sup_norms[h + 1] / sup_norms[h]."""

    sup_norms: np.ndarray
    ratios: np.ndarray
    h_max: int
    length: int

    def to_dict(self) -> dict:
        return {
            "h_max": self.h_max,
            "length": self.length,
            "sup_norms": self.sup_norms.tolist(),
            "ratios": [None if math.isnan(r) else r for r in self.ratios.tolist()],
        }


def _fd_walk(seq: np.ndarray, h_max: int):
    """(order h, first row, |Delta^h seq| on its rows as an (rows, n) block) for each
    ``AUDIT_BLOCK_ROWS`` rows of orders 0..h_max, once the call has checked ``h_max``.

    Each block is ``np.diff`` of order h (a[1:] - a[:-1], h times) of its rows
    of ``seq`` and the h after them, so every row is computed as the
    whole-array form computes it, and no full-length order is held. Consumers
    reduce each block: the profile takes the block's max, and the values CSV
    each row's, with ``_reduce_rows``.
    """
    t = len(seq)
    if not 0 <= h_max <= t - 1:
        raise ValueError(f"h_max={h_max} out of range [0, {t - 1}]")
    base = np.asarray(seq, dtype=np.float64).reshape(t, -1)
    return ((h, start, np.abs(np.diff(base[start:start + AUDIT_BLOCK_ROWS + h], n=h, axis=0)))
            for h in range(h_max + 1) for start in range(0, t - h, AUDIT_BLOCK_ROWS))


def fd_decay_profile(seq: np.ndarray, h_max: int) -> FiniteDifferenceProfile:
    """Sup norms of the finite differences of orders 0..h_max, and decay ratios.

    Undefined ratios (zero denominator, as for constant sequences) are NaN.
    """
    block_sups = [(h, block.max()) for h, _, block in _fd_walk(seq, h_max)]
    norms = np.array([np.max([s for k, s in block_sups if k == h]) for h in range(h_max + 1)])
    ratios = np.divide(norms[1:], norms[:-1], out=np.full(h_max, np.nan), where=norms[:-1] > 0.0)
    return FiniteDifferenceProfile(sup_norms=norms, ratios=ratios, h_max=h_max, length=len(seq))


def fd_profile_values_csv(seq: np.ndarray, h_max: int, path) -> None:
    """CSV rows (order, t, value) for orders 0..h_max of ``seq``; value is the sup
    over actions of the order's entry at round t.

    The rows are written a block of ``AUDIT_BLOCK_ROWS`` rounds at a time, straight from
    ``seq``, so no full-length order is held.
    """
    write_csv(path, ("order", "t", "value"), (
        (np.broadcast_to(h, len(block)), np.arange(start + 1, start + len(block) + 1),
         _reduce_rows(np.maximum, block)) for h, start, block in _fd_walk(seq, h_max)))


def fd_profile_norms_csv(profile: FiniteDifferenceProfile, path) -> None:
    """CSV rows (order, sup_norm)."""
    write_csv(path, ("order", "sup_norm"),
              [(range(len(profile.sup_norms)), profile.sup_norms)])


@dataclass
class ClosenessReport:
    """How far consecutive distributions drift, measured by coordinate ratios.

    zeta_observed is max over steps of (largest ratio in either direction)
    minus 1; a zero coordinate produces an infinite ratio. worst_step s is the
    0-indexed move from row s to row s + 1; both indices are -1 with no step.
    """

    zeta_observed: float
    worst_step: int
    worst_coordinate: int

    def to_dict(self) -> dict:
        """1-indexed: step t moves from round t to t + 1; null for both with no step.
        An infinite zeta_observed is null too, as strict JSON has no infinity."""
        has_step = self.worst_step >= 0
        return {
            "zeta_observed": self.zeta_observed if math.isfinite(self.zeta_observed) else None,
            "worst_step": self.worst_step + 1 if has_step else None,
            "worst_coordinate": self.worst_coordinate + 1 if has_step else None,
        }


def consecutive_closeness(strategies: Sequence[np.ndarray] | np.ndarray) -> ClosenessReport:
    """Measure the worst coordinatewise ratio between consecutive distributions.

    The rows are read ``AUDIT_BLOCK_ROWS`` steps at a time, and only the worst
    step so far is kept; of equal steps the first is reported.
    """
    x = np.asarray(strategies, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (T, n) array of distributions, got shape {x.shape}")
    zeta, step, coord = 0.0, -1, -1
    for start in range(0, len(x) - 1, AUDIT_BLOCK_ROWS):
        rows = x[start:start + AUDIT_BLOCK_ROWS + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = np.maximum(rows[1:] / rows[:-1], rows[:-1] / rows[1:])
        np.nan_to_num(worst, copy=False, nan=np.inf, posinf=np.inf)  # 0/0 counts as infinite
        steps = _reduce_rows(np.maximum, worst) - 1.0
        k = int(np.argmax(steps))
        if step < 0 or steps[k] > zeta:
            zeta, step, coord = float(steps[k]), start + k, int(np.argmax(worst[k]))
    return ClosenessReport(zeta, step, coord)


def closeness_bound(eta: float) -> float | None:
    """exp(6 eta) - 1, the paper's bound on consecutive closeness; None where exp overflows."""
    try:
        return math.exp(6.0 * eta) - 1.0
    except OverflowError:  # eta above about 118.3
        return None


def check_audit_learners(audits: Iterable[str], modes: Sequence[str], etas: Sequence[float]):
    """Raise ``ValueError`` naming the first rule of ``audits`` that the learners break.

    ``bound_terms`` and ``variance_inequality`` audit the optimistic update, so
    every player they audit must follow it; ``variance_inequality`` also needs
    one step size for all players. Other audit names carry no rule.
    """
    for audit in audits:
        if audit in ("bound_terms", "variance_inequality") and any(m != OPT_HEDGE for m in modes):
            raise ValueError(f"{audit} needs {OPT_HEDGE} learners, got {list(modes)}")
        if audit == "variance_inequality" and len(set(etas)) != 1:
            raise ValueError(f"{audit} needs one step size for all players, got {list(etas)}")


def _variance_sums(trajectory: Trajectory, player: int) -> tuple[float, float]:
    """Sums over rounds of Var[loss - prev loss] and Var[prev loss] under the player's strategy.

    The round-0 previous loss is the all-zeros vector by convention. Each sum
    is taken at once over per-round variances computed one row block at a time.
    """
    x = trajectory.strategies[player]
    losses = trajectory.losses[player]
    t = losses.shape[0]
    var_delta, var_prev = np.empty(t), np.empty(t)
    for start in range(0, t, AUDIT_BLOCK_ROWS):
        stop = min(start + AUDIT_BLOCK_ROWS, t)
        prev = losses[start - 1:stop - 1] if start else np.vstack(
            [np.zeros((1, losses.shape[1])), losses[:stop - 1]])
        var_delta[start:stop] = row_variances(x[start:stop], losses[start:stop] - prev)
        var_prev[start:stop] = row_variances(x[start:stop], prev)
    return float(var_delta.sum()), float(var_prev.sum())


@dataclass
class BoundTermBreakdown:
    """Terms of the adversarial regret bound audited on a recorded run.

    ``c_star`` is the smallest constant making the bound hold (None when the
    inequality fails and its constant coefficient vanishes). The entropy term
    is reported in both natural-log and base-2 conventions; ``to_dict`` writes
    null for one past the double range, as a subnormal eta gives.
    """

    player: int
    lhs: float
    term_log: float
    term_log_base2: float
    sum_var_delta: float
    sum_var_prev: float
    c_star: float | None
    holds_at_zero: bool
    eta: float

    def to_dict(self) -> dict:
        return {
            "player": self.player + 1,
            "regret": self.lhs,
            "term_log_nats": self.term_log if math.isfinite(self.term_log) else None,
            "term_log_base2": self.term_log_base2 if math.isfinite(self.term_log_base2) else None,
            "sum_var_delta": self.sum_var_delta,
            "sum_var_prev": self.sum_var_prev,
            "c_star": self.c_star,
            "holds_at_zero": self.holds_at_zero,
            "eta": self.eta,
        }


def regret_bound_terms(trajectory: Trajectory, entry: RegretEntry) -> BoundTermBreakdown:
    """Audit the variance-form adversarial regret bound for ``entry``'s player.

    Takes Reg_i(T) from ``entry``, the regret report's value, evaluates the
    entropy term and both variance sums, then solves for the constant C* of

        regret <= log(n)/eta + sum (eta/2 + C eta^2) Var[loss diff]
                              - sum ((1 - C eta) eta / 2) Var[prev loss]

    which is linear in C. The player must have followed the optimistic
    update rule.
    """
    eta = trajectory.metadata.etas[entry.player]
    check_audit_learners(["bound_terms"], [trajectory.metadata.modes[entry.player]], [eta])
    n = trajectory.game.action_counts[entry.player]
    sum_var_delta, sum_var_prev = _variance_sums(trajectory, entry.player)
    lhs = entry.total_regret
    term_log = math.log(n) / eta
    base = term_log + (eta / 2.0) * (sum_var_delta - sum_var_prev)
    coeff = eta * eta * (sum_var_delta + sum_var_prev / 2.0)
    holds_at_zero = lhs <= base
    c_star = 0.0 if holds_at_zero else None if coeff < _C_COEFF_EPS else (lhs - base) / coeff
    return BoundTermBreakdown(
        player=entry.player, lhs=lhs, term_log=term_log,
        term_log_base2=math.log2(n) / eta,
        sum_var_delta=sum_var_delta, sum_var_prev=sum_var_prev,
        c_star=c_star, holds_at_zero=holds_at_zero, eta=eta)


@dataclass
class VarianceInequalityReport:
    """Both sides of the variance-sum inequality plus the constant-free ratio.

    ``ratio`` is sum Var[loss diff] / sum Var[prev loss]; a 0/0 ratio is
    reported as degenerate, never as pass or fail.
    """

    player: int
    lhs: float
    rhs: float
    ratio: float | None
    holds: bool
    degenerate: bool
    c_prime: float
    h: int

    def to_dict(self) -> dict:
        return {
            "player": self.player + 1,
            "lhs": self.lhs, "rhs": self.rhs, "ratio": self.ratio,
            "holds": self.holds, "degenerate": self.degenerate,
            "c_prime": self.c_prime, "h": self.h,
        }


def check_variance_inequality(trajectory: Trajectory,
                              terms: BoundTermBreakdown) -> VarianceInequalityReport:
    """Check sum Var[loss diff] <= 1/2 sum Var[prev loss] + C' * ceil(log2 T)^5.

    This is the adaptive switch's test (``learners.variance_budget``) at the default C'.
    Both sums and the player come from ``terms``, the player's ``regret_bound_terms``.
    Every player must follow the optimistic update with one step size. The additive
    constant dominates at desk scale, so the constant-free ratio is the informative output.
    """
    check_audit_learners(["variance_inequality"], trajectory.metadata.modes,
                         trajectory.metadata.etas)
    lhs, denom = terms.sum_var_delta, terms.sum_var_prev
    rhs = variance_budget(denom, variance_threshold(DEFAULT_C_PRIME, trajectory.rounds))
    ratio = None if denom == 0.0 else lhs / denom
    return VarianceInequalityReport(
        player=terms.player, lhs=lhs, rhs=rhs, ratio=ratio,
        holds=lhs <= rhs, degenerate=lhs == denom == 0.0,
        c_prime=DEFAULT_C_PRIME, h=ceil_log2(trajectory.rounds))
