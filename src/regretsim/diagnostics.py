"""Numerical diagnostics for learning-dynamics trajectories.

Divergences, local norms, plain and circular finite differences, discrete
Fourier identities, and the inequality checkers used to audit regret bounds
on recorded runs. Everything here is a pure function of its inputs, except
the ``fd_profile_*_csv`` writers, which write a file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .dynamics import AUDIT_BLOCK_ROWS, Trajectory, regret
from .game import write_csv
from .learners import OPT_HEDGE, BoundConstants, row_variances

# When the C-coefficient of the linear bound audit is below this, the
# inequality is effectively C-free and no boundary constant is reported.
_C_COEFF_EPS = 1e-15


# ---------------------------------------------------------------------------
# Local norms, divergences
# ---------------------------------------------------------------------------

def local_norms(probs: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """The weighted norm sqrt(sum p v^2) and its dual sqrt(sum v^2 / p).

    The dual norm is undefined when a zero-probability coordinate carries a
    nonzero value.
    """
    p = np.asarray(probs, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if p.shape != v.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {v.shape}")
    primal = math.sqrt(float(p @ (v * v)))
    zero = p == 0.0
    if np.any(zero & (v != 0.0)):
        raise ZeroDivisionError("dual norm undefined: nonzero value on zero-probability coordinate")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(zero, 0.0, (v * v) / np.where(zero, 1.0, p))
    dual = math.sqrt(float(terms.sum()))
    return primal, dual


@dataclass(frozen=True)
class DivergenceValues:
    """KL divergence (in nats) and chi-squared divergence between two distributions."""

    kl: float
    chi2: float


def divergences(p: np.ndarray, q: np.ndarray) -> DivergenceValues:
    """KL(p; q) in nats and chi2(p; q), with the 0 log 0 = 0 convention.

    A coordinate with q = 0 but p > 0 makes both divergences infinite; that
    is signalled by returning inf rather than raising.
    """
    pa = np.asarray(p, dtype=np.float64)
    qa = np.asarray(q, dtype=np.float64)
    if pa.shape != qa.shape:
        raise ValueError(f"shape mismatch: {pa.shape} vs {qa.shape}")
    if np.any((qa == 0.0) & (pa > 0.0)):
        return DivergenceValues(kl=math.inf, chi2=math.inf)
    support = pa > 0.0
    kl = float(np.sum(pa[support] * np.log(pa[support] / qa[support])))
    qpos = qa > 0.0
    chi2 = float(np.sum((pa[qpos] - qa[qpos]) ** 2 / qa[qpos]))
    return DivergenceValues(kl=kl, chi2=chi2)


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------

def finite_difference(seq: np.ndarray, h: int) -> np.ndarray:
    """Order-h finite difference of a sequence (first axis is time).

    Defined recursively: order 0 is the sequence itself, and each further
    order takes consecutive differences, shortening the sequence by one.
    """
    out = np.asarray(seq, dtype=np.float64)
    t = out.shape[0]
    if not 0 <= h <= t - 1:
        raise ValueError(f"order h={h} out of range [0, {t - 1}]")
    for _ in range(h):
        out = out[1:] - out[:-1]
    return out


def finite_difference_binomial(seq: np.ndarray, h: int, t: int):
    """Entry t of the order-h finite difference via the binomial expansion.

    Computes sum_s C(h, s) (-1)^(h-s) seq[t + s]; must agree with the
    recursive path. ``t`` is a 0-indexed offset in [0, len(seq) - h - 1].
    """
    arr = np.asarray(seq, dtype=np.float64)
    length = arr.shape[0]
    if not 0 <= h <= length - 1:
        raise ValueError(f"order h={h} out of range [0, {length - 1}]")
    if not 0 <= t <= length - h - 1:
        raise ValueError(f"offset t={t} out of range [0, {length - h - 1}]")
    total = np.zeros(arr.shape[1:], dtype=np.float64)
    for s in range(h + 1):
        sign = -1.0 if (h - s) % 2 else 1.0
        total = total + sign * math.comb(h, s) * arr[t + s]
    return float(total) if total.ndim == 0 else total


def circular_finite_difference(seq: np.ndarray, h: int) -> np.ndarray:
    """Level-h circular finite difference: consecutive differences with the
    last entry wrapping around to the start. Length is preserved."""
    out = np.asarray(seq, dtype=np.float64)
    if h < 0:
        raise ValueError(f"order h must be >= 0, got {h}")
    for _ in range(h):
        out = np.roll(out, -1, axis=0) - out
    return out


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


def _reduce_rows(ufunc, block: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(block, axis=1)`` for ``np.maximum`` or ``np.minimum``, by one pass per
    column up to n = 32 (strided passes lose from n = 64 at 4,096 rows). Bit for bit equal bar
    a +0/-0 tie's winner and a NaN's bits, which numpy leaves to the CPU's vector width."""
    if not 0 < block.shape[1] <= 32:
        return ufunc.reduce(block, axis=1)
    return reduce(lambda out, column: ufunc(out, column, out=out), block.T[1:], block[:, 0].copy())


def _fd_walk(seq: np.ndarray, h_max: int):
    """(order h, first row, |Delta^h seq| on its rows as an (rows, n) block) for each
    ``AUDIT_BLOCK_ROWS`` rows of orders 0..h_max, once the call has checked ``h_max``.

    Each block is ``finite_difference`` of its rows of ``seq`` and the h after
    them, so every row is computed as the whole-array form computes it, and no
    full-length order is held. Consumers reduce each block: the profile takes
    the block's max, and the values CSV each row's, with ``_reduce_rows``.
    """
    t = len(seq)
    if not 0 <= h_max <= t - 1:
        raise ValueError(f"h_max={h_max} out of range [0, {t - 1}]")
    base = np.asarray(seq, dtype=np.float64).reshape(t, -1)
    return ((h, start, np.abs(finite_difference(base[start:start + AUDIT_BLOCK_ROWS + h], h)))
            for h in range(h_max + 1) for start in range(0, t - h, AUDIT_BLOCK_ROWS))


def _fd_profile(block_sups, h_max: int, length: int) -> FiniteDifferenceProfile:
    """The profile from each walked block's (order, sup)."""
    norms = np.array([np.max([s for k, s in block_sups if k == h]) for h in range(h_max + 1)])
    ratios = np.divide(norms[1:], norms[:-1], out=np.full(h_max, np.nan), where=norms[:-1] > 0.0)
    return FiniteDifferenceProfile(sup_norms=norms, ratios=ratios, h_max=h_max, length=length)


def fd_decay_profile(seq: np.ndarray, h_max: int) -> FiniteDifferenceProfile:
    """Sup norms of the finite differences of orders 0..h_max, and decay ratios.

    Undefined ratios (zero denominator, as for constant sequences) are NaN;
    ``fd_profile_values_csv`` returns the same profile from the walk that writes its file.
    """
    return _fd_profile([(h, block.max()) for h, _, block in _fd_walk(seq, h_max)], h_max, len(seq))


def fd_profile_values_csv(seq: np.ndarray, h_max: int, path) -> FiniteDifferenceProfile:
    """CSV rows (order, t, value) for orders 0..h_max of ``seq``; value is the sup
    over actions of the order's entry at round t. Returns ``fd_decay_profile(seq, h_max)``.

    The rows are written a block of ``AUDIT_BLOCK_ROWS`` rounds at a time, straight from
    ``seq``, so no full-length order is held; a block's max is the max of its rows' sups.
    """
    walk, block_sups = _fd_walk(seq, h_max), []

    def blocks():
        for h, start, block in walk:
            sups = _reduce_rows(np.maximum, block)
            block_sups.append((h, sups.max()))
            yield np.broadcast_to(h, len(sups)), np.arange(start + 1, start + len(sups) + 1), sups

    write_csv(path, ("order", "t", "value"), blocks())
    return _fd_profile(block_sups, h_max, len(seq))


def fd_profile_norms_csv(profile: FiniteDifferenceProfile, path) -> None:
    """CSV rows (order, sup_norm)."""
    write_csv(path, ("order", "sup_norm"),
              [(range(len(profile.sup_norms)), profile.sup_norms)])


# ---------------------------------------------------------------------------
# Discrete Fourier transform
# ---------------------------------------------------------------------------

def dft(seq: np.ndarray) -> np.ndarray:
    """DFT of a sequence: component s is sum_t seq[t] exp(-2 pi i s t / S)."""
    w = np.asarray(seq)
    if w.shape[0] < 1:
        raise ValueError("sequence must be nonempty")
    return np.fft.fft(w)


def idft(spectrum: np.ndarray) -> np.ndarray:
    """Inverse DFT; ``idft(dft(w))`` recovers ``w`` up to rounding."""
    z = np.asarray(spectrum, dtype=np.complex128)
    if z.shape[0] < 1:
        raise ValueError("sequence must be nonempty")
    return np.fft.ifft(z)


def check_circular_fourier_identity(seq: np.ndarray, h: int) -> float:
    """Max deviation in the transform identity for circular differences.

    The DFT of the level-h circular finite difference equals the DFT of the
    sequence multiplied pointwise by (exp(2 pi i s / S) - 1)^h; returns the
    largest absolute discrepancy over frequencies.
    """
    w = np.asarray(seq, dtype=np.float64)
    s = w.shape[0]
    lhs = dft(circular_finite_difference(w, h))
    factor = (np.exp(2j * np.pi * np.arange(s) / s) - 1.0) ** h
    rhs = dft(w) * factor
    return float(np.max(np.abs(lhs - rhs)))


@dataclass
class FreqCauchyReport:
    """Outcome of the circular-difference energy inequality check.

    premise:    sum (D2 w)^2 <= alpha * sum (D1 w)^2 + mu
    conclusion: sum (D1 w)^2 <= alpha * sum w^2 + mu / alpha
    """

    alpha: float | None
    mu: float
    sum_d2_sq: float
    sum_d1_sq: float
    sum_w_sq: float
    premise_holds: bool
    conclusion_holds: bool
    premise_slack: float
    conclusion_slack: float
    degenerate: bool = False


def check_freq_cauchy(seq: np.ndarray, alpha: float | None = None,
                      mu: float = 0.0) -> FreqCauchyReport:
    """Evaluate the second-vs-first circular-difference energy inequality.

    With ``alpha=None`` the premise ratio sum(D2 w)^2 / sum(D1 w)^2 is used,
    making the premise tight; the conclusion then must hold (it is implied
    via Parseval and Cauchy-Schwarz in the frequency domain). A constant-
    difference sequence makes the ratio 0/0 and is reported as degenerate.
    """
    w = np.asarray(seq, dtype=np.float64)
    d1 = circular_finite_difference(w, 1)
    d2 = circular_finite_difference(d1, 1)
    s0 = float(np.sum(w * w))
    s1 = float(np.sum(d1 * d1))
    s2 = float(np.sum(d2 * d2))
    if alpha is None:
        if s1 == 0.0:
            return FreqCauchyReport(
                alpha=None, mu=mu, sum_d2_sq=s2, sum_d1_sq=s1, sum_w_sq=s0,
                premise_holds=s2 <= mu, conclusion_holds=True,
                premise_slack=mu - s2, conclusion_slack=math.inf,
                degenerate=True)
        alpha = s2 / s1
    if alpha <= 0.0:
        if alpha < 0.0 or s2 > 0.0 or s1 > 0.0:
            raise ValueError(f"alpha must be > 0, got {alpha}")
        # all-zero differences with alpha == 0: trivially satisfied
        return FreqCauchyReport(
            alpha=0.0, mu=mu, sum_d2_sq=s2, sum_d1_sq=s1, sum_w_sq=s0,
            premise_holds=True, conclusion_holds=True,
            premise_slack=mu, conclusion_slack=math.inf, degenerate=True)
    premise_slack = alpha * s1 + mu - s2
    conclusion_slack = alpha * s0 + mu / alpha - s1
    return FreqCauchyReport(
        alpha=alpha, mu=mu, sum_d2_sq=s2, sum_d1_sq=s1, sum_w_sq=s0,
        premise_holds=premise_slack >= 0.0,
        conclusion_holds=conclusion_slack >= 0.0,
        premise_slack=premise_slack, conclusion_slack=conclusion_slack)


# ---------------------------------------------------------------------------
# Consecutive closeness
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Trajectory-level bound audits
# ---------------------------------------------------------------------------

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
    is reported in both natural-log and base-2 conventions.
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
            "term_log_nats": self.term_log,
            "term_log_base2": self.term_log_base2,
            "sum_var_delta": self.sum_var_delta,
            "sum_var_prev": self.sum_var_prev,
            "c_star": self.c_star,
            "holds_at_zero": self.holds_at_zero,
            "eta": self.eta,
        }


def regret_bound_terms(trajectory: Trajectory, player: int) -> BoundTermBreakdown:
    """Audit the variance-form adversarial regret bound for one player.

    Evaluates regret, the entropy term, and both variance sums, then solves
    for the boundary constant C* of

        regret <= log(n)/eta + sum (eta/2 + C eta^2) Var[loss diff]
                              - sum ((1 - C eta) eta / 2) Var[prev loss]

    which is linear in C. The player must have followed the optimistic
    update rule.
    """
    eta = trajectory.metadata.etas[player]
    check_audit_learners(["bound_terms"], trajectory.metadata.modes[player:player + 1], [eta])
    n = trajectory.game.action_counts[player]
    sum_var_delta, sum_var_prev = _variance_sums(trajectory, player)
    lhs = regret(trajectory, player).total_regret
    term_log = math.log(n) / eta
    base = term_log + (eta / 2.0) * (sum_var_delta - sum_var_prev)
    coeff = eta * eta * (sum_var_delta + sum_var_prev / 2.0)
    holds_at_zero = lhs <= base
    c_star = 0.0 if holds_at_zero else None if coeff < _C_COEFF_EPS else (lhs - base) / coeff
    return BoundTermBreakdown(
        player=player, lhs=lhs, term_log=term_log,
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


def check_variance_inequality(trajectory: Trajectory, player: int,
                              constants: BoundConstants | None = None) -> VarianceInequalityReport:
    """Check sum Var[loss diff] <= 1/2 sum Var[prev loss] + C' * ceil(log2 T)^5.

    Requires that every player followed the optimistic update with a common
    step size. The additive constant dominates at desk scale, so the
    constant-free ratio is the informative output.
    """
    check_audit_learners(["variance_inequality"], trajectory.metadata.modes,
                         trajectory.metadata.etas)
    if constants is None:
        constants = BoundConstants.for_horizon(trajectory.rounds)
    lhs, denom = _variance_sums(trajectory, player)
    rhs = 0.5 * denom + constants.c_prime * float(constants.h) ** 5
    degenerate = lhs == 0.0 and denom == 0.0
    ratio = None if denom == 0.0 else lhs / denom
    return VarianceInequalityReport(
        player=player, lhs=lhs, rhs=rhs, ratio=ratio,
        holds=lhs <= rhs, degenerate=degenerate,
        c_prime=constants.c_prime, h=constants.h)
