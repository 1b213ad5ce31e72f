"""Sequence identities behind the paper's lemmas, checked on arbitrary sequences.

The auxiliary iterate, divergences and local norms, finite differences and
their binomial form, circular finite differences, their Fourier transform
identity, and the difference-energy inequality. Each holds for every
sequence, whatever the dynamics, so nothing here imports ``regretsim``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def intermediate_iterate(strategy: np.ndarray, prev_loss: np.ndarray, loss: np.ndarray,
                         eta: float) -> np.ndarray:
    """The auxiliary iterate x~: ``strategy`` * exp(-eta * (loss - prev_loss)), normalized.

    The exponent is shifted by its max first, which changes the result only by
    rounding and keeps exp finite for any finite losses. Inputs are not modified.
    """
    loss, prev_loss = np.asarray(loss, dtype=np.float64), np.asarray(prev_loss, dtype=np.float64)
    exponent = -eta * (loss - prev_loss)
    w = np.asarray(strategy, dtype=np.float64) * np.exp(exponent - exponent.max())
    return w / w.sum()


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


def check_circular_fourier_identity(seq: np.ndarray, h: int) -> float:
    """Max deviation in the transform identity for circular differences.

    The DFT of the level-h circular finite difference equals the DFT of the
    sequence multiplied pointwise by (exp(2 pi i s / S) - 1)^h; returns the
    largest absolute discrepancy over frequencies.
    """
    w = np.asarray(seq, dtype=np.float64)
    s = w.shape[0]
    lhs = np.fft.fft(circular_finite_difference(w, h))
    factor = (np.exp(2j * np.pi * np.arange(s) / s) - 1.0) ** h
    rhs = np.fft.fft(w) * factor
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
