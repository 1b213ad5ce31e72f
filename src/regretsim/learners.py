"""Online learner update rules.

Hedge multiplies each action weight by exp(-eta * loss). The optimistic
variant extrapolates one step ahead, using 2 * loss_t - loss_{t-1} in the
exponent. The adaptive variant starts optimistic and falls back to a safe
sqrt-horizon step size the first time a variance-sum inequality, which holds
under benign self-play, is violated by the observed loss stream.

All updates are functional: a step returns a new state and never mutates its
input. The new weights are x * exp(e), normalized, where the exponent e is
shifted by its max if the learner may use a step size above 1
(``LearnerState.shift``). With losses in [0, 1], e lies in [-2 eta, eta], so
for eta <= 1 each unshifted weight is within a factor e^2 of its shifted
value: exp cannot overflow, and the weights cannot all round to zero. The
step functions also shift an exponent outside [-2, 1], which only a loss
outside [0, 1] can produce; the engine plays only validated games and never
meets one. The step functions are the reference that the self-play engine,
``dynamics._play``, is tested against. The module also holds the variance
helpers, the step-size constants, and the one home of the variance-sum
inequality that the switch test and ``diagnostics`` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

HEDGE = "hedge"
OPT_HEDGE = "opt_hedge"
ADAPTIVE_OPT_HEDGE = "adaptive_opt_hedge"
MODES = (HEDGE, OPT_HEDGE, ADAPTIVE_OPT_HEDGE)

# Earliest round at which the adaptive switch test may fire.
MIN_SWITCH_ROUND = 4

# Default constants for the variance-sum inequality and step-size policy.
# These are the values pinned down by the underlying regret analysis; at desk
# scale they make the additive slack term enormous, so ratio outputs are the
# informative signal.
DEFAULT_C_THM = 14_794_752
DEFAULT_C_PRIME = 165_262


def ceil_log2(t: int) -> int:
    """ceil(log2 t) as an exact integer, clamped to >= 1."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return max(1, int(t - 1).bit_length())


def variance(probs: np.ndarray, values: np.ndarray) -> float:
    """Variance of ``values`` under the distribution ``probs``: ``row_variances`` of one row."""
    p = np.asarray(probs, dtype=np.float64)
    v = np.asarray(values, dtype=np.float64)
    if p.shape != v.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {v.shape}")
    return float(row_variances(p[None], v[None])[0])


def row_variances(probs: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Variance of each row of (T, n) ``values`` under the same row of ``probs``.

    Residuals are anchored at the first coordinate, so a constant row has
    exactly zero variance. Each row is reduced in (1, n) @ (n, 1) products,
    so its result does not depend on the other rows.
    """
    p = np.asarray(probs, dtype=np.float64)[:, None, :]
    v = np.asarray(values, dtype=np.float64)
    r = v - v[:, :1]
    dev = r - (p @ r[:, :, None])[:, 0]
    return (p @ (dev * dev)[:, :, None])[:, 0, 0]


def variance_threshold(c_prime: float, horizon: int) -> float:
    """The additive term c' * ceil(log2 T)^5 of the variance-sum inequality."""
    return c_prime * float(ceil_log2(horizon)) ** 5


def variance_budget(var_prev_sum, threshold):
    """1/2 sum Var[prev loss] + threshold, the bound on sum Var[loss diff]; floats or arrays."""
    return 0.5 * var_prev_sum + threshold


@dataclass(frozen=True)
class LearnerState:
    """One player's online-learner memory.

    ``strategy`` is the current mixed strategy, ``prev_loss`` the loss vector
    observed in the previous round (zeros at round 1). Adaptive bookkeeping
    tracks the two running variance sums, the round at which the step-size
    switch fired (None before), the post-switch step size and the threshold
    of the switch test. ``shift`` is fixed at construction:
    it is set iff a step size the learner can use, ``eta`` or ``eta_post``,
    exceeds 1, and then every step shifts the exponent by its max, so an
    adaptive learner keeps shifting after a switch that lowers its step size.
    """

    strategy: np.ndarray
    prev_loss: np.ndarray
    eta: float
    mode: str
    round: int = 1
    switch_round: int | None = None
    var_delta_sum: float = 0.0
    var_prev_sum: float = 0.0
    eta_post: float | None = None
    switch_threshold: float = math.inf
    shift: bool = True


def init_state(n: int, eta: float, mode: str, horizon: int | None = None,
               c_prime: float = DEFAULT_C_PRIME) -> LearnerState:
    """Fresh learner on n actions: uniform strategy, zero previous loss.

    ``horizon`` (the total number of rounds T) is required for the adaptive
    mode, which needs it for both the switch threshold ``variance_threshold``
    and the post-switch step size sqrt(ln n / T). ``c_prime`` must be >= 0 (not
    NaN); 0 only removes the additive threshold: the switch still needs the summed
    loss-difference variance to exceed half the summed previous-loss variance,
    which may never happen. ``c_prime`` of inf disables the switch. With
    losses in [0, 1], each round adds at most 1 to the loss-difference
    variance sum, so a threshold of 2T or more is never crossed: the default
    ``c_prime`` puts every T <= 2^43 in that case.
    """
    if n < 1:
        raise ValueError(f"action count must be >= 1, got {n}")
    if not eta > 0.0 or not math.isfinite(eta):
        raise ValueError(f"step size must be positive and finite, got {eta}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    eta_post = None
    threshold = math.inf
    if mode == ADAPTIVE_OPT_HEDGE:
        if horizon is None or horizon < 1:
            raise ValueError("adaptive mode needs the run horizon T at construction")
        if not c_prime >= 0.0:
            raise ValueError(f"switch constant must be >= 0, got {c_prime}")
        eta_post = math.sqrt(math.log(n) / horizon) if n > 1 else eta
        threshold = variance_threshold(c_prime, horizon)
    return LearnerState(
        strategy=np.full(n, 1.0 / n),
        prev_loss=np.zeros(n),
        eta=float(eta),
        mode=mode,
        eta_post=eta_post,
        switch_threshold=threshold,
        shift=max(eta, eta_post or 0.0) > 1.0,
    )


def _checked_loss(state: LearnerState, loss: np.ndarray) -> np.ndarray:
    arr = np.asarray(loss, dtype=np.float64)
    if arr.shape != state.strategy.shape:
        raise ValueError(f"loss has shape {arr.shape}, expected {state.strategy.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("loss vector has non-finite entries")
    return arr


def _exp_weights(strategy: np.ndarray, exponent: np.ndarray, shift: bool) -> np.ndarray:
    """strategy * exp(exponent), normalized. With ``shift``, or if the exponent
    leaves [-2, 1], the max exponent is subtracted first, which keeps exp from
    overflowing and changes the result only by rounding. Unshifted is safe in
    [-2, 1], where a step size of at most 1 and losses in [0, 1] keep it (see
    the module docstring); only a loss outside [0, 1] can leave it."""
    if shift or exponent.min() < -2.0 or exponent.max() > 1.0:
        exponent = exponent - exponent.max()
    w = strategy * np.exp(exponent)
    return w / w.sum()


def hedge_step(state: LearnerState, loss: np.ndarray) -> LearnerState:
    """Multiply weights by exp(-eta * loss) and renormalize."""
    arr = _checked_loss(state, loss)
    strategy = _exp_weights(state.strategy, -state.eta * arr, state.shift)
    return replace(state, strategy=strategy, prev_loss=arr.copy(), round=state.round + 1)


def opt_hedge_step(state: LearnerState, loss: np.ndarray) -> LearnerState:
    """Multiply weights by exp(-eta * (2 * loss - prev_loss)) and renormalize."""
    arr = _checked_loss(state, loss)
    strategy = _exp_weights(state.strategy, -state.eta * (2.0 * arr - state.prev_loss),
                            state.shift)
    return replace(state, strategy=strategy, prev_loss=arr.copy(), round=state.round + 1)


def adaptive_opt_hedge_step(state: LearnerState, loss: np.ndarray) -> LearnerState:
    """Optimistic step with the adversarial fallback test.

    Before stepping, both variance sums are extended at the current iterate.
    If the switch has not fired, the round is at least 4, and the running
    loss-difference variance exceeds ``variance_budget``, the step size drops
    to sqrt(ln n / T) for all later rounds; ``opt_hedge_step`` then updates.
    """
    if state.mode != ADAPTIVE_OPT_HEDGE:
        raise ValueError(f"state mode is {state.mode!r}, expected {ADAPTIVE_OPT_HEDGE!r}")
    arr = _checked_loss(state, loss)
    var_delta_sum = state.var_delta_sum + variance(state.strategy, arr - state.prev_loss)
    var_prev_sum = state.var_prev_sum + variance(state.strategy, state.prev_loss)
    state = replace(state, var_delta_sum=var_delta_sum, var_prev_sum=var_prev_sum)
    if (state.switch_round is None and state.round >= MIN_SWITCH_ROUND
            and var_delta_sum > variance_budget(var_prev_sum, state.switch_threshold)):
        state = replace(state, switch_round=state.round, eta=state.eta_post)
    return opt_hedge_step(state, arr)


_STEPS = {
    HEDGE: hedge_step,
    OPT_HEDGE: opt_hedge_step,
    ADAPTIVE_OPT_HEDGE: adaptive_opt_hedge_step,
}


def step(state: LearnerState, loss: np.ndarray) -> LearnerState:
    """Advance one round with the update rule selected by the state's mode."""
    return _STEPS[state.mode](state, loss)


def recommended_eta(m: int, t: int) -> float:
    """Step size 1 / (C * m * log2(T)^4) backed by the polylog regret bound.

    The constant makes this astronomically small at desk scale; see
    ``practical_eta`` for a usable default that carries no such guarantee.
    """
    if m < 2:
        raise ValueError(f"need at least 2 players, got {m}")
    if t < 2:
        raise ValueError(f"need horizon >= 2, got {t}")
    return 1.0 / (DEFAULT_C_THM * m * math.log2(t) ** 4)


def practical_eta(m: int, t: int) -> float:
    """min(0.1, 1 / (m * log2(T)^2)): produces visible dynamics at desk scale.

    Not backed by the polylog regret guarantee; clearly a heuristic.
    """
    if m < 2:
        raise ValueError(f"need at least 2 players, got {m}")
    if t < 2:
        raise ValueError(f"need horizon >= 2, got {t}")
    return min(0.1, 1.0 / (m * math.log2(t) ** 2))
