"""The separation between Optimistic Hedge and Hedge in self-play, on games that can show it.

Every game here is a random 3x3 or 3x3x3 game that, by enumeration, has no pure
Nash equilibrium. On a game with one the dynamics converge and Reg_i(T) tends
to ln n / eta whatever the learner, and on an exact fixed point (matching
pennies, rock-paper-scissors) regret is 0; neither regime tells the learners
apart.

The bound is the RVU theorem of Syrgkanis, Agarwal, Luo and Schapire (Fast
convergence of regularized learning in games, NeurIPS 2015, Theorem 4): if each
of m players runs an algorithm with regret bounded by
alpha + beta * sum ||l_t - l_{t-1}||^2 - gamma * sum ||x_t - x_{t-1}||^2 and
beta <= gamma / (m - 1)^2, then sum_i Reg_i(T) <= m * alpha at every T.
Optimistic Hedge with step eta has alpha = ln n / eta, beta = eta and
gamma = 1 / (4 eta), so the condition is eta <= 1 / (2 (m - 1)), and the
bound holds at eta = 0.1 for m = 2 and 3. Hedge carries no such bound: its
regret grows with T.
"""

import itertools
import math

import numpy as np
import pytest

from regretsim import LearnerConfig, batch_run, named_game, random_game

ETA = 0.1
HORIZONS = (2**10, 2**12, 2**14)
# Every seed of random_game(m, (3,) * m, seed) below SEED_RANGE[m] whose game
# has no pure Nash equilibrium.
SEED_RANGE = {2: 100, 3: 50}
SEEDS = {
    2: [2, 11, 14, 18, 21, 37, 41, 46, 50, 52, 53, 54, 61, 63, 64, 70, 80, 82, 92, 95],
    3: [0, 2, 6, 8, 12, 19, 21, 23, 26, 27, 29, 30, 32, 34, 35, 36, 37, 42, 47, 48],
}


def game_source(m):
    return lambda seed: random_game(m, (3,) * m, seed)


def has_pure_equilibrium(game) -> bool:
    """Whether some joint action leaves no player a strictly better deviation."""
    best = [tensor == tensor.min(axis=i, keepdims=True)
            for i, tensor in enumerate(game.loss_tensors)]
    return bool(np.logical_and.reduce(best).any())


def rvu_bound(m: int, n: int, eta: float) -> float:
    """m * ln n / eta, the bound on sum_i Reg_i(T), for eta <= 1 / (2 (m - 1))."""
    assert eta <= 1.0 / (2 * (m - 1))
    return m * math.log(n) / eta


@pytest.fixture(scope="module", params=sorted(SEEDS))
def family(request):
    """(m, {(mode, T): [per-game regrets]}) for one family, each learner in self-play."""
    m = request.param
    regrets = {}
    for mode, horizon in itertools.product(("hedge", "opt_hedge"), HORIZONS):
        results = batch_run(game_source(m), SEEDS[m], [LearnerConfig(mode=mode, eta=ETA)] * m,
                            horizon)
        regrets[mode, horizon] = [r.total_regrets for r in results]
    return m, regrets


@pytest.mark.parametrize("m", sorted(SEEDS))
def test_games_have_no_pure_equilibrium(m):
    source = game_source(m)
    seeds = [seed for seed in range(SEED_RANGE[m]) if not has_pure_equilibrium(source(seed))]
    assert seeds == SEEDS[m]


def test_pure_equilibrium_check():
    assert has_pure_equilibrium(named_game("prisoners_dilemma_rescaled"))
    assert has_pure_equilibrium(named_game("coordination_2x2"))
    assert not has_pure_equilibrium(named_game("matching_pennies"))
    assert not has_pure_equilibrium(named_game("rock_paper_scissors"))


def test_opt_hedge_sum_of_regrets_within_rvu_bound(family):
    m, regrets = family
    bound = rvu_bound(m, 3, ETA)
    over = [(seed, horizon, sum(r)) for horizon in HORIZONS
            for seed, r in zip(SEEDS[m], regrets["opt_hedge", horizon]) if sum(r) > bound]
    assert over == [], f"sum of regrets above m ln n / eta = {bound:.4g}"


def test_hedge_regret_grows_and_breaks_the_bound(family):
    m, regrets = family
    medians = [float(np.median([max(r) for r in regrets["hedge", horizon]]))
               for horizon in HORIZONS]
    assert all(a < b for a, b in zip(medians, medians[1:])), medians
    worst = max(sum(r) for r in regrets["hedge", HORIZONS[-1]])
    assert worst > rvu_bound(m, 3, ETA), worst
