"""Tests for the Hedge, Optimistic Hedge, and adaptive update rules."""

import math
from dataclasses import replace

import numpy as np
import pytest

from regretsim import (
    Game,
    LearnerConfig,
    adaptive_opt_hedge_step,
    hedge_step,
    init_state,
    named_game,
    opt_hedge_step,
    practical_eta,
    recommended_eta,
    run,
)
from regretsim.learners import (ADAPTIVE_OPT_HEDGE, DEFAULT_C_PRIME, HEDGE, OPT_HEDGE, step,
                                variance_budget, variance_threshold)
from paper_lemmas import intermediate_iterate


def two_action_state(eta=0.1, mode=OPT_HEDGE, **kwargs):
    return init_state(2, eta, mode, **kwargs)


class TestInitState:
    def test_uniform_init(self):
        state = init_state(4, 0.1, OPT_HEDGE)
        np.testing.assert_array_equal(state.strategy, [0.25, 0.25, 0.25, 0.25])
        np.testing.assert_array_equal(state.prev_loss, [0.0] * 4)
        assert state.round == 1
        assert state.switch_round is None and state.var_delta_sum == 0.0

    def test_degenerate_simplex(self):
        state = init_state(1, 0.1, HEDGE)
        np.testing.assert_array_equal(state.strategy, [1.0])

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError):
            init_state(2, -0.1, HEDGE)
        with pytest.raises(ValueError):
            init_state(2, 0.0, HEDGE)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            init_state(2, 0.1, "follow_the_leader")

    def test_adaptive_needs_horizon(self):
        with pytest.raises(ValueError):
            init_state(2, 0.1, ADAPTIVE_OPT_HEDGE)
        state = init_state(2, 0.1, ADAPTIVE_OPT_HEDGE, horizon=1024)
        assert state.eta_post == pytest.approx(math.sqrt(math.log(2) / 1024))


class TestHedgeStep:
    def test_closed_form(self):
        # e^(-0.1) / (e^(-0.1) + 1) for the hit coordinate
        state = two_action_state(eta=0.1, mode=HEDGE)
        new = hedge_step(state, np.array([1.0, 0.0]))
        expected = math.exp(-0.1) / (math.exp(-0.1) + 1.0)
        assert new.strategy[0] == pytest.approx(expected, abs=1e-12)
        assert new.strategy[0] == pytest.approx(0.475021, abs=1e-6)
        assert new.strategy[1] == pytest.approx(0.524979, abs=1e-6)
        assert new.round == 2
        np.testing.assert_array_equal(new.prev_loss, [1.0, 0.0])

    def test_constant_loss_no_move(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(5))
        state = replace(init_state(5, 0.3, HEDGE), strategy=probs)
        new = hedge_step(state, np.full(5, 0.7))
        np.testing.assert_allclose(new.strategy, probs, atol=1e-15)

    def test_point_mass_absorbing(self):
        state = replace(init_state(2, 0.5, HEDGE), strategy=np.array([1.0, 0.0]))
        new = hedge_step(state, np.array([0.9, 0.1]))
        np.testing.assert_array_equal(new.strategy, [1.0, 0.0])

    def test_rejects_bad_loss(self):
        state = two_action_state(mode=HEDGE)
        with pytest.raises(ValueError):
            hedge_step(state, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            hedge_step(state, np.array([np.inf, 0.0]))


class TestOptHedgeStep:
    def test_closed_form(self):
        # zero previous loss doubles the exponent: e^(-0.2) / (e^(-0.2) + 1)
        state = two_action_state(eta=0.1)
        new = opt_hedge_step(state, np.array([1.0, 0.0]))
        expected = math.exp(-0.2) / (math.exp(-0.2) + 1.0)
        assert new.strategy[0] == pytest.approx(expected, abs=1e-12)
        assert new.strategy[0] == pytest.approx(0.450166, abs=1e-6)
        assert new.strategy[1] == pytest.approx(0.549834, abs=1e-6)

    def test_constant_extrapolated_loss_no_move(self):
        c = np.full(3, 0.4)
        state = replace(init_state(3, 0.2, OPT_HEDGE),
                        strategy=np.array([0.2, 0.3, 0.5]), prev_loss=c.copy())
        new = opt_hedge_step(state, c)
        np.testing.assert_allclose(new.strategy, [0.2, 0.3, 0.5], atol=1e-15)

    def test_equal_losses_reduce_to_hedge(self):
        rng = np.random.default_rng(1)
        loss = rng.random(4)
        base = replace(init_state(4, 0.15, OPT_HEDGE),
                       strategy=rng.dirichlet(np.ones(4)), prev_loss=loss.copy())
        opt = opt_hedge_step(base, loss)
        hedge = hedge_step(replace(base, mode=HEDGE), loss)
        np.testing.assert_allclose(opt.strategy, hedge.strategy, atol=1e-15)

    def test_zero_prev_equals_hedge_with_doubled_loss(self):
        rng = np.random.default_rng(2)
        loss = rng.random(3)
        state = init_state(3, 0.07, OPT_HEDGE)
        opt = opt_hedge_step(state, loss)
        hedge = hedge_step(init_state(3, 0.07, HEDGE), 2.0 * loss)
        np.testing.assert_allclose(opt.strategy, hedge.strategy, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        prev = rng.random(4)
        loss = rng.random(4)
        state = replace(init_state(4, 0.2, OPT_HEDGE),
                        strategy=rng.dirichlet(np.ones(4)), prev_loss=prev)
        shifted = replace(state, prev_loss=prev + 0.37)
        a = opt_hedge_step(state, loss)
        b = opt_hedge_step(shifted, loss + 0.37)
        np.testing.assert_allclose(a.strategy, b.strategy, atol=1e-12)

    def test_simplex_preserved_over_long_runs(self):
        rng = np.random.default_rng(4)
        state = init_state(6, 0.4, OPT_HEDGE)
        for _ in range(500):
            state = opt_hedge_step(state, rng.random(6))
            assert np.all(state.strategy > 0.0)
            assert state.strategy.sum() == pytest.approx(1.0, abs=1e-12)

    def test_consecutive_closeness_bound(self):
        rng = np.random.default_rng(5)
        eta = 0.25
        state = init_state(4, eta, OPT_HEDGE)
        bound = math.exp(6.0 * eta)
        for _ in range(200):
            new = opt_hedge_step(state, rng.random(4))
            ratio = max((new.strategy / state.strategy).max(),
                        (state.strategy / new.strategy).max())
            assert ratio <= bound
            state = new

    def test_overflow_safe_at_huge_eta(self):
        state = init_state(3, 800.0, OPT_HEDGE)
        new = opt_hedge_step(state, np.array([1.0, 0.0, 0.5]))
        assert np.all(np.isfinite(new.strategy))
        assert new.strategy.sum() == pytest.approx(1.0, abs=1e-12)


class TestExponentShift:
    """The max shift of the exponent is taken iff a usable step size exceeds 1."""

    def states(self, eta):
        rng = np.random.default_rng(8)
        strategy = rng.dirichlet(np.ones(4))
        prev, loss = rng.random(4), rng.random(4)
        for mode in (HEDGE, OPT_HEDGE, ADAPTIVE_OPT_HEDGE):
            state = replace(init_state(4, eta, mode, horizon=64, c_prime=math.inf),
                            strategy=strategy, prev_loss=prev)
            exponent = -eta * (loss if mode == HEDGE else 2.0 * loss - prev)
            yield state, loss, exponent

    def test_flag_fixed_at_construction(self):
        assert not init_state(3, 1.0, OPT_HEDGE).shift
        assert init_state(3, np.nextafter(1.0, 2.0), HEDGE).shift
        # sqrt(ln 3 / 1) > 1: the post-switch step size alone asks for the shift
        assert init_state(3, 0.5, ADAPTIVE_OPT_HEDGE, horizon=1).shift
        assert not init_state(3, 0.5, ADAPTIVE_OPT_HEDGE, horizon=64).shift
        # a step size above 1 keeps the shift after a switch to sqrt(ln 2 / T) < 1
        state = init_state(2, 2.0, ADAPTIVE_OPT_HEDGE, horizon=64, c_prime=0.0)
        for t in range(16):
            state = adaptive_opt_hedge_step(state, np.array([float(t % 2), 0.0]))
        assert state.switch_round is not None and state.eta < 1.0 and state.shift

    def test_unshifted_at_most_one(self):
        for eta in (0.3, 1.0):
            for state, loss, exponent in self.states(eta):
                w = state.strategy * np.exp(exponent)
                assert np.array_equal(step(state, loss).strategy, w / w.sum()), state.mode

    def test_shifted_above_one(self):
        for eta in (np.nextafter(1.0, 2.0), 3.0):
            for state, loss, exponent in self.states(eta):
                w = state.strategy * np.exp(exponent - exponent.max())
                assert np.array_equal(step(state, loss).strategy, w / w.sum()), state.mode

    def test_losses_outside_the_unit_interval_are_shifted(self):
        # at eta = 1 a loss of +-800 puts the exponent far outside [-2, 1], where
        # exp alone would overflow or round every weight to zero
        loss = np.array([0.5, 0.2])
        for big in (800.0, -800.0):
            for mode in (HEDGE, OPT_HEDGE, ADAPTIVE_OPT_HEDGE):
                state = step(init_state(2, 1.0, mode, horizon=64), np.array([big, big]))
                assert np.array_equal(state.strategy, [0.5, 0.5]), (mode, big)
                if mode == HEDGE:
                    continue
                # the next exponents hold the previous loss of +-800
                tilde = intermediate_iterate(state.strategy, state.prev_loss, loss, state.eta)
                for exponent, new in ((-(2.0 * loss - big), step(state, loss).strategy),
                                      (-(loss - big), tilde)):
                    w = state.strategy * np.exp(exponent - exponent.max())
                    assert np.array_equal(new, w / w.sum()), (mode, big)
                    assert np.all(np.isfinite(new)), (mode, big)

    def test_alternating_losses_stay_finite_at_one(self):
        for mode in (HEDGE, OPT_HEDGE):
            state = init_state(2, 1.0, mode)
            for t in range(10**4):
                state = step(state, np.array([float(t % 2), float(1 - t % 2)]))
            assert np.all(np.isfinite(state.strategy)) and np.all(state.strategy > 0.0)
            assert state.strategy.sum() == pytest.approx(1.0, abs=1e-12)


class TestIntermediateIterate:
    def test_equal_losses_fixed_point(self):
        rng = np.random.default_rng(6)
        loss = rng.random(3)
        state = replace(init_state(3, 0.1, OPT_HEDGE),
                        strategy=rng.dirichlet(np.ones(3)), prev_loss=loss.copy())
        tilde = intermediate_iterate(state.strategy, state.prev_loss, loss, state.eta)
        np.testing.assert_allclose(tilde, state.strategy, atol=1e-15)

    def test_closed_form_with_zero_prev(self):
        state = two_action_state(eta=0.1)
        tilde = intermediate_iterate(state.strategy, state.prev_loss, [1.0, 0.0], state.eta)
        assert tilde[0] == pytest.approx(0.475021, abs=1e-6)
        assert tilde[1] == pytest.approx(0.524979, abs=1e-6)

    def test_does_not_mutate_state(self):
        state = two_action_state(eta=0.1)
        before = state.strategy.copy()
        intermediate_iterate(state.strategy, state.prev_loss, [0.3, 0.9], state.eta)
        np.testing.assert_array_equal(state.strategy, before)
        assert state.round == 1

    def test_always_a_distribution(self):
        rng = np.random.default_rng(7)
        state = init_state(5, 0.8, OPT_HEDGE)
        for _ in range(50):
            loss = rng.random(5)
            tilde = intermediate_iterate(state.strategy, state.prev_loss, loss, state.eta)
            assert np.all(tilde > 0.0)
            assert tilde.sum() == pytest.approx(1.0, abs=1e-12)
            state = opt_hedge_step(state, loss)


class TestAdaptiveOptHedge:
    def test_zero_losses_never_switch(self):
        state = init_state(2, 0.1, ADAPTIVE_OPT_HEDGE, horizon=256)
        for _ in range(256):
            state = adaptive_opt_hedge_step(state, np.zeros(2))
        assert state.switch_round is None
        assert state.var_delta_sum == 0.0 and state.var_prev_sum == 0.0

    def test_no_switch_before_round_four(self):
        # with the threshold constant forced to 0 the test fires at the first
        # eligible round, which must still be >= 4
        state = init_state(2, 0.1, ADAPTIVE_OPT_HEDGE, horizon=64, c_prime=0.0)
        losses = [np.array([1.0, 0.0]), np.array([0.0, 1.0])] * 32
        rounds_seen = []
        for loss in losses:
            state = adaptive_opt_hedge_step(state, loss)
            if state.switch_round is not None and not rounds_seen:
                rounds_seen.append(state.switch_round)
        assert rounds_seen == [4]

    def test_engine_switches_at_round_four(self):
        # Player 0's loss is (1, 0) whatever player 1 (one action) plays. At eta = 1/2
        # the loss-difference variance sum is Var[loss_1] = 1/4 from round 1 on, and
        # half the previous-loss sum stays below it, so a zero threshold fires the
        # test at the first eligible round, in the engine and in the step functions.
        game = Game(2, (2, 1), (np.array([[1.0], [0.0]]), np.zeros((2, 1))))
        configs = [LearnerConfig(mode=ADAPTIVE_OPT_HEDGE, eta=0.5, c_prime=0.0),
                   LearnerConfig(eta=0.5)]
        traj = run(game, configs, 16)
        assert traj.metadata.switch_rounds == (4, None)
        state = init_state(2, 0.5, ADAPTIVE_OPT_HEDGE, horizon=16, c_prime=0.0)
        for loss in traj.losses[0]:
            state = adaptive_opt_hedge_step(state, loss)
        assert state.switch_round == 4

    def test_switch_threshold_hand_value(self):
        # c' * ceil(log2 T)^5 with c' = 2 and T = 2^10
        state = init_state(2, 0.1, ADAPTIVE_OPT_HEDGE, horizon=1024, c_prime=2.0)
        assert state.switch_threshold == 2.0 * 10**5

    def test_forced_switch_at_constructed_round(self):
        # constant losses keep both variance sums at zero; the first
        # non-constant vector at round 100 violates the zero-threshold test
        horizon = 256
        state = init_state(2, 0.1, ADAPTIVE_OPT_HEDGE, horizon=horizon, c_prime=0.0)
        flat = np.full(2, 0.3)
        spike = np.array([1.0, 0.0])
        vd = vp = 0.0
        for t in range(1, 151):
            loss = spike if t == 100 else flat
            # brute-force oracle for both running sums at the current iterate
            p = state.strategy
            mean_d = float(p @ (loss - state.prev_loss))
            vd += float(p @ ((loss - state.prev_loss) - mean_d) ** 2)
            mean_p = float(p @ state.prev_loss)
            vp += float(p @ (state.prev_loss - mean_p) ** 2)
            state = adaptive_opt_hedge_step(state, loss)
            assert state.var_delta_sum == pytest.approx(vd, rel=1e-12, abs=1e-15)
            assert state.var_prev_sum == pytest.approx(vp, rel=1e-12, abs=1e-15)
        assert state.switch_round == 100
        assert state.eta == pytest.approx(math.sqrt(math.log(2) / horizon))

    def test_switch_fires_at_most_once(self):
        rng = np.random.default_rng(8)
        state = init_state(2, 0.1, ADAPTIVE_OPT_HEDGE, horizon=128, c_prime=0.0)
        first = None
        for _ in range(128):
            state = adaptive_opt_hedge_step(state, rng.random(2))
            if state.switch_round is not None and first is None:
                first = state.switch_round
        assert first is not None and state.switch_round == first

    def test_disabled_switch_matches_opt_hedge_bitwise(self):
        rng = np.random.default_rng(9)
        adaptive = init_state(3, 0.2, ADAPTIVE_OPT_HEDGE, horizon=64, c_prime=math.inf)
        plain = init_state(3, 0.2, OPT_HEDGE)
        for _ in range(64):
            loss = rng.random(3)
            adaptive = adaptive_opt_hedge_step(adaptive, loss)
            plain = opt_hedge_step(plain, loss)
            assert np.array_equal(adaptive.strategy, plain.strategy)

    def test_variance_sums_nondecreasing(self):
        rng = np.random.default_rng(10)
        state = init_state(2, 0.1, ADAPTIVE_OPT_HEDGE, horizon=64)
        prev = (0.0, 0.0)
        for _ in range(64):
            state = adaptive_opt_hedge_step(state, rng.random(2))
            assert state.var_delta_sum >= prev[0]
            assert state.var_prev_sum >= prev[1]
            prev = (state.var_delta_sum, state.var_prev_sum)

    def test_mode_mismatch_rejected(self):
        state = init_state(2, 0.1, OPT_HEDGE)
        with pytest.raises(ValueError):
            adaptive_opt_hedge_step(state, np.zeros(2))


class TestStepSizePolicies:
    def test_theorem_value_at_2_16(self):
        eta = recommended_eta(2, 2**16)
        assert eta == pytest.approx(1.0 / (14794752 * 2 * 16**4), rel=1e-12)
        assert eta == pytest.approx(5.157e-13, rel=1e-3)

    def test_theorem_value_at_t_two(self):
        assert recommended_eta(2, 2) == pytest.approx(1.0 / (2 * 14794752), rel=1e-12)

    def test_practical_value(self):
        assert practical_eta(2, 2**10) == pytest.approx(0.005, abs=1e-15)
        assert practical_eta(2, 2**2) == pytest.approx(0.1, abs=1e-15)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            recommended_eta(1, 1024)
        with pytest.raises(ValueError):
            recommended_eta(2, 1)
        with pytest.raises(ValueError):
            practical_eta(1, 1024)

    def test_theorem_value_uses_the_default_constant(self):
        # log2(4)^4 = 16, exactly
        assert recommended_eta(2, 4) == 1.0 / (14794752 * 2 * 16.0)


class TestVarianceInequality:
    """The one formula behind the adaptive switch and the diagnostics audit."""

    def test_threshold_hand_values(self):
        assert variance_threshold(1.0, 2**12) == 12.0**5
        assert variance_threshold(1.0, 5) == 3.0**5
        assert variance_threshold(1.0, 1) == 1.0
        assert variance_threshold(DEFAULT_C_PRIME, 2**10) == 165262 * 10.0**5
        assert variance_threshold(0.0, 2**10) == 0.0
        assert variance_threshold(math.inf, 2**10) == math.inf

    def test_budget_hand_values(self):
        assert variance_budget(0.5, 2.0) == 2.25
        assert variance_budget(0.0, 0.0) == 0.0
        budget = variance_budget(np.array([0.0, 0.5, 3.0]), 2.0)
        np.testing.assert_array_equal(budget, [2.0, 2.25, 3.5])

    def test_nan_switch_constant_rejected(self):
        # NaN fails every comparison, so a "< 0" guard would let it through and the
        # NaN threshold would silently keep the switch from ever firing
        with pytest.raises(ValueError):
            init_state(2, 0.5, ADAPTIVE_OPT_HEDGE, horizon=16, c_prime=math.nan)
        with pytest.raises(ValueError):
            run(named_game("rock_paper_scissors"),
                [LearnerConfig(ADAPTIVE_OPT_HEDGE, 0.5, math.nan)] * 2, 16)
        with pytest.raises(ValueError):
            init_state(2, 0.5, ADAPTIVE_OPT_HEDGE, horizon=16, c_prime=-1.0)
