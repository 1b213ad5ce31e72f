"""Tests for the trajectory audits: finite differences and their decay profile,
consecutive closeness, and the regret-bound and variance-inequality audits; and for
the sequence identities behind the paper's lemmas, which live in ``paper_lemmas``."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from regretsim import (
    LearnerConfig,
    regret_bound_terms,
    check_variance_inequality,
    consecutive_closeness,
    fd_decay_profile,
    init_state,
    named_game,
    opt_hedge_step,
    random_game,
    regret,
    run,
    variance,
)
from regretsim.diagnostics import (
    AUDIT_BLOCK_ROWS,
    check_audit_learners,
    closeness_bound,
    _variance_sums,
)
from regretsim.dynamics import RunMetadata, Trajectory, _reduce_rows
from regretsim.export import fd_profile_norms_csv, fd_profile_values_csv
from regretsim.learners import ceil_log2, row_variances
from regretsim.game import Game
from paper_lemmas import (check_circular_fourier_identity, check_freq_cauchy,
                          circular_finite_difference, divergences, finite_difference,
                          finite_difference_binomial, intermediate_iterate, local_norms)


def dft_matrix(s):
    """Matrix of the DFT definition: entry (k, t) is exp(-2 pi i k t / S)."""
    k = np.arange(s)
    return np.exp(-2j * np.pi * np.outer(k, k) / s)


def brute_variance(p, v):
    mean = sum(pi * vi for pi, vi in zip(p, v))
    return sum(pi * (vi - mean) ** 2 for pi, vi in zip(p, v))


def bound_terms(traj, i):
    """Player i's bound terms, with Reg_i(T) from the regret report as the CLI passes it."""
    return regret_bound_terms(traj, regret(traj, i))


class TestCeilLog2:
    def test_values(self):
        assert ceil_log2(1) == 1
        assert ceil_log2(2) == 1
        assert ceil_log2(3) == 2
        assert ceil_log2(4) == 2
        assert ceil_log2(5) == 3
        assert ceil_log2(2**12) == 12
        assert ceil_log2(2**12 + 1) == 13

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            ceil_log2(0)


class TestVariance:
    def test_symmetric_two_point(self):
        assert variance([0.5, 0.5], [0.0, 1.0]) == pytest.approx(0.25, abs=1e-15)

    def test_constant_vector(self):
        assert variance([0.3, 0.2, 0.5], [0.7, 0.7, 0.7]) == 0.0

    def test_skewed(self):
        # E[v^2] - (E[v])^2 = 0.25 - 0.0625
        assert variance([0.25, 0.75], [1.0, 0.0]) == pytest.approx(0.1875, abs=1e-15)

    def test_shift_and_scale(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            v = rng.normal(size=5)
            assert variance(p, v + 3.7) == pytest.approx(variance(p, v), rel=1e-12, abs=1e-15)
            assert variance(p, 2.5 * v) == pytest.approx(6.25 * variance(p, v), rel=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            v = rng.random(4)
            assert variance(p, v) == pytest.approx(brute_variance(p, v), rel=1e-12, abs=1e-15)

    def test_row_variances_match_scalar_path(self):
        # bit for bit: the audits and the adaptive switch test share these rows
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(3), size=20)
        values = rng.random((20, 3))
        cases = [(probs, values)] + [(rng.dirichlet(np.ones(n), size=9), rng.random((9, n)))
                                     for n in (1, 5)]
        for probs, values in cases:
            rows = row_variances(probs, values)
            assert rows.tolist() == [variance(p, v) for p, v in zip(probs, values)]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            variance([0.5, 0.5], [1.0, 0.0, 0.0])


class TestLocalNorms:
    def test_uniform_ones(self):
        primal, dual = local_norms([0.5, 0.5], [1.0, 1.0])
        assert primal == pytest.approx(1.0, abs=1e-15)
        assert dual == pytest.approx(2.0, abs=1e-15)

    def test_zero_vector(self):
        assert local_norms([0.25, 0.75], [0.0, 0.0]) == (0.0, 0.0)

    def test_zero_probability_with_mass(self):
        with pytest.raises(ZeroDivisionError):
            local_norms([1.0, 0.0], [0.0, 1.0])

    def test_dual_norm_squared_equals_chi2_identity(self):
        # chi2(x_tilde; x) equals the squared dual norm of x - x_tilde at x
        rng = np.random.default_rng(3)
        state = init_state(5, 0.3, "opt_hedge")
        for _ in range(50):
            loss = rng.random(5)
            tilde = intermediate_iterate(state.strategy, state.prev_loss, loss, state.eta)
            _, dual = local_norms(state.strategy, state.strategy - tilde)
            chi2 = divergences(tilde, state.strategy).chi2
            assert dual**2 == pytest.approx(chi2, rel=1e-10, abs=1e-15)
            state = opt_hedge_step(state, loss)


class TestDivergences:
    def test_equal_distributions(self):
        values = divergences([0.4, 0.6], [0.4, 0.6])
        assert values.kl == 0.0 and values.chi2 == 0.0

    def test_half_half_vs_quarter(self):
        values = divergences([0.5, 0.5], [0.25, 0.75])
        assert values.kl == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-12)
        assert values.kl == pytest.approx(0.143841, abs=1e-6)
        assert values.chi2 == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_point_mass_vs_uniform(self):
        values = divergences([1.0, 0.0], [0.5, 0.5])
        assert values.kl == pytest.approx(math.log(2.0), rel=1e-12)
        assert values.chi2 == pytest.approx(1.0, rel=1e-12)

    def test_infinite_signal(self):
        values = divergences([0.5, 0.5], [1.0, 0.0])
        assert math.isinf(values.kl) and math.isinf(values.chi2)

    def test_kl_below_chi2(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            n = int(rng.integers(2, 11))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            values = divergences(p, q)
            assert values.kl <= values.chi2 + 1e-12


class TestFiniteDifference:
    def test_triangular_numbers(self):
        np.testing.assert_array_equal(finite_difference([1.0, 3.0, 6.0, 10.0], 2), [1.0, 1.0])

    def test_order_zero_identity(self):
        seq = [2.0, 7.0, 1.0]
        np.testing.assert_array_equal(finite_difference(seq, 0), seq)

    def test_vector_sequences_componentwise(self):
        rng = np.random.default_rng(5)
        seq = rng.random((12, 3))
        for h in range(5):
            full = finite_difference(seq, h)
            for j in range(3):
                np.testing.assert_array_equal(full[:, j], finite_difference(seq[:, j], h))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            finite_difference([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            finite_difference([1.0, 2.0], -1)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        a, b = 1.7, -0.4
        seq1 = rng.random((30, 2))
        seq2 = rng.random((30, 2))
        for h in (1, 3, 6):
            lhs = finite_difference(a * seq1 + b * seq2, h)
            rhs = a * finite_difference(seq1, h) + b * finite_difference(seq2, h)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)


class TestBinomialForm:
    def test_triangular_example(self):
        seq = [1.0, 3.0, 6.0, 10.0]
        assert finite_difference_binomial(seq, 2, 0) == pytest.approx(1.0)
        assert finite_difference_binomial(seq, 2, 1) == pytest.approx(1.0)

    def test_first_order_is_difference(self):
        seq = [4.0, 9.0, 2.0]
        assert finite_difference_binomial(seq, 1, 0) == pytest.approx(5.0)
        assert finite_difference_binomial(seq, 1, 1) == pytest.approx(-7.0)

    def test_matches_recursive_on_length_20(self):
        rng = np.random.default_rng(7)
        seq = rng.random(20)
        for h in range(20):
            rec = finite_difference(seq, h)
            for t in range(20 - h):
                assert finite_difference_binomial(seq, h, t) == pytest.approx(
                    rec[t], rel=1e-9, abs=1e-12)

    def test_matches_recursive_random_lengths(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            length = int(rng.integers(9, 65))
            seq = rng.normal(size=length)
            for h in range(9):
                rec = finite_difference(seq, h)
                for t in range(length - h):
                    assert finite_difference_binomial(seq, h, t) == pytest.approx(
                        rec[t], rel=1e-9, abs=1e-9)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            finite_difference_binomial([1.0, 2.0, 3.0], 1, 2)


class TestCircularFiniteDifference:
    def test_constant_sequence(self):
        np.testing.assert_array_equal(
            circular_finite_difference([3.0] * 5, 1), np.zeros(5))

    def test_alternating(self):
        np.testing.assert_array_equal(
            circular_finite_difference([0.0, 1.0, 0.0, 1.0], 1), [1.0, -1.0, 1.0, -1.0])

    def test_wrap_entry(self):
        out = circular_finite_difference([1.0, 2.0, 4.0], 1)
        np.testing.assert_array_equal(out, [1.0, 2.0, -3.0])

    def test_prefix_agrees_with_plain(self):
        rng = np.random.default_rng(9)
        seq = rng.random(17)
        for h in (1, 2, 3):
            circ = circular_finite_difference(seq, h)
            plain = finite_difference(seq, h)
            np.testing.assert_allclose(circ[: 17 - h], plain, atol=1e-12)

    def test_length_preserved(self):
        assert circular_finite_difference(np.arange(6.0), 4).shape == (6,)


class TestDft:
    def test_impulse(self):
        np.testing.assert_allclose(np.fft.fft([1.0, 0.0, 0.0, 0.0]), np.ones(4), atol=1e-12)

    def test_constant(self):
        out = np.fft.fft(np.full(5, 2.0))
        np.testing.assert_allclose(out[0], 10.0, atol=1e-12)
        np.testing.assert_allclose(out[1:], 0.0, atol=1e-12)

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(10)
        w = rng.normal(size=17)
        spec = np.fft.fft(w)
        for s in range(1, 17):
            assert spec[17 - s] == pytest.approx(np.conjugate(spec[s]), abs=1e-10)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for length in (4, 17, 64, 1024):
            w = rng.normal(size=length)
            back = np.fft.ifft(np.fft.fft(w))
            np.testing.assert_allclose(back.real, w, rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(back.imag, 0.0, atol=1e-10)

    def test_direct_and_fast_agree(self):
        # the O(S^2) definition is the oracle; 17 is not a power of two
        rng = np.random.default_rng(12)
        for length in (4, 17, 64, 1024):
            w = rng.normal(size=length)
            matrix = dft_matrix(length)
            direct = matrix @ w
            scale = np.abs(direct).max()
            np.testing.assert_allclose(np.fft.fft(w), direct, atol=1e-10 * scale)
            np.testing.assert_allclose(np.fft.ifft(direct), np.conjugate(matrix) @ direct / length,
                                       atol=1e-10 * scale)

    def test_parseval(self):
        rng = np.random.default_rng(13)
        for length in (4, 17, 64, 1024):
            w = rng.normal(size=length)
            spec = np.fft.fft(w)
            lhs = float(np.sum(w * w))
            rhs = float(np.sum(np.abs(spec) ** 2)) / length
            assert rhs == pytest.approx(lhs, rel=1e-10)


class TestFourierCircularFact:
    def test_order_zero(self):
        rng = np.random.default_rng(14)
        assert check_circular_fourier_identity(rng.random(10), 0) <= 1e-12

    @pytest.mark.parametrize("h", [1, 2])
    def test_random_length_64(self, h):
        rng = np.random.default_rng(15 + h)
        w = rng.normal(size=64)
        scale = float(np.linalg.norm(np.fft.fft(w)))
        assert check_circular_fourier_identity(w, h) <= 1e-10 * scale


class TestFreqCauchy:
    def test_constant_sequence_degenerate(self):
        report = check_freq_cauchy(np.full(8, 1.3))
        assert report.degenerate
        assert report.conclusion_holds

    def test_alternating_exact_sums(self):
        w = np.array([0.0, 1.0] * 4)
        report = check_freq_cauchy(w)
        # brute-force circular recursion: D1 = (+-1)^8, D2 = (+-2)^8
        assert report.sum_d1_sq == 8.0
        assert report.sum_d2_sq == 32.0
        assert report.sum_w_sq == 4.0
        assert report.alpha == 4.0
        assert report.premise_holds and report.conclusion_holds
        assert report.conclusion_slack == pytest.approx(8.0)

    def test_brute_force_sums(self):
        rng = np.random.default_rng(16)
        w = rng.random(11)
        d1 = [w[(t + 1) % 11] - w[t] for t in range(11)]
        d2 = [d1[(t + 1) % 11] - d1[t] for t in range(11)]
        report = check_freq_cauchy(w)
        assert report.sum_d1_sq == pytest.approx(sum(x * x for x in d1), rel=1e-12)
        assert report.sum_d2_sq == pytest.approx(sum(x * x for x in d2), rel=1e-12)

    def test_conclusion_holds_at_premise_ratio(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            length = int(rng.integers(3, 257))
            w = rng.normal(size=length)
            report = check_freq_cauchy(w, alpha=None, mu=0.0)
            assert report.premise_slack == pytest.approx(0.0, abs=1e-9)
            assert report.conclusion_slack >= -1e-10

    def test_explicit_alpha_and_mu(self):
        w = np.array([0.0, 1.0] * 4)
        report = check_freq_cauchy(w, alpha=2.0, mu=16.0)
        # premise: 32 <= 2 * 8 + 16 (tight); conclusion: 8 <= 2 * 4 + 8
        assert report.premise_holds and report.premise_slack == pytest.approx(0.0)
        assert report.conclusion_holds and report.conclusion_slack == pytest.approx(8.0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            check_freq_cauchy(np.arange(4.0), alpha=-1.0)


class TestConsecutiveCloseness:
    def test_constant_sequence(self):
        report = consecutive_closeness(np.tile([0.3, 0.7], (5, 1)))
        assert report.zeta_observed == 0.0

    def test_two_step_worst_ratio(self):
        # the binding ratio is 0.5 / 0.45 on the second coordinate
        report = consecutive_closeness(np.array([[0.5, 0.5], [0.55, 0.45]]))
        assert report.zeta_observed == pytest.approx(0.5 / 0.45 - 1.0, rel=1e-12)
        assert report.worst_coordinate == 1
        # the JSON form is 1-indexed: step 1 is the move from round 1 to round 2
        assert report.to_dict()["worst_coordinate"] == 2
        assert report.to_dict()["worst_step"] == 1

    def test_single_round_has_no_step(self):
        report = consecutive_closeness(np.array([[0.5, 0.5]]))
        assert (report.worst_step, report.worst_coordinate) == (-1, -1)
        assert report.to_dict() == {"zeta_observed": 0.0, "worst_step": None,
                                    "worst_coordinate": None}

    def test_zero_coordinate_infinite(self):
        report = consecutive_closeness(np.array([[1.0, 0.0], [0.5, 0.5]]))
        assert math.isinf(report.zeta_observed)
        assert report.to_dict()["zeta_observed"] is None  # strict JSON has no infinity

    def test_opt_hedge_run_within_bound(self):
        eta = 0.05
        game = random_game(2, (2, 2), seed=21)
        traj = run(game, [LearnerConfig(eta=eta)] * 2, 500)
        for i in range(2):
            report = consecutive_closeness(traj.strategies[i])
            assert report.zeta_observed <= math.exp(6.0 * eta) - 1.0

    def test_bound_hand_values(self):
        assert closeness_bound(0.5) == math.exp(3.0) - 1.0
        # 6 * 0.1 rounds to 0.6000000000000001, one ulp above 0.6
        assert closeness_bound(0.1) == pytest.approx(math.exp(0.6) - 1.0, rel=1e-15)
        assert math.isfinite(closeness_bound(118.29))  # exp(709.74), just inside the doubles
        assert closeness_bound(200.0) is None


def constant_game(c=0.4):
    tensors = tuple(np.full((2, 2), c) for _ in range(2))
    return Game(2, (2, 2), tensors, name="constant")


class TestBoundTerms:
    def test_constant_losses(self):
        traj = run(constant_game(), [LearnerConfig(eta=0.05)] * 2, 64)
        breakdown = bound_terms(traj, 0)
        assert breakdown.lhs == pytest.approx(0.0, abs=1e-12)
        assert breakdown.sum_var_delta == 0.0
        assert breakdown.sum_var_prev == 0.0
        assert breakdown.c_star == 0.0 and breakdown.holds_at_zero

    def test_log_term_conventions(self):
        traj = run(random_game(2, (3, 3), seed=5), [LearnerConfig(eta=0.05)] * 2, 32)
        breakdown = bound_terms(traj, 0)
        assert breakdown.term_log == pytest.approx(math.log(3) / 0.05, rel=1e-12)
        assert breakdown.term_log_base2 == pytest.approx(math.log2(3) / 0.05, rel=1e-12)

    def test_matching_pennies_finite_c_star_and_brute_force_sums(self):
        traj = run(named_game("matching_pennies"), [LearnerConfig(eta=0.05)] * 2, 2**10)
        breakdown = bound_terms(traj, 0)
        assert breakdown.c_star is not None and math.isfinite(breakdown.c_star)
        self._check_sums_against_brute_force(traj, 0, breakdown)

    def test_random_game_brute_force_sums(self):
        traj = run(random_game(2, (3, 4), seed=6), [LearnerConfig(eta=0.05)] * 2, 256)
        for i in range(2):
            breakdown = bound_terms(traj, i)
            assert breakdown.c_star is not None and math.isfinite(breakdown.c_star)
            self._check_sums_against_brute_force(traj, i, breakdown)

    @staticmethod
    def _check_sums_against_brute_force(traj, i, breakdown):
        vd = vp = 0.0
        prev = np.zeros(traj.losses[i].shape[1])
        for t in range(traj.rounds):
            p = traj.strategies[i][t]
            loss = traj.losses[i][t]
            vd += brute_variance(p, loss - prev)
            vp += brute_variance(p, prev)
            prev = loss
        assert breakdown.sum_var_delta == pytest.approx(vd, rel=1e-9, abs=1e-12)
        assert breakdown.sum_var_prev == pytest.approx(vp, rel=1e-9, abs=1e-12)

    def test_var_delta_sum_shrinks_with_eta(self):
        # halving the step size shrinks the loss-difference variance sum on a
        # game with genuine motion (a symmetric fixed-point game keeps both
        # sums at exactly zero, where the comparison is vacuous)
        game = random_game(2, (2, 2), seed=7)
        hi = bound_terms(run(game, [LearnerConfig(eta=0.05)] * 2, 2**10), 0)
        lo = bound_terms(run(game, [LearnerConfig(eta=0.025)] * 2, 2**10), 0)
        assert lo.sum_var_delta < hi.sum_var_delta

    def test_regret_matches_dynamics_module(self):
        traj = run(random_game(2, (2, 3), seed=8), [LearnerConfig(eta=0.05)] * 2, 128)
        for i in range(2):
            entry = regret(traj, i)
            breakdown = regret_bound_terms(traj, entry)
            assert (breakdown.player, breakdown.lhs) == (i, entry.total_regret)

    def test_hand_computed_three_rounds(self):
        # Player 0 (two actions; player 1 has one) at eta = 1/2, with x_t = (1/2, 1/2)
        # and loss (1, 0) in each of 3 rounds; the round-0 previous loss is 0. Under x,
        # Var[(a, b)] = (a - b)^2 / 4, so
        #   sum Var[loss diff] = 1/4 (round 1 only), sum Var[prev loss] = 2 * 1/4,
        #   regret = 3 * 1/2 - 0 = 3/2, entropy term log(2) / eta = 2 log 2,
        #   base = 2 log 2 + (eta / 2)(1/4 - 1/2) = 2 log 2 - 1/16 < 3/2,
        #   coeff = eta^2 (1/4 + (1/2) / 2) = 1/8, C* = (3/2 - base) / coeff.
        game = Game(2, (2, 1), (np.array([[1.0], [0.0]]), np.zeros((2, 1))))
        traj = Trajectory(game=game, rounds=3, strategies=[np.full((3, 2), 0.5), np.ones((3, 1))],
                          losses=[np.tile([1.0, 0.0], (3, 1)), np.zeros((3, 1))],
                          metadata=RunMetadata(modes=("opt_hedge",) * 2, etas=(0.5, 0.5),
                                               switch_rounds=(None, None)))
        entry = regret(traj, 0)
        assert entry.total_regret == 1.5
        terms = regret_bound_terms(traj, entry)
        base = 2.0 * math.log(2.0) - 1.0 / 16.0
        assert (terms.sum_var_delta, terms.sum_var_prev) == (0.25, 0.5)
        assert terms.term_log == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
        assert terms.term_log_base2 == pytest.approx(2.0, abs=1e-12)
        assert not terms.holds_at_zero
        assert terms.c_star == pytest.approx((1.5 - base) * 8.0, abs=1e-12)
        # the variance inequality reads the same sums at the default C' = 165262 and
        # ceil(log2 3) = 2: 1/4 <= 1/2 * 1/2 + 165262 * 2^5
        report = check_variance_inequality(traj, terms)
        assert (report.player, report.lhs, report.ratio) == (0, 0.25, 0.5)
        assert report.rhs == 0.25 + 165262 * 32.0
        assert (report.c_prime, report.h, report.holds) == (165262, 2, True)

    def test_mode_mismatch(self):
        traj = run(named_game("matching_pennies"),
                   [LearnerConfig(mode="hedge", eta=0.05)] * 2, 16)
        with pytest.raises(ValueError):
            bound_terms(traj, 0)


class TestAuditLearners:
    def test_audits_raise_the_shared_rule(self):
        game = named_game("matching_pennies")
        with pytest.raises(ValueError) as rule:
            check_audit_learners(["bound_terms"], ["hedge"], [0.05])
        assert str(rule.value) == "bound_terms needs opt_hedge learners, got ['hedge']"
        hedge = run(game, [LearnerConfig(mode="hedge", eta=0.05)] * 2, 16)
        with pytest.raises(ValueError) as raised:
            bound_terms(hedge, 0)
        assert str(raised.value) == str(rule.value)

        with pytest.raises(ValueError) as rule:
            check_audit_learners(["variance_inequality"], ["opt_hedge"] * 2, [0.1, 0.2])
        assert str(rule.value) == ("variance_inequality needs one step size for all players, "
                                   "got [0.1, 0.2]")
        uneven = run(game, [LearnerConfig(eta=0.1), LearnerConfig(eta=0.2)], 16)
        terms = bound_terms(uneven, 0)  # player 0's own rule holds
        with pytest.raises(ValueError) as raised:
            check_variance_inequality(uneven, terms)
        assert str(raised.value) == str(rule.value)

    def test_rules_bind_only_their_audits(self):
        check_audit_learners(["fd_h_max", "closeness"], ["hedge", "opt_hedge"], [0.1, 0.2])
        check_audit_learners(["bound_terms"], ["opt_hedge"] * 2, [0.1, 0.2])
        # bound_terms audits one player, so only that player's rule applies
        mixed = run(named_game("matching_pennies"),
                    [LearnerConfig(mode="hedge", eta=0.05), LearnerConfig(eta=0.05)], 16)
        assert bound_terms(mixed, 1).eta == 0.05


class TestVarianceInequality:
    def test_holds_vacuously_at_default_constant(self):
        traj = run(random_game(2, (2, 2), seed=9), [LearnerConfig(eta=0.05)] * 2, 2**10)
        report = check_variance_inequality(traj, bound_terms(traj, 0))
        assert report.holds
        assert report.rhs >= 165262.0

    def test_constant_losses_degenerate(self):
        traj = run(constant_game(), [LearnerConfig(eta=0.05)] * 2, 64)
        report = check_variance_inequality(traj, bound_terms(traj, 0))
        assert report.degenerate
        assert report.ratio is None

    def test_matching_pennies_fixed_point_is_degenerate(self):
        # uniform self-play on the symmetric fixture never moves, so both
        # variance sums vanish and no ratio ordering across eta exists
        for eta in (0.01, 0.04):
            traj = run(named_game("matching_pennies"), [LearnerConfig(eta=eta)] * 2, 2**10)
            assert check_variance_inequality(traj, bound_terms(traj, 0)).degenerate

    def test_ratio_increases_with_eta_on_moving_game(self):
        game = random_game(2, (2, 2), seed=10)
        ratios = []
        for eta in (0.01, 0.04):
            traj = run(game, [LearnerConfig(eta=eta)] * 2, 2**12)
            ratios.append(check_variance_inequality(traj, bound_terms(traj, 0)).ratio)
        assert ratios[0] < ratios[1]

    def test_requires_common_opt_hedge(self):
        mixed = [LearnerConfig(mode="hedge", eta=0.05), LearnerConfig(eta=0.05)]
        traj = run(named_game("matching_pennies"), mixed, 16)
        terms = bound_terms(traj, 1)  # the optimistic player's terms
        with pytest.raises(ValueError):
            check_variance_inequality(traj, terms)
        uneven = [LearnerConfig(eta=0.05), LearnerConfig(eta=0.02)]
        traj = run(named_game("matching_pennies"), uneven, 16)
        terms = bound_terms(traj, 0)
        with pytest.raises(ValueError):
            check_variance_inequality(traj, terms)

    def test_default_constants_exact(self):
        # T = 64: ceil(log2 T) = 6, so the threshold is 165262 * 6^5
        traj = run(random_game(2, (2, 2), seed=11), [LearnerConfig(eta=0.05)] * 2, 64)
        terms = bound_terms(traj, 0)
        report = check_variance_inequality(traj, terms)
        assert report.rhs == 0.5 * terms.sum_var_prev + 165262 * 6.0**5
        assert report.ratio == terms.sum_var_delta / terms.sum_var_prev
        assert report.to_dict()["c_prime"] == 165262 and report.to_dict()["h"] == 6


class TestFdDecayProfile:
    def test_constant_losses_zero_sups(self):
        traj = run(constant_game(), [LearnerConfig(eta=0.05)] * 2, 64)
        profile = fd_decay_profile(traj.losses[0], 4)
        assert profile.sup_norms[0] == pytest.approx(0.4)
        np.testing.assert_array_equal(profile.sup_norms[1:], 0.0)
        assert all(math.isnan(r) for r in profile.ratios[1:])

    def test_lengths(self, tmp_path):
        rng = np.random.default_rng(18)
        path = tmp_path / "fd_values.csv"
        fd_profile_values_csv(rng.random((32, 3)), 5, path)
        rows = [line.split(",")[:2] for line in path.read_text().splitlines()[1:]]
        assert rows == [[str(h), str(t)] for h in range(6) for t in range(1, 33 - h)]

    def test_h_max_validation(self):
        with pytest.raises(ValueError):
            fd_decay_profile(np.zeros((4, 2)), 4)

    def test_values_and_norms_csv(self, tmp_path):
        traj = run(random_game(2, (2, 3), seed=5), [LearnerConfig(eta=0.05)] * 2, 40)
        profile = fd_decay_profile(traj.losses[1], 4)
        values_path = tmp_path / "fd_values_player2.csv"
        norms_path = tmp_path / "fd_norms_player2.csv"
        fd_profile_values_csv(traj.losses[1], 4, values_path)
        fd_profile_norms_csv(profile, norms_path)
        raw = values_path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "order,t,value"
        assert len(lines) == 1 + sum(40 - h for h in range(5))
        orders = [finite_difference(traj.losses[1], h) for h in range(5)]
        assert lines[1:] == [f"{h},{t + 1},{format(float(np.abs(d[t]).max()), '.17g')}"
                             for h, d in enumerate(orders) for t in range(40 - h)]
        raw = norms_path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "order,sup_norm"
        assert len(lines) == 1 + 5
        assert lines[1:] == [f"{h},{format(float(v), '.17g')}"
                             for h, v in enumerate(profile.sup_norms)]


BLOCK = AUDIT_BLOCK_ROWS


class TestReduceRows:
    """``_reduce_rows`` against numpy's reduction, on both sides of its 32-column threshold."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 40), st.integers(0, 9), st.sampled_from([0.0, -0.0]), st.data())
    def test_matches_numpy_bit_for_bit(self, n, rows, zero, data):
        # one sign of zero a block: which zero wins a +0/-0 tie is left to numpy's SIMD width
        special = st.sampled_from([zero, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310])
        cells = st.one_of(special, st.floats(allow_nan=False).filter(bool))
        block = data.draw(arrays(np.float64, (rows, n), elements=cells))
        for ufunc in (np.maximum, np.minimum):
            got, want = _reduce_rows(ufunc, block), ufunc.reduce(block, axis=1)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 9), st.data())
    def test_zero_ties_and_nan_bits_may_differ_and_nothing_else(self, n, rows, data):
        nans = np.array([0xFFF8000000000000, 0x7FF8000000000001], np.uint64).view(np.float64)
        cells = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, *nans.tolist()])
        block = data.draw(arrays(np.float64, (rows, n), elements=cells))
        for ufunc in (np.maximum, np.minimum):
            # equal as values: NaN where numpy has NaN, and 0.0 == -0.0
            np.testing.assert_array_equal(_reduce_rows(ufunc, block), ufunc.reduce(block, axis=1))

class TestBlockedAudits:
    """The audits read histories in row blocks; every value must match the whole-array form."""

    @pytest.mark.parametrize("t", [1, 2, BLOCK - 1, BLOCK, 2 * BLOCK + 7])
    def test_fd_round_sups_match_whole_array(self, t, tmp_path):
        seq = np.random.default_rng(t).random((t, 3))
        path = tmp_path / "fd_values.csv"
        for h_max in range(min(5, t - 1) + 1):
            profile = fd_decay_profile(seq, h_max)
            fd_profile_values_csv(seq, h_max, path)
            values = path.read_text().splitlines()[1:]
            wholes = [np.abs(finite_difference(seq, h)).max(1) for h in range(h_max + 1)]
            assert values == [f"{h},{k + 1},{float(v):.17g}"
                              for h, whole in enumerate(wholes) for k, v in enumerate(whole)]
            assert profile.sup_norms.tolist() == [whole.max() for whole in wholes]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 2, 3, 40, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7]),
           st.integers(1, 5), st.integers(0, 8), st.integers(0, 2**32 - 1), st.booleans())
    def test_values_csv_and_profile_match_whole_array(self, tmp_path_factory, t, n, h_max, seed,
                                                      coarse):
        rng = np.random.default_rng(seed)
        seq = rng.random((t, n))
        if coarse:  # exact zeros among the differences, and NaN ratios
            seq = np.round(seq * 2) / 2
        h_max = min(h_max, t - 1)
        path = tmp_path_factory.mktemp("fd") / "fd_values.csv"
        assert fd_profile_values_csv(seq, h_max, path) is None
        wholes = [np.abs(finite_difference(seq, h)).max(1) for h in range(h_max + 1)]
        assert path.read_bytes() == ("order,t,value\n" + "".join(
            f"{h},{k + 1},{v:.17g}\n" for h, whole in enumerate(wholes)
            for k, v in enumerate(whole.tolist()))).encode()
        profile = fd_decay_profile(seq, h_max)
        sups = np.array([whole.max() for whole in wholes])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(sups[:-1] > 0.0, sups[1:] / sups[:-1], np.nan)
        for got, want in ((profile.sup_norms, sups), (profile.ratios, ratios)):
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
        assert (profile.h_max, profile.length) == (h_max, t)

    @pytest.mark.parametrize("t", [1, 2, BLOCK - 1, BLOCK, 2 * BLOCK + 7])
    def test_variance_sums_match_whole_array(self, t):
        game = random_game(2, (2, 3), seed=3)
        traj = run(game, [LearnerConfig(eta=0.1)] * 2, t)
        for i in range(2):
            x, losses = traj.strategies[i], traj.losses[i]
            prev = np.vstack([np.zeros((1, losses.shape[1])), losses[:-1]])
            expected = (float(row_variances(x, losses - prev).sum()),
                        float(row_variances(x, prev).sum()))
            assert _variance_sums(traj, i) == expected

    @pytest.mark.parametrize("t", [2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
    def test_closeness_matches_whole_array(self, t):
        x = np.random.default_rng(t).dirichlet(np.ones(3), t)
        x[t // 2, 1] = 0.0  # an infinite ratio into and out of this row
        with np.errstate(divide="ignore", invalid="ignore"):
            fwd = np.nan_to_num(x[1:] / x[:-1], nan=np.inf, posinf=np.inf)
            bwd = np.nan_to_num(x[:-1] / x[1:], nan=np.inf, posinf=np.inf)
        worst = np.maximum(fwd, bwd)
        per_step = worst.max(axis=1) - 1.0
        step = int(np.argmax(per_step))
        report = consecutive_closeness(x)
        assert report.zeta_observed == per_step.max()
        assert (report.worst_step, report.worst_coordinate) == (step, int(np.argmax(worst[step])))
        assert math.isinf(report.zeta_observed)

    @pytest.mark.parametrize("t", [BLOCK + 20, 3 * BLOCK])
    def test_closeness_equal_maxima_in_two_blocks_report_the_first(self, t):
        # steps 9 (into the b rows) and BLOCK + 9 (out of them) share the ratio 2
        a, b = [0.5, 0.5], [0.75, 0.25]
        x = np.array([a] * 10 + [b] * BLOCK + [a] * (t - BLOCK - 10))
        report = consecutive_closeness(x)
        assert (report.zeta_observed, report.worst_step, report.worst_coordinate) == (1.0, 9, 1)

    def test_closeness_memory_is_a_few_blocks(self):
        x = np.random.default_rng(0).dirichlet(np.ones(8), 4 * BLOCK)
        tracemalloc.start()
        try:
            consecutive_closeness(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * (BLOCK + 1) * x.shape[1]
        # a (T - 1,) per-step vector would add half a block here
        assert peak < 4.25 * block, (peak, block)

    @pytest.mark.parametrize("audit", ["profile", "values_csv"])
    def test_fd_profile_memory_is_a_few_blocks(self, audit, tmp_path):
        t, n, h_max = 4 * BLOCK, 8, 5
        seq = np.random.default_rng(0).random((t, n))
        tracemalloc.start()
        try:
            if audit == "profile":
                fd_decay_profile(seq, h_max)
            else:
                fd_profile_values_csv(seq, h_max, tmp_path / "fd_values.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * (BLOCK + h_max) * n
        # one per-round vector per order would add 3 blocks here, and one
        # (T, n) array per order 24 blocks
        assert peak < 4 * block, (peak, block)
