"""Tests for self-play runs, regret accounting, empirical play, and exports."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regretsim import dynamics, learners
from regretsim import game as game_module
from regretsim import (
    CceReport,
    EmpiricalPlay,
    LearnerConfig,
    Trajectory,
    batch_run,
    cce_gap,
    empirical_joint_distribution,
    named_game,
    random_game,
    regret,
    regret_report,
    run,
    run_streaming,
)
from regretsim.dynamics import AUDIT_BLOCK_ROWS, RunMetadata
from regretsim.export import regret_curves_to_csv, trajectory_to_csv
from regretsim.game import Game
from expected_loss import expected_loss_vector
from trajectory_csv import trajectory_from_csv

# the least step size above 1: the smallest at which a learner shifts its exponent
ABOVE_ONE = float(np.nextafter(1.0, 2.0))

# record windows of 1, 2, 3 and 7 rounds, whose boundaries fall inside the
# horizons the properties draw, and the default one, which holds them whole
WINDOWS = (1, 2, 3, 7, dynamics.WINDOW_ROUNDS)


def make_trajectory(strategies, losses, game=None, mode="opt_hedge", eta=0.05):
    """Hand-built trajectory for unit-level regret checks."""
    game = game or named_game("matching_pennies")
    m = game.num_players
    metadata = RunMetadata(modes=(mode,) * m, etas=(eta,) * m, switch_rounds=(None,) * m)
    return Trajectory(game=game, rounds=strategies[0].shape[0],
                      strategies=strategies, losses=losses, metadata=metadata)


class TestRun:
    def test_single_round_uniform(self):
        traj = run(named_game("matching_pennies"), [LearnerConfig(eta=0.05)] * 2, 1)
        for i in range(2):
            np.testing.assert_array_equal(traj.strategies[i][0], [0.5, 0.5])
            np.testing.assert_array_equal(traj.losses[i][0], [0.5, 0.5])

    def test_first_round_always_uniform(self):
        game = random_game(3, (2, 3, 2), seed=4)
        traj = run(game, [LearnerConfig(eta=0.1)] * 3, 5)
        for i, n in enumerate(game.action_counts):
            np.testing.assert_array_equal(traj.strategies[i][0], np.full(n, 1 / n))

    def test_determinism(self):
        game = random_game(2, (2, 2), seed=3)
        cfg = [LearnerConfig(eta=0.05)] * 2
        t1 = run(game, cfg, 200)
        t2 = run(game, cfg, 200)
        for i in range(2):
            assert np.array_equal(t1.strategies[i], t2.strategies[i])
            assert np.array_equal(t1.losses[i], t2.losses[i])

    def test_losses_recomputable(self):
        game = named_game("matching_pennies")
        traj = run(game, [LearnerConfig(eta=0.05)] * 2, 100)
        for t in range(100):
            profile = [traj.strategies[i][t] for i in range(2)]
            for i in range(2):
                expected = expected_loss_vector(game, i, profile)
                np.testing.assert_allclose(traj.losses[i][t], expected, atol=1e-12)

    def test_metadata(self):
        cfg = [LearnerConfig(mode="hedge", eta=0.1), LearnerConfig(eta=0.2)]
        traj = run(named_game("matching_pennies"), cfg, 3)
        assert traj.metadata.modes == ("hedge", "opt_hedge")
        assert traj.metadata.etas == (0.1, 0.2)

    def test_rejects_invalid_inputs(self):
        game = named_game("matching_pennies")
        # an invalid game fails as it is built, before any runner sees it
        with pytest.raises(ValueError, match=r"player 1, profile \(1, 1\): 1\.5"):
            Game(2, (2, 2), (np.full((2, 2), 1.5), np.zeros((2, 2))))
        for runner in (run, run_streaming):
            with pytest.raises(ValueError):
                runner(game, [LearnerConfig()] * 2, 0)
            with pytest.raises(ValueError):
                runner(game, [LearnerConfig()], 4)
            with pytest.raises(ValueError, match="4 learner configs for 3 players"):
                runner(random_game(3, (2, 2, 2), seed=1), [LearnerConfig()] * 4, 4)

    def test_permuting_action_labels_permutes_trajectory(self):
        game = random_game(2, (3, 3), seed=12)
        perm = np.array([2, 0, 1])
        tensors = (game.loss_tensors[0][perm, :], game.loss_tensors[1][perm, :])
        permuted = Game(2, (3, 3), tensors)
        cfg = [LearnerConfig(eta=0.05)] * 2
        base = run(game, cfg, 300)
        moved = run(permuted, cfg, 300)
        np.testing.assert_allclose(moved.strategies[0], base.strategies[0][:, perm], atol=1e-10)
        np.testing.assert_allclose(moved.losses[0], base.losses[0][:, perm], atol=1e-10)
        np.testing.assert_allclose(moved.strategies[1], base.strategies[1], atol=1e-10)
        assert regret(moved, 0).total_regret == pytest.approx(
            regret(base, 0).total_regret, abs=1e-10)

    def test_two_group_run_holds_one_loss_matrix_copy(self):
        # Hedge and OptHedge players form two groups of one player each: player 0's
        # matrix is a view of its tensor and player 1's is the one copy loss_matrix makes.
        game = random_game(2, (300, 300), seed=3)
        configs = [LearnerConfig(mode="hedge", eta=0.1), LearnerConfig(eta=0.1)]
        tracemalloc.start()
        try:
            traj = run(game, configs, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * game.loss_tensors[0].nbytes, (peak, game.loss_tensors[0].nbytes)
        for i in range(2):
            np.testing.assert_array_equal(traj.losses[i][1], expected_loss_vector(
                game, i, [s[1] for s in traj.strategies]))

    def test_constant_game_zero_regret(self):
        tensors = tuple(np.full((2, 3), 0.6) for _ in range(2))
        game = Game(2, (2, 3), tensors)
        traj = run(game, [LearnerConfig(eta=0.3)] * 2, 50)
        for i in range(2):
            np.testing.assert_allclose(regret(traj, i).curve, 0.0, atol=1e-12)


class TestRegret:
    def test_zero_loss_player(self):
        game = Game(2, (2, 2), (np.zeros((2, 2)), np.full((2, 2), 0.5)))
        traj = run(game, [LearnerConfig(eta=0.1)] * 2, 10)
        entry = regret(traj, 0)
        assert entry.total_regret == 0.0
        assert entry.best_action == 0  # tie breaks to the lowest index

    def test_constant_losses_uniform_play(self):
        # uniform play against the fixed vector (0.2, 0.8): regret 10 * 0.3
        strategies = [np.tile([0.5, 0.5], (10, 1)), np.tile([0.5, 0.5], (10, 1))]
        losses = [np.tile([0.2, 0.8], (10, 1)), np.tile([0.5, 0.5], (10, 1))]
        traj = make_trajectory(strategies, losses)
        entry = regret(traj, 0)
        assert entry.total_regret == pytest.approx(3.0, abs=1e-12)
        assert entry.best_action == 0
        assert entry.cumulative_loss == pytest.approx(5.0, abs=1e-12)
        assert entry.best_fixed_loss == pytest.approx(2.0, abs=1e-12)

    def test_curve_matches_direct_recomputation(self):
        game = random_game(2, (2, 3), seed=13)
        traj = run(game, [LearnerConfig(eta=0.05)] * 2, 64)
        for i in range(2):
            entry = regret(traj, i)
            assert entry.curve[-1] == pytest.approx(entry.total_regret, abs=1e-12)
            for t in (0, 7, 31, 63):
                play = sum(float(traj.strategies[i][s] @ traj.losses[i][s])
                           for s in range(t + 1))
                best = min(sum(traj.losses[i][s][j] for s in range(t + 1))
                           for j in range(traj.losses[i].shape[1]))
                assert entry.curve[t] == pytest.approx(play - best, rel=1e-9, abs=1e-9)

    @staticmethod
    def blocked_case(t, n):
        """A trajectory whose player 1 has random (t, n) strategies and losses."""
        rng = np.random.default_rng(t)
        x, losses = rng.dirichlet(np.ones(n), t), rng.random((t, n))
        return make_trajectory([x, np.full((t, 2), 0.5)], [losses, np.zeros((t, 2))],
                               game=random_game(2, (n, 2), seed=0))

    @staticmethod
    def assert_whole_array_form(traj, entry, player=0):
        """``entry`` is ``player``'s regret by whole-array ``cumsum``s, bit for bit."""
        losses = traj.losses[player]
        play_cum = np.cumsum(np.einsum("tj,tj->t", traj.strategies[player], losses))
        action_cum = np.cumsum(losses, axis=0)
        best = int(np.argmin(action_cum[-1]))
        whole = play_cum - np.minimum.reduce(action_cum, axis=1)
        assert entry.curve.view(np.int64).tolist() == whole.view(np.int64).tolist()
        assert (entry.best_action, entry.cumulative_loss, entry.best_fixed_loss) == (
            best, play_cum[-1], action_cum[-1, best])

    @pytest.mark.parametrize("t", [1, 2, AUDIT_BLOCK_ROWS, AUDIT_BLOCK_ROWS + 1,
                                   2 * AUDIT_BLOCK_ROWS + 7])
    def test_blocked_sums_match_whole_array(self, t):
        traj = self.blocked_case(t, 3)
        self.assert_whole_array_form(traj, regret(traj, 0))

    def test_blocked_sums_match_whole_array_on_signed_zero_losses(self, tmp_path):
        # half the losses exactly zero, and ten actions of each player at zero loss whatever
        # the opponent plays, so each running best is a tie of ten zero sums: from 9 columns
        # on, numpy's row min and a column pass may pick different zeros of a +0/-0 tie
        rng = np.random.default_rng(5)
        losses = rng.random((2, 12, 12))
        losses[rng.random(losses.shape) < 0.5] = 0.0
        losses[0, :10, :] = losses[1, :, :10] = 0.0
        written = []
        for zero in (0.0, -0.0):
            game = Game(2, (12, 12), tuple(np.where(t == 0.0, zero, t) for t in losses))
            assert not any(np.signbit(t).any() for t in game.loss_tensors)
            traj = run(game, [LearnerConfig(eta=0.1)] * 2, AUDIT_BLOCK_ROWS + 7)
            entries = regret_report(traj)
            for i, entry in enumerate(entries):
                self.assert_whole_array_form(traj, entry, i)
            trajectory_to_csv(traj, tmp_path / "trajectory.csv")
            regret_curves_to_csv(entries, tmp_path / "regret_curve.csv")
            written.append([(tmp_path / name).read_bytes()
                            for name in ("trajectory.csv", "regret_curve.csv")])
        assert written[0] == written[1]

    def test_blocked_sums_memory_below_one_history(self):
        traj = self.blocked_case(4 * AUDIT_BLOCK_ROWS, 8)
        tracemalloc.start()
        try:
            entry = regret(traj, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole-array form holds the (T, n) running sums at once
        assert peak < traj.losses[0].nbytes, (peak, traj.losses[0].nbytes)
        # three block edges lie inside the curve
        self.assert_whole_array_form(traj, entry)

    def test_regret_bounded_by_horizon(self):
        game = random_game(2, (4, 4), seed=14)
        traj = run(game, [LearnerConfig(eta=0.2)] * 2, 30)
        for entry in regret_report(traj):
            assert -30.0 <= entry.total_regret <= 30.0


def empirical_round_loop(trajectory):
    """The joint distribution's sum, one round at a time, by ``np.multiply.outer`` in
    player order."""
    total = np.zeros(trajectory.game.action_counts)
    for t in range(trajectory.rounds):
        joint = trajectory.strategies[0][t]
        for i in range(1, trajectory.game.num_players):
            joint = np.multiply.outer(joint, trajectory.strategies[i][t])
        total += joint
    return total / trajectory.rounds


class TestEmpiricalPlay:
    @pytest.mark.parametrize("counts, rounds", [((3, 3), 2000), ((2, 3, 2), 1500),
                                                ((8,) * 5, 6), ((4, 3, 5, 7, 20), 5)])
    def test_matches_round_loop(self, counts, rounds):
        # long runs of small games, and a few rounds of games of 32768 and 8400 profiles
        game = random_game(len(counts), counts, seed=21)
        traj = run(game, [LearnerConfig(eta=0.3)] * len(counts), rounds)
        assert np.array_equal(empirical_joint_distribution(traj).probs, empirical_round_loop(traj))

    def test_single_uniform_round(self):
        traj = run(named_game("matching_pennies"), [LearnerConfig(eta=0.05)] * 2, 1)
        play = empirical_joint_distribution(traj)
        np.testing.assert_array_equal(play.probs, np.full((2, 2), 0.25))

    def test_constant_product_average(self):
        x1 = np.array([0.3, 0.7])
        x2 = np.array([0.6, 0.4])
        strategies = [np.tile(x1, (8, 1)), np.tile(x2, (8, 1))]
        losses = [np.zeros((8, 2)), np.zeros((8, 2))]
        traj = make_trajectory(strategies, losses)
        play = empirical_joint_distribution(traj)
        np.testing.assert_allclose(play.probs, np.outer(x1, x2), atol=1e-15)

    def test_normalized_after_long_run(self):
        traj = run(named_game("matching_pennies"), [LearnerConfig(eta=0.05)] * 2, 100)
        play = empirical_joint_distribution(traj)
        assert play.probs.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(play.probs >= 0.0)

    def test_support_limit(self, monkeypatch):
        traj = run(named_game("matching_pennies"), [LearnerConfig(eta=0.05)] * 2, 1)
        monkeypatch.setattr(dynamics, "DENSE_SUPPORT_LIMIT", 3)
        with pytest.raises(ValueError, match="4 exceeds dense limit 3"):
            empirical_joint_distribution(traj)


class TestCceGap:
    def test_uniform_play_matching_pennies_exactly_zero(self):
        game = named_game("matching_pennies")
        play = EmpiricalPlay(probs=np.full((2, 2), 0.25), rounds=1)
        report = cce_gap(game, play)
        assert report.epsilon == 0.0
        np.testing.assert_array_equal(report.raw_gaps, [0.0, 0.0])

    def test_point_mass_extreme_deviation(self):
        game = named_game("matching_pennies")
        probs = np.zeros((2, 2))
        probs[0, 0] = 1.0  # player 1 matched: loss 1, deviating to action 2 gives 0
        report = cce_gap(game, EmpiricalPlay(probs=probs, rounds=1))
        assert report.epsilon == 1.0
        assert report.best_deviations[0] == 1

    def test_raw_gap_equals_average_regret(self):
        game = random_game(2, (3, 3), seed=15)
        traj = run(game, [LearnerConfig(eta=0.05)] * 2, 128)
        report = cce_gap(game, empirical_joint_distribution(traj))
        max_avg_regret = max(e.total_regret for e in regret_report(traj)) / traj.rounds
        assert report.raw_gaps.max() == pytest.approx(max_avg_regret, abs=1e-9)

    def test_three_player_gaps_are_average_regrets(self):
        game = random_game(3, (2, 3, 2), seed=16)
        traj = run(game, [LearnerConfig(eta=0.2)] * 3, 256)
        report = cce_gap(game, empirical_joint_distribution(traj))
        np.testing.assert_allclose(report.raw_gaps,
                                   [e.total_regret / traj.rounds for e in regret_report(traj)],
                                   rtol=0, atol=1e-9)
        assert report.epsilon == max(0.0, report.raw_gaps.max())

    def test_epsilon_clamped_nonnegative(self):
        game = named_game("prisoners_dilemma_rescaled")
        probs = np.zeros((2, 2))
        probs[1, 1] = 1.0  # mutual defection: no profitable unilateral deviation
        report = cce_gap(game, EmpiricalPlay(probs=probs, rounds=1))
        assert report.epsilon == 0.0
        assert np.all(report.raw_gaps <= 0.0)
        assert isinstance(report, CceReport)


class TestBatchRun:
    def test_seed_ordering(self):
        results = batch_run(lambda s: random_game(2, (2, 2), seed=s),
                            [3, 1, 2], [LearnerConfig(eta=0.05)] * 2, 64)
        assert [r.seed for r in results] == [3, 1, 2]

    def test_rerun_identical(self):
        source = lambda s: random_game(2, (2, 2), seed=s)
        cfg = [LearnerConfig(eta=0.05)] * 2
        a = batch_run(source, [1, 2, 3], cfg, 64)
        b = batch_run(source, [1, 2, 3], cfg, 64)
        assert [r.total_regrets for r in a] == [r.total_regrets for r in b]

    def test_fifty_random_games_bounded(self):
        results = batch_run(lambda s: random_game(2, (2, 2), seed=s),
                            list(range(1, 51)), [LearnerConfig(eta=0.05)] * 2, 2**12)
        assert len(results) == 50
        for r in results:
            for value in r.total_regrets:
                assert math.isfinite(value)
                assert value <= 2**12

    def test_seeds_mapped_to_one_game(self):
        game, configs = random_game(2, (2, 3), seed=5), [LearnerConfig(eta=0.05)] * 2
        alone = run_streaming(game, configs, 16)
        results = batch_run(lambda s: game, [1, 2], configs, 16)
        for r in results:
            assert r.total_regrets == alone.total_regret.tolist()
            assert r.best_actions == alone.best_actions.tolist()

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            batch_run(lambda s: named_game("matching_pennies"), [], [LearnerConfig()] * 2, 4)

    def test_invalid_game_rejected(self):
        def source(s):
            if s == 3:
                return Game(2, (2, 2), (np.full((2, 2), 1.5), np.zeros((2, 2))))
            return random_game(2, (2, 2), seed=s)

        with pytest.raises(ValueError, match=r"player 1, profile \(1, 1\): 1\.5"):
            batch_run(source, [1, 2, 3], [LearnerConfig()] * 2, 4)

    def test_split_batches_match_one_batch(self, monkeypatch):
        sizes = []
        play = dynamics._play

        def counted(games, *args, **kwargs):
            sizes.append(len(games))
            return play(games, *args, **kwargs)

        monkeypatch.setattr(dynamics, "_play", counted)
        source = lambda s: random_game(2, (3, 3) if s % 3 == 0 else (2, 2), seed=s)
        seeds, configs = list(range(1, 11)), [LearnerConfig(eta=0.3)] * 2
        whole = batch_run(source, seeds, configs, 32)
        # games of every shape wait in one pool, which fits in BATCH_BYTES: one batch
        assert sizes == [10]
        # a 2x2 game holds 64 bytes of loss tensors and a 3x3 game 144, so the
        # 2x2 games play in pairs, the last one alone at the end, and 3x3 games alone
        monkeypatch.setattr(dynamics, "BATCH_BYTES", 128)
        sizes.clear()
        split = batch_run(source, seeds, configs, 32)
        assert sizes == [2, 1, 2, 1, 2, 1, 1]
        assert ([(r.seed, r.total_regrets, r.best_actions) for r in split]
                == [(r.seed, r.total_regrets, r.best_actions) for r in whole])

    @settings(max_examples=40, deadline=None)
    @given(counts=st.integers(2, 3).flatmap(lambda m: st.lists(
               st.tuples(*[st.integers(1, 4)] * m), min_size=2, max_size=3, unique=True)),
           seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=8, unique=True),
           modes=st.lists(st.sampled_from(learners.MODES), min_size=3, max_size=3),
           etas=st.lists(st.floats(0.01, 3.0), min_size=3, max_size=3),
           c_prime=st.sampled_from([0.0, learners.DEFAULT_C_PRIME]),
           rounds=st.integers(1, 40))
    # in the 2x2x2 batch (seeds 20, 4, 10) the adaptive player of seed 20
    # switches at round 8, that of seed 10 at round 4 and that of seed 4 never
    @example(counts=[(2, 2, 2), (3, 2, 2)], seeds=[20, 3, 7, 4, 10],
             modes=["adaptive_opt_hedge", "opt_hedge", "hedge"], etas=[0.5] * 3,
             c_prime=0.0, rounds=48)
    # in the 3x3x3 games a Hedge group, an optimistic one at eta = 0.8 and the
    # adaptive player at eta = 2 alone, since it shifts the exponent, and a
    # 1-action player in the 1x3x2 games; the adaptive player switches at
    # round 4 in the games of seeds 6, 13 and 14, and not in those of 0 and 5
    @example(counts=[(3, 3, 3), (1, 3, 2)], seeds=[6, 5, 0, 13, 14],
             modes=["hedge", "opt_hedge", "adaptive_opt_hedge"], etas=[0.3, 0.8, 2.0],
             c_prime=0.0, rounds=48)
    @example(counts=[(2, 3, 3), (3, 3, 2)], seeds=[1, 2, 3, 4],
             modes=["opt_hedge"] * 3, etas=[0.2, 0.5, 1.0],
             c_prime=learners.DEFAULT_C_PRIME, rounds=48)
    # five 3x3x3 games, whose one optimistic group forms one cell of all three
    # players; the adaptive first player switches at round 4 in the games of
    # seeds 0, 8 and 12, and not in those of 2 and 4
    @example(counts=[(3, 3, 3), (2, 3, 3)], seeds=[0, 2, 4, 8, 12, 3],
             modes=["adaptive_opt_hedge", "opt_hedge", "adaptive_opt_hedge"], etas=[1.0] * 3,
             c_prime=0.0, rounds=48)
    # five 3x3 games; the adaptive last player, alone in its group since its
    # step size of 2 shifts the exponent, switches at round 4 in the games of
    # seeds 2, 4 and 6, and not in those of 0 and 14
    @example(counts=[(3, 3), (2, 2)], seeds=[2, 0, 4, 14, 6],
             modes=["opt_hedge", "adaptive_opt_hedge", "hedge"], etas=[0.8, 2.0, 0.1],
             c_prime=0.0, rounds=48)
    # two-player games whose one group forms one cell, which views its stack
    # reversed: unshifted at eta = 1, and shifted one ulp above
    @example(counts=[(3, 3), (2, 2)], seeds=[1, 2, 3, 4, 5],
             modes=["opt_hedge", "opt_hedge", "hedge"], etas=[1.0, 0.5, 0.1],
             c_prime=0.0, rounds=48)
    @example(counts=[(3, 3), (1, 1)], seeds=[1, 2, 3, 4, 5],
             modes=["hedge", "hedge", "hedge"], etas=[ABOVE_ONE, 3.0, 0.1],
             c_prime=0.0, rounds=48)
    # the same cell of two adaptive players at eta = 2, shifted; at round 4 both
    # switch in the games of seeds 0 and 4, only the first in those of 1 and 9,
    # and only the second in that of 2
    @example(counts=[(3, 3), (2, 2)], seeds=[0, 1, 2, 4, 9],
             modes=["adaptive_opt_hedge"] * 3, etas=[2.0] * 3, c_prime=0.0, rounds=48)
    # the benchmark's mix: 2x2, 3x3 and 8x8 games interleaved in one batch, whose
    # three groups, one per shape, form one family
    @example(counts=[(2, 2), (3, 3), (8, 8)], seeds=[0, 1, 2, 3, 4, 5, 6, 7, 8],
             modes=["opt_hedge"] * 3, etas=[0.1] * 3, c_prime=0.0, rounds=48)
    # the group of three actions spans both shapes: the first player of the 3x2
    # games and both players of the 3x3 games
    @example(counts=[(3, 2), (3, 3)], seeds=[0, 1, 2, 3, 4, 5],
             modes=["opt_hedge"] * 3, etas=[0.4, 0.4, 0.1], c_prime=0.0, rounds=48)
    def test_matches_per_game_run(self, counts, seeds, modes, etas, c_prime, rounds):
        m = len(counts[0])
        source = lambda s: random_game(m, counts[s % len(counts)], seed=s)
        configs = [LearnerConfig(mode=mode, eta=eta, c_prime=c_prime)
                   for mode, eta in zip(modes, etas[:m])]
        outcomes = []
        for window in WINDOWS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dynamics, "WINDOW_ROUNDS", window)
                results = batch_run(source, seeds, configs, rounds)
                assert [r.seed for r in results] == seeds
                for r in results:
                    entries = regret_report(run(source(r.seed), configs, rounds))
                    assert r.best_actions == [e.best_action for e in entries]
                    for value, entry in zip(r.total_regrets, entries):
                        assert abs(value - entry.total_regret) <= 1e-12
                    alone = batch_run(source, [r.seed], configs, rounds)[0]
                    assert ((alone.total_regrets, alone.best_actions)
                            == (r.total_regrets, r.best_actions))
            outcomes.append([(r.total_regrets, r.best_actions) for r in results])
        # the record window changes when rounds are recorded, never a bit of the results
        assert all(outcome == outcomes[0] for outcome in outcomes)


def traced_peak(call):
    """The peak of the bytes that tracemalloc traces while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRecordWindow:
    def test_batch_window_capped_in_bytes(self):
        # 4096 2x2 games hold 256 KiB of loss tensors and 128 KiB of strategies a
        # round, so the byte cap holds their window to two rounds, as long at
        # T = 256 as at T = 4; an uncapped one of 64 rounds would take about 100
        # times the loss tensors. 2048 2x2 and 2048 3x3 games, in one pool, hold
        # 416 KiB of loss tensors and 160 KiB of strategies a round: one round.
        configs = [LearnerConfig(eta=0.3)] * 2
        for shapes in ([(2, 2)], [(2, 2), (3, 3)]):
            games = [random_game(2, shapes[s % len(shapes)], seed=s) for s in range(4096)]
            tensors = sum(t.nbytes for game in games for t in game.loss_tensors)
            for rounds in (4, 256):
                play = lambda: batch_run(games.__getitem__, range(len(games)), configs, rounds)
                play()  # first calls allocate lasting caches
                peak = traced_peak(play)
                assert peak < 12 * tensors, (shapes, rounds, peak, tensors)

    def test_streaming_record_does_not_grow_with_the_horizon(self):
        # the full history of T = 2^12 rounds would take 768 KiB; the slack is for
        # Python's scalar objects, such as round numbers past the small-int cache
        game = random_game(4, (3,) * 4, seed=2)
        configs = [LearnerConfig(mode="adaptive_opt_hedge", eta=0.1)] * 4
        run_streaming(game, configs, 2**8)  # first calls allocate lasting caches
        short, long = (traced_peak(lambda: run_streaming(game, configs, rounds))
                       for rounds in (2**8, 2**12))
        assert long <= short + 4096, (long, short)


class TestValidatedOnce:
    def test_a_game_is_validated_once(self, monkeypatch):
        calls = []
        check = game_module.validate_game
        monkeypatch.setattr(game_module, "validate_game", lambda g: calls.append(g) or check(g))
        games = [random_game(2, (2, 3), seed=s) for s in range(3)]
        assert calls == games  # each as it is built
        calls.clear()
        configs = [LearnerConfig(eta=0.1)] * 2
        run(games[0], configs, 8)
        run_streaming(games[0], configs, 8)
        batch_run(games.__getitem__, range(3), configs, 8)
        assert calls == []


class TestStreaming:
    def test_matches_full_run(self):
        # a large step and c_prime=0 make adaptive learners switch, so both
        # runners must also agree on when
        for game in (random_game(2, (2, 3), seed=16), random_game(3, (2, 3, 2), seed=18)):
            for mode in ("hedge", "opt_hedge", "adaptive_opt_hedge"):
                cfg = [LearnerConfig(mode=mode, eta=2.0, c_prime=0.0)] * game.num_players
                full = run(game, cfg, 200)
                stream = run_streaming(game, cfg, 200)
                for i, entry in enumerate(regret_report(full)):
                    assert stream.total_regret[i] == pytest.approx(
                        entry.total_regret, rel=1e-12, abs=1e-12)
                    assert stream.best_actions[i] == entry.best_action
                    assert stream.cumulative_loss[i] == pytest.approx(
                        entry.cumulative_loss, rel=1e-12, abs=1e-12)
                assert stream.metadata.switch_rounds == full.metadata.switch_rounds
                if mode == "adaptive_opt_hedge":
                    assert any(r is not None for r in full.metadata.switch_rounds)


class TestUnreachableSwitch:
    def test_default_threshold_plays_like_opt_hedge(self):
        # a large step maximises the loss variances; the default threshold
        # c' * ceil(log2 T)^5 still exceeds the 2T the variance sums can reach
        source = lambda s: random_game(3, (2, 3, 2), seed=s)
        adaptive = [LearnerConfig(mode="adaptive_opt_hedge", eta=3.0)] * 3
        optimistic = [LearnerConfig(mode="opt_hedge", eta=3.0)] * 3
        full, reference = run(source(1), adaptive, 256), run(source(1), optimistic, 256)
        stream = run_streaming(source(1), adaptive, 256)
        stream_reference = run_streaming(source(1), optimistic, 256)
        for i in range(3):
            assert np.array_equal(full.strategies[i], reference.strategies[i])
            assert np.array_equal(stream.final_strategies[i], stream_reference.final_strategies[i])
        assert full.metadata.switch_rounds == stream.metadata.switch_rounds == (None,) * 3
        seeds = [1, 2, 3, 4]
        assert ([(r.total_regrets, r.best_actions) for r in batch_run(source, seeds, adaptive, 256)]
                == [(r.total_regrets, r.best_actions)
                    for r in batch_run(source, seeds, optimistic, 256)])

    def test_zero_threshold_switches_at_round_8(self):
        game = random_game(3, (2, 2, 2), seed=20)
        configs = [LearnerConfig(mode=mode, eta=0.5, c_prime=0.0)
                   for mode in ("adaptive_opt_hedge", "opt_hedge", "hedge")]
        # round 8 is the middle of a window of 3 rounds, the first of one of 7
        for window in (3, 7, dynamics.WINDOW_ROUNDS):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dynamics, "WINDOW_ROUNDS", window)
                assert run(game, configs, 48).metadata.switch_rounds == (8, None, None)
                assert run_streaming(game, configs, 48).metadata.switch_rounds == (8, None, None)


def reference_run(game, configs, rounds):
    """The self-play loop spelled out with ``learners.step``: the engine's oracle."""
    states = [learners.init_state(n, cfg.eta, cfg.mode, horizon=rounds, c_prime=cfg.c_prime)
              for n, cfg in zip(game.action_counts, configs)]
    strategies = [np.empty((rounds, n)) for n in game.action_counts]
    losses = [np.empty((rounds, n)) for n in game.action_counts]
    for t in range(rounds):
        profile = [s.strategy for s in states]
        round_losses = [expected_loss_vector(game, i, profile) for i in range(game.num_players)]
        for i, loss in enumerate(round_losses):
            strategies[i][t], losses[i][t] = profile[i], loss
        states = [learners.step(s, loss) for s, loss in zip(states, round_losses)]
    return strategies, losses, states


class TestEngineMatchesReference:
    @settings(max_examples=80, deadline=None)
    @given(counts=st.lists(st.integers(1, 5), min_size=2, max_size=4),
           game_seed=st.integers(0, 2**16),
           modes=st.lists(st.sampled_from(learners.MODES), min_size=4, max_size=4),
           etas=st.lists(st.floats(0.01, 3.0), min_size=4, max_size=4),
           c_prime=st.sampled_from([0.0, learners.DEFAULT_C_PRIME]),
           rounds=st.integers(1, 48))
    # the adaptive player of this game switches at round 8
    @example(counts=[2, 2, 2], game_seed=20,
             modes=["adaptive_opt_hedge", "opt_hedge", "hedge", "hedge"],
             etas=[0.5] * 4, c_prime=0.0, rounds=48)
    # a Hedge group and an optimistic group whose adaptive member switches at round 4
    @example(counts=[3, 3, 3], game_seed=5,
             modes=["hedge", "opt_hedge", "adaptive_opt_hedge", "hedge"],
             etas=[0.3, 0.8, 2.0, 0.1], c_prime=0.0, rounds=48)
    # two optimistic groups, of two and three actions
    @example(counts=[2, 3, 3], game_seed=1, modes=["opt_hedge"] * 4,
             etas=[0.2, 0.5, 1.0, 0.1], c_prime=learners.DEFAULT_C_PRIME, rounds=48)
    # one group of four players, which form one cell
    @example(counts=[3, 3, 3, 3], game_seed=3, modes=["opt_hedge"] * 4,
             etas=[0.1, 0.4, 1.0, 2.0], c_prime=learners.DEFAULT_C_PRIME, rounds=48)
    # the adaptive second player, in the one cell of all four, switches at round 4
    @example(counts=[2, 2, 2, 2], game_seed=2,
             modes=["opt_hedge", "adaptive_opt_hedge", "opt_hedge", "opt_hedge"],
             etas=[0.4, 1.5, 0.7, 0.2], c_prime=0.0, rounds=48)
    # one group of five players: four opponents folded inside the one cell of all five,
    # whose two adaptive players switch at round 4
    @example(counts=[2, 2, 2, 2, 2], game_seed=0,
             modes=["opt_hedge", "adaptive_opt_hedge", "opt_hedge", "adaptive_opt_hedge",
                    "opt_hedge"],
             etas=[0.3, 1.5, 1.2, 2.0, 0.15], c_prime=0.0, rounds=48)
    # one group of two players, which form one cell; the adaptive last player
    # switches at round 4
    @example(counts=[3, 3], game_seed=2,
             modes=["opt_hedge", "adaptive_opt_hedge", "hedge", "hedge"],
             etas=[0.8, 2.0, 0.1, 0.1], c_prime=0.0, rounds=48)
    # a 1-action player, and an adaptive player that switches at round 4
    @example(counts=[3, 1, 2], game_seed=2,
             modes=["adaptive_opt_hedge", "hedge", "opt_hedge", "hedge"],
             etas=[2.0, 0.4, 0.9, 0.1], c_prime=0.0, rounds=48)
    # step sizes of exactly 1, which leave the exponent unshifted, and one ulp
    # above, which shift it, in each mode: players of one n and kind split into
    # two groups by the shift; in the third game the first and third players,
    # adaptive, switch at round 4
    @example(counts=[3, 3, 3], game_seed=1, modes=["hedge"] * 4,
             etas=[1.0, ABOVE_ONE, 1.0, 1.0], c_prime=0.0, rounds=48)
    @example(counts=[3, 3, 3], game_seed=1, modes=["opt_hedge"] * 4,
             etas=[ABOVE_ONE, 1.0, ABOVE_ONE, 1.0], c_prime=0.0, rounds=48)
    @example(counts=[2, 2, 2], game_seed=0, modes=["adaptive_opt_hedge"] * 4,
             etas=[1.0, ABOVE_ONE, ABOVE_ONE, 1.0], c_prime=0.0, rounds=48)
    # two optimistic players at eta = 0.5 and two at eta = 2: two groups of two
    @example(counts=[2, 2, 2, 2], game_seed=1, modes=["opt_hedge"] * 4,
             etas=[0.5, 2.0, 0.5, 2.0], c_prime=0.0, rounds=48)
    # the one cell of two adaptive players at eta = 2, viewing its stack
    # reversed; both switch at round 4 and keep shifting at eta_post < 1
    @example(counts=[3, 3], game_seed=0, modes=["adaptive_opt_hedge"] * 4,
             etas=[2.0] * 4, c_prime=0.0, rounds=48)
    # the one cell of two players at eta = 1, unshifted, and one ulp above, shifted
    @example(counts=[3, 3], game_seed=4, modes=["opt_hedge"] * 4,
             etas=[1.0] * 4, c_prime=0.0, rounds=48)
    @example(counts=[2, 2], game_seed=4, modes=["hedge"] * 4,
             etas=[ABOVE_ONE] * 4, c_prime=0.0, rounds=48)
    # two optimistic groups, of two actions (the first and last players) and of
    # three, in one family at B = 1; the adaptive first player switches at round
    # 8, inside a window of 2, 3 or 64 rounds
    @example(counts=[2, 3, 2], game_seed=41,
             modes=["adaptive_opt_hedge", "opt_hedge", "opt_hedge", "opt_hedge"],
             etas=[1.0, 0.6, 0.9, 0.1], c_prime=0.0, rounds=48)
    def test_run_and_streaming_match_step_loop(self, counts, game_seed, modes, etas,
                                               c_prime, rounds):
        game = random_game(len(counts), counts, seed=game_seed)
        configs = [LearnerConfig(mode=mode, eta=eta, c_prime=c_prime)
                   for mode, eta in zip(modes, etas[:len(counts)])]
        strategies, losses, states = reference_run(game, configs, rounds)
        for window in WINDOWS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dynamics, "WINDOW_ROUNDS", window)
                full = run(game, configs, rounds)
                stream = run_streaming(game, configs, rounds)
            for i in range(game.num_players):
                assert np.array_equal(full.strategies[i], strategies[i])
                assert np.array_equal(full.losses[i], losses[i])
            assert full.metadata.switch_rounds == tuple(s.switch_round for s in states)
            assert stream.metadata.switch_rounds == full.metadata.switch_rounds
            for i, entry in enumerate(regret_report(full)):
                assert np.array_equal(stream.final_strategies[i], states[i].strategy)
                assert abs(stream.cumulative_loss[i] - entry.cumulative_loss) <= 1e-12
                assert abs(stream.total_regret[i] - entry.total_regret) <= 1e-12
                np.testing.assert_allclose(stream.action_cumulative[i],
                                           full.losses[i].sum(axis=0), rtol=0, atol=1e-12)
                # the running sums add the rounds in order, as cumsum does: bit for bit
                played = np.cumsum(strategies[i] * losses[i], axis=0)[-1].sum()
                assert stream.cumulative_loss[i] == played
                assert np.array_equal(stream.action_cumulative[i],
                                      np.cumsum(losses[i], axis=0)[-1])

    def test_rounded_loss_above_one_at_eta_one(self):
        # player 1's row of ones has the expected loss 1.0000000000000002 under uniform
        # play, so at eta = 1 the first optimistic exponent is -2 - 4.4e-16: the engine
        # leaves it unshifted, as its flag says, and so must the reference steps
        base = random_game(2, (3, 18), seed=0)
        ones = base.loss_tensors[0].copy()
        ones[0] = 1.0
        game = Game(2, (3, 18), (ones, base.loss_tensors[1]))
        for mode in learners.MODES:
            configs = [LearnerConfig(mode=mode, eta=1.0)] * 2
            strategies, losses, states = reference_run(game, configs, 48)
            assert losses[0][0, 0] > 1.0
            full, stream = run(game, configs, 48), run_streaming(game, configs, 48)
            for i in range(2):
                assert np.array_equal(full.strategies[i], strategies[i]), (mode, i)
                assert np.array_equal(stream.final_strategies[i], states[i].strategy), (mode, i)


def extended_expected_loss(game, player, profile):
    """``expected_loss_vector`` in ``np.longdouble``, one opponent at a time from the last."""
    tensor = game.loss_tensors[player].astype(np.longdouble)
    for j in reversed(range(game.num_players)):
        if j != player:
            tensor = np.tensordot(tensor, profile[j].astype(np.longdouble), axes=([j], [0]))
    return tensor


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="np.longdouble is no wider than float64 here")
class TestContractionAccuracy:
    # one-player cells with a fold of two and of three opponents, and one cell of five players.
    # The whole right-folded joint times the loss matrix read up to 1.7e-15 on the 6^5 game.
    @pytest.mark.parametrize("counts, modes", [
        ((4, 3, 5, 6), ["opt_hedge"] * 4),
        ((4,) * 5, ["hedge"] + ["opt_hedge"] * 4),
        ((6,) * 5, ["opt_hedge"] * 5),
    ])
    def test_losses_near_extended_precision(self, counts, modes):
        game = random_game(len(counts), counts, seed=1)
        traj = run(game, [LearnerConfig(mode=mode, eta=0.5) for mode in modes], 32)
        worst = 0.0
        for t in range(traj.rounds):
            profile = [x[t] for x in traj.strategies]
            for i in range(game.num_players):
                exact = extended_expected_loss(game, i, profile)
                worst = max(worst, float(np.max(abs(traj.losses[i][t] - exact) / exact)))
        assert worst < 1e-15


class TestCsvExports:
    def test_trajectory_round_trip(self, tmp_path):
        game = random_game(2, (2, 3), seed=17)
        traj = run(game, [LearnerConfig(eta=0.05)] * 2, 20)
        path = tmp_path / "trajectory.csv"
        trajectory_to_csv(traj, path)
        strategies, losses = trajectory_from_csv(path)
        for i in range(2):
            np.testing.assert_array_equal(strategies[i], traj.strategies[i])
            np.testing.assert_array_equal(losses[i], traj.losses[i])

    def test_trajectory_format(self, tmp_path):
        traj = run(named_game("matching_pennies"), [LearnerConfig(eta=0.05)] * 2, 3)
        path = tmp_path / "trajectory.csv"
        trajectory_to_csv(traj, path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "round,player,kind,action,value"
        assert len(lines) == 1 + 3 * 2 * 2 * 2  # T * players * kinds * actions
        assert lines[1].startswith("1,1,strategy,1,")

    def test_rows_across_blocks(self, tmp_path):
        # a 2x3x2 round has 14 trajectory rows and 3 regret rows, neither
        # dividing the 1,024-row blocks, so rounds are cut at block edges
        game = random_game(3, (2, 3, 2), seed=19)
        traj = run(game, [LearnerConfig(eta=0.2)] * 3, 700)
        trajectory_to_csv(traj, tmp_path / "trajectory.csv")
        expected = [f"{t + 1},{i + 1},{kind},{j + 1},{format(float(hist[i][t, j]), '.17g')}"
                    for t in range(700) for i in range(3)
                    for kind, hist in (("strategy", traj.strategies), ("loss", traj.losses))
                    for j in range(game.action_counts[i])]
        assert (tmp_path / "trajectory.csv").read_text().splitlines()[1:] == expected
        entries = regret_report(traj)
        regret_curves_to_csv(entries, tmp_path / "regret_curve.csv")
        expected = [f"{t + 1},{e.player + 1},{format(float(e.curve[t]), '.17g')}"
                    for t in range(700) for e in entries]
        assert (tmp_path / "regret_curve.csv").read_text().splitlines()[1:] == expected

    def test_regret_curve_rows(self, tmp_path):
        for game in (named_game("matching_pennies"), random_game(2, (2, 3), seed=17)):
            entries = regret_report(run(game, [LearnerConfig(eta=0.05)] * 2, 7))
            path = tmp_path / "regret_curve.csv"
            regret_curves_to_csv(entries, path)
            raw = path.read_bytes()
            assert b"\r" not in raw
            lines = raw.decode().splitlines()
            assert lines[0] == "round,player,regret"
            assert len(lines) == 1 + 7 * 2
            assert lines[1:] == [f"{t + 1},{e.player + 1},{format(float(e.curve[t]), '.17g')}"
                                 for t in range(7) for e in entries]
