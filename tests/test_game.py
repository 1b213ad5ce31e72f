"""Tests for game construction, validation, and expected-loss evaluation."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regretsim import (
    Game,
    expected_loss_vector,
    load_game_json,
    named_game,
    random_game,
    save_game_json,
    validate_game,
)
from regretsim.game import (AUDIT_BLOCK_ROWS, _profile_count, game_from_dict, game_to_dict,
                            loss_matrix, write_csv, write_json)


def small_random_games():
    for m, counts in [(2, (2, 2)), (2, (3, 4)), (3, (2, 3, 2)), (4, (2, 2, 2, 2))]:
        yield random_game(m, counts, seed=m * 10 + counts[0])


def _enumeration_oracle(game, player, strategies):
    """Sum of loss times probability over every opponent profile."""
    counts = game.action_counts
    out = np.zeros(counts[player])
    opponents = [j for j in range(game.num_players) if j != player]
    for profile in itertools.product(*[range(counts[j]) for j in opponents]):
        weight = math.prod(strategies[j][a] for j, a in zip(opponents, profile))
        for k in range(counts[player]):
            joint = list(profile)
            joint.insert(player, k)
            out[k] += weight * game.loss_tensors[player][tuple(joint)]
    return out


def _einsum_oracle(game, player, strategies):
    m = game.num_players
    operands = [game.loss_tensors[player], list(range(m))]
    for j in range(m):
        if j != player:
            operands += [strategies[j], [j]]
    return np.einsum(*operands, [player])


class TestValidateGame:
    def test_matching_pennies_ok(self):
        assert validate_game(named_game("matching_pennies")) == []

    def test_loss_out_of_range(self):
        l1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        l2 = np.array([[0.0, 1.5], [1.0, 0.0]])
        violations = validate_game(Game(2, (2, 2), (l1, l2)))
        assert len(violations) == 1
        assert "player 2" in violations[0]
        assert "(1, 2)" in violations[0]

    def test_tensor_size_mismatch(self):
        l1 = np.zeros(3)  # one entry short of 2x2
        violations = validate_game(Game(2, (2, 2), (l1, np.zeros((2, 2)))))
        assert any("size mismatch" in v for v in violations)

    def test_too_few_players(self):
        violations = validate_game(Game(1, (2,), (np.zeros(2),)))
        assert any("at least 2 players" in v for v in violations)

    def test_non_finite_reported(self):
        for value in (math.nan, math.inf, -math.inf):
            l2 = np.full((2, 3, 2), 0.5)
            l2[1, 0, 1] = value
            l2[1, 2, 0] = -value  # only the first offending profile is reported
            game = Game(3, (2, 3, 2), (np.zeros((2, 3, 2)), l2, np.ones((2, 3, 2))))
            assert validate_game(game) == [
                f"loss outside [0, 1] at player 2, profile (2, 1, 2): {value!r}"]

    def test_game_keeps_no_view_of_the_callers_losses(self):
        a, b = np.full((3, 3), 0.5), np.full((3, 3), 0.5)
        read_only = a.view()
        read_only.setflags(write=False)  # read-only, but a view of the writeable a
        games = [Game(2, (3, 3), (a, b)), Game(2, (3, 3), (read_only, b))]
        a[0, 0] = 7.0
        for game in games:
            assert game.loss_tensors[0][0, 0] == 0.5
            assert validate_game(game) == []

    def test_no_input_form_lets_the_caller_change_the_game(self):
        class Sub(np.ndarray):
            pass

        class Wrapper:
            def __init__(self, data):
                self.data = data

            def __array__(self, dtype=None, copy=None):
                return self.data

        base = np.full((3, 3), -0.0)
        inputs = {
            "float64": (base.copy(), lambda a: a),
            "float32": (base.astype(np.float32), lambda a: a),
            "view": (base.copy(), lambda a: a[::-1][::-1]),
            "subclass": (base.copy(), lambda a: a.view(Sub)),
            "float32 subclass": (base.astype(np.float32), lambda a: a.view(Sub)),
            "__array__": (base.copy(), Wrapper),
        }
        for name, (owned, wrap) in inputs.items():
            game = Game(2, (3, 3), (wrap(owned), np.zeros((3, 3))))
            owned[:] = 7.0
            tensor = game.loss_tensors[0]
            assert not np.shares_memory(tensor, owned), name
            assert np.array_equal(tensor, np.zeros((3, 3))), name
            assert not np.signbit(tensor).any() and not tensor.flags.writeable, name
            assert validate_game(game) == [], name

    def test_profile_count_exact_past_int64(self):
        assert _profile_count((10**10, 10**10)) == 10**20


class TestExpectedLossVector:
    def test_matching_pennies_uniform_opponent(self):
        game = named_game("matching_pennies")
        ell = expected_loss_vector(game, 0, [None, np.array([0.5, 0.5])])
        np.testing.assert_allclose(ell, [0.5, 0.5], atol=1e-15)

    def test_matching_pennies_point_mass_opponent(self):
        game = named_game("matching_pennies")
        ell = expected_loss_vector(game, 0, [None, np.array([1.0, 0.0])])
        np.testing.assert_allclose(ell, [1.0, 0.0], atol=0)

    def test_constant_three_player(self):
        c = 0.375
        tensors = tuple(np.full((2, 3, 2), c) for _ in range(3))
        game = Game(3, (2, 3, 2), tensors)
        strategies = [np.full(n, 1 / n) for n in (2, 3, 2)]
        for i in range(3):
            ell = expected_loss_vector(game, i, strategies)
            np.testing.assert_allclose(ell, c, atol=1e-15)

    def test_dimension_mismatch(self):
        game = named_game("matching_pennies")
        with pytest.raises(ValueError):
            expected_loss_vector(game, 0, [None, np.array([0.5, 0.25, 0.25])])
        with pytest.raises(ValueError):
            expected_loss_vector(game, 0, [np.array([0.5, 0.5])])

    def test_multilinearity_in_one_opponent(self):
        rng = np.random.default_rng(7)
        game = random_game(2, (3, 4), seed=2)
        u = rng.dirichlet(np.ones(4))
        v = rng.dirichlet(np.ones(4))
        for lam in (0.0, 0.25, 0.7, 1.0):
            mix = lam * u + (1 - lam) * v
            lhs = expected_loss_vector(game, 0, [None, mix])
            rhs = (lam * expected_loss_vector(game, 0, [None, u])
                   + (1 - lam) * expected_loss_vector(game, 0, [None, v]))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_point_masses_match_joint_action_loss(self):
        # brute-force equivalence on all profiles of games with <= 64 profiles
        for game in small_random_games():
            counts = game.action_counts
            for profile in itertools.product(*[range(n) for n in counts]):
                strategies = [np.eye(n)[a] for a, n in zip(profile, counts)]
                for i in range(game.num_players):
                    ell = expected_loss_vector(game, i, strategies)
                    for j in range(counts[i]):
                        deviated = list(profile)
                        deviated[i] = j
                        assert ell[j] == pytest.approx(
                            game.loss_tensors[i][tuple(deviated)], abs=1e-12)

    def test_enumeration_and_contraction_agree(self):
        # the explicit sum over opponent profiles and the einsum contraction
        # both agree with expected_loss_vector
        rng = np.random.default_rng(3)
        for game in small_random_games():
            strategies = [rng.dirichlet(np.ones(n)) for n in game.action_counts]
            for i in range(game.num_players):
                ell = expected_loss_vector(game, i, strategies)
                np.testing.assert_allclose(
                    ell, _enumeration_oracle(game, i, strategies), rtol=0, atol=1e-12)
                np.testing.assert_allclose(
                    ell, _einsum_oracle(game, i, strategies), rtol=0, atol=1e-12)

    def test_contraction_route_above_enumeration_limit(self):
        # player 0 faces 120001 opponent profiles
        rng = np.random.default_rng(30)
        game = random_game(2, (2, 120_001), seed=19)
        strategies = [rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(120_001))]
        for i in range(2):
            np.testing.assert_allclose(
                expected_loss_vector(game, i, strategies),
                _einsum_oracle(game, i, strategies), rtol=0, atol=1e-12)

    # on these seeds a left fold, ((x_j1 * x_j2) * ...) * x_jk, differs in the last bits
    @pytest.mark.parametrize("counts, seed", [((3, 2, 4, 3), 0), ((2, 3, 2, 3, 2), 3)])
    def test_opponents_folded_from_the_right(self, counts, seed):
        game = random_game(len(counts), counts, seed=seed)
        rng = np.random.default_rng(seed)
        strategies = [rng.dirichlet(np.ones(n)) for n in counts]
        for i in range(game.num_players):
            *factors, joint = [x for j, x in enumerate(strategies) if j != i]
            for x in reversed(factors):
                joint = np.multiply.outer(x, joint)
            assert np.array_equal(expected_loss_vector(game, i, strategies),
                                  loss_matrix(game, i) @ joint.reshape(-1))


class TestLossMatrix:
    @pytest.mark.parametrize("counts", [(2, 3), (3, 2, 4), (2, 4, 3, 2)])
    def test_matches_moveaxis_layout(self, counts):
        game = random_game(len(counts), counts, seed=len(counts))
        for i, tensor in enumerate(game.loss_tensors):
            expected = np.moveaxis(tensor, i, 0).reshape(counts[i], -1)
            matrix = loss_matrix(game, i)
            assert np.array_equal(matrix, expected)
            # one layout for every player: a view only for player 0, a C copy otherwise
            assert matrix.flags.c_contiguous
            assert np.shares_memory(matrix, tensor) == (i == 0)


class TestRandomGame:
    def test_determinism(self):
        g1 = random_game(2, (2, 2), seed=7)
        g2 = random_game(2, (2, 2), seed=7)
        for t1, t2 in zip(g1.loss_tensors, g2.loss_tensors):
            assert np.array_equal(t1, t2)

    def test_shapes_and_range(self):
        game = random_game(3, (2, 3, 2), seed=1)
        assert len(game.loss_tensors) == 3
        for tensor in game.loss_tensors:
            assert tensor.size == 12
            assert tensor.min() >= 0.0 and tensor.max() <= 1.0
        assert validate_game(game) == []

    def test_single_player_rejected(self):
        with pytest.raises(ValueError):
            random_game(1, (2,), seed=0)

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            random_game(2, (2, 0), seed=0)
        with pytest.raises(ValueError):
            random_game(3, (2, 2), seed=0)

    def test_random_game_tensors_are_not_copied_again(self):
        tracemalloc.start()
        try:
            game = random_game(2, (256, 256), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tensors = sum(t.nbytes for t in game.loss_tensors)
        # a second copy of each fresh tensor would double the peak
        assert peak < 1.5 * tensors, (peak, tensors)


class TestNamedGames:
    def test_matching_pennies_tensor(self):
        game = named_game("matching_pennies")
        for a in range(2):
            for b in range(2):
                expected = 1.0 if a == b else 0.0
                assert game.loss_tensors[0][a, b] == expected
                assert game.loss_tensors[1][a, b] == 1.0 - expected

    def test_rock_paper_scissors(self):
        game = named_game("rock_paper_scissors")
        assert game.action_counts == (3, 3)
        l1 = game.loss_tensors[0]
        assert np.all(np.diag(l1) == 0.5)
        assert set(np.unique(l1)) == {0.0, 0.5, 1.0}
        np.testing.assert_array_equal(game.loss_tensors[1], 1.0 - l1)

    def test_all_fixtures_valid(self):
        for name in ("matching_pennies", "rock_paper_scissors",
                     "coordination_2x2", "prisoners_dilemma_rescaled"):
            assert validate_game(named_game(name)) == [], name

    def test_prisoners_dilemma_defection_dominates(self):
        game = named_game("prisoners_dilemma_rescaled")
        for b in range(2):
            assert game.loss_tensors[0][1, b] < game.loss_tensors[0][0, b]

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_game("unknown")


class TestGameJson:
    def test_round_trip(self, tmp_path):
        game = random_game(3, (2, 3, 2), seed=9)
        path = tmp_path / "g.json"
        save_game_json(game, path)
        loaded = load_game_json(path)
        assert loaded.num_players == game.num_players
        assert loaded.action_counts == game.action_counts
        for t1, t2 in zip(loaded.loss_tensors, game.loss_tensors):
            assert np.array_equal(t1, t2)

    def test_game_from_dict_tensors_are_not_copied_again(self):
        data = game_to_dict(random_game(2, (256, 256), seed=0))
        tracemalloc.start()
        try:
            game = game_from_dict(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        tensors = sum(t.nbytes for t in game.loss_tensors)
        # a second copy of each fresh tensor would double the peak
        assert peak < 1.5 * tensors, (peak, tensors)

    def test_dict_keys(self):
        data = game_to_dict(named_game("matching_pennies"))
        assert set(data) == {"players", "actions", "losses"}
        assert data["losses"][0] == [1.0, 0.0, 0.0, 1.0]

    def test_rejects_out_of_range_value(self):
        data = game_to_dict(named_game("matching_pennies"))
        data["losses"][0][1] = 1.5
        with pytest.raises(ValueError, match="outside"):
            game_from_dict(data)

    def test_out_of_range_error_names_player_and_profile(self):
        data = game_to_dict(named_game("matching_pennies"))
        data["losses"][1][2] = -0.25  # player 2, profile (a_1, a_2) = (2, 1)
        with pytest.raises(ValueError, match=r"player 2, profile \(2, 1\): -0\.25"):
            game_from_dict(data)

    def test_rejects_non_finite(self):
        data = game_to_dict(named_game("matching_pennies"))
        data["losses"][0][1] = math.nan
        with pytest.raises(ValueError):
            game_from_dict(data)

    def test_rejects_size_mismatch(self):
        data = game_to_dict(named_game("matching_pennies"))
        data["losses"][0] = data["losses"][0][:3]
        with pytest.raises(ValueError, match="entries"):
            game_from_dict(data)

    def test_rejects_single_player(self):
        with pytest.raises(ValueError):
            game_from_dict({"players": 1, "actions": [2], "losses": [[0.0, 1.0]]})

    def test_rejects_negative_action_counts(self):
        with pytest.raises(ValueError, match="player 1 action count must be >= 1"):
            game_from_dict({"players": 2, "actions": [-1, -2], "losses": [[0.0, 1.0]] * 2})

    def test_rejects_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            game_from_dict({"players": 2, "actions": [2, 2]})


def per_row_csv(header, columns):
    """The CSV text of ``columns`` formatted row by row: ``'%.17g'`` for floats, else ``'%s'``."""
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    return ",".join(header) + "\n" + "".join(
        ",".join("%.17g" % cell if isinstance(cell, float) else "%s" % cell for cell in row) + "\n"
        for row in rows)


class TestWriteCsv:
    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1.0, 1e300]
    # the fast float path's domain bounds and neighbours; in its two-product
    # range an exact tie and two fractions within 1e-15 of one; exponents that
    # log10 or rounding can misplace (1e-14 rounds up to a power of ten); signs
    EDGES = [1e-26, np.nextafter(1e-26, 0), np.nextafter(1e-26, 1), 1e15, np.nextafter(1e15, 0),
             np.nextafter(1e15, 2e15), 2.0**-25, 4.9102966142601843e-08, 9.895086944612226e-10,
             9.9999999999999996e-24, 0.99999999999999989, 1e-14, 123456789012345.67, -1e-5, -0.0]
    INT_EDGES = [0, -3, 10**15]

    def test_float_and_int_branch_edges(self, tmp_path):
        floats = np.array(self.EDGES)
        ints = np.resize(np.array(self.INT_EDGES), len(floats))
        reference = per_row_csv(("i", "v"), (ints, floats)).encode()
        write_csv(tmp_path / "a.csv", ("i", "v"), [(ints, floats)])
        write_csv(tmp_path / "b.csv", ("i", "v"), [(ints.tolist(), floats.tolist())])
        for name in ("a.csv", "b.csv"):
            assert (tmp_path / name).read_bytes() == reference

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(-2**63, 2**63 - 1)),
                    min_size=1, max_size=40))
    @example([(0x7FF8000000000001, 0), (0xFFF0000000000000, -1), (0x7FF0000000000000, 1),
              (0x8000000000000000, -2**63), (0, 2**63 - 1), (1, 10**17), (0x800FFFFFFFFFFFFF, -10)])
    def test_bit_patterns_match_per_row_formatting(self, tmp_path_factory, rows):
        bits, ints = zip(*rows)
        floats = np.array(bits, dtype=np.uint64).view(np.float64)
        ints = np.array(ints, dtype=np.int64)
        path = tmp_path_factory.mktemp("bits") / "a.csv"
        write_csv(path, ("v", "i"), [(floats, ints)])
        assert path.read_bytes() == per_row_csv(("v", "i"), (floats, ints)).encode()

    def test_uniform_values_take_the_fast_path(self, tmp_path, monkeypatch):
        def fallback(value):
            raise AssertionError(f"{value!r} went to the fallback")

        values = np.random.default_rng(20).random(10**5)
        monkeypatch.setattr("regretsim.game._format_float", fallback)
        write_csv(tmp_path / "u.csv", ("value",), [(values,)])
        assert (tmp_path / "u.csv").read_bytes() == per_row_csv(("value",), (values,)).encode()

    B = AUDIT_BLOCK_ROWS  # the most rows an exporter puts in one block

    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 2 * B + 1],
                             ids=["0", "1", "B-1", "B", "B+1", "2B+1"])
    def test_matches_per_row_formatting(self, rows, tmp_path):
        rng = np.random.default_rng(rows)
        floats = np.where(np.arange(rows) % 3 == 0, rng.random(rows),
                          np.resize(np.array(self.SPECIAL), rows))
        ints = list(range(-3, rows - 3))
        labels = [("strategy", "loss")[k % 2] for k in range(rows)]
        reference = "order,kind,value\n" + "".join(
            "%s,%s,%.17g\n" % row for row in zip(ints, labels, floats.tolist()))
        # one block of NumPy arrays, then uneven blocks of lists
        write_csv(tmp_path / "a.csv", ("order", "kind", "value"),
                  [(np.array(ints, dtype=int), np.array(labels), floats)])
        cuts = [0, min(rows, 700), rows]
        write_csv(tmp_path / "b.csv", ("order", "kind", "value"),
                  [(ints[a:b], labels[a:b], floats[a:b].tolist())
                   for a, b in zip(cuts, cuts[1:]) if b > a])
        for name in ("a.csv", "b.csv"):
            assert (tmp_path / name).read_bytes() == reference.encode()

    @pytest.mark.parametrize("period, periods", [(1, 2 * B + 1), (3, 700), (B + 76, 2)],
                             ids=["1-2B+1", "3-700", "B+76-2"])
    def test_labels_match_per_row_formatting(self, period, periods, tmp_path):
        rows = period * periods
        floats = np.resize(np.array(self.SPECIAL), rows)
        labels = [(k % 7, ("strategy", "100%s")[k % 2]) for k in range(period)]
        reference = "t,label,kind,value\n" + "".join(
            "%s,%s,%s,%.17g\n" % (r // period, *labels[r % period], v)
            for r, v in enumerate(floats.tolist()))
        # blocks of whole periods, split at a period that is not a chunk boundary;
        # the first column holds one cell per period
        cut = periods // 2
        write_csv(tmp_path / "a.csv", ("t", "label", "kind", "value"),
                  [(np.arange(a, b), floats[a * period:b * period])
                   for a, b in ((0, cut), (cut, periods))], labels)
        assert (tmp_path / "a.csv").read_bytes() == reference.encode()

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, B + 50), st.integers(0, 4), st.integers(0, 2**32 - 1), st.data())
    def test_periods_across_chunk_edges_match_per_row_formatting(self, tmp_path_factory, period,
                                                                 edge, seed, data):
        # exporters cut B // period whole periods into a block, one if period > B
        chunk = max(1, self.B // period)
        periods = max(1, [1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1][edge])
        rng = np.random.default_rng(seed)
        firsts = rng.integers(-2**63, 2**63 - 1, periods, dtype=np.int64)
        firsts >>= rng.integers(0, 64, periods)  # every width, and negatives
        firsts[seed % periods] = -2**63
        rows = periods * period
        floats = np.where(rng.random(rows) < 0.5,
                          rng.integers(0, 2**64, rows, dtype=np.uint64).view(np.float64),
                          rng.random(rows) * 10.0 ** rng.integers(-28, 17, rows))
        labels = [(k % 7, ("strategy", "100%s")[k % 2]) for k in range(period)]
        cut = data.draw(st.integers(0, periods))
        path = tmp_path_factory.mktemp("periods") / "a.csv"
        header = ("t", "label", "kind", "value")
        write_csv(path, header, [(firsts[a:b], floats[a * period:b * period])
                                 for a, b in ((0, cut), (cut, periods))], labels)
        label_columns = [[row[j] for row in labels] * periods for j in range(2)]
        assert path.read_bytes() == per_row_csv(
            header, (firsts.repeat(period), *label_columns, floats)).encode()

    def test_zero_stride_column_matches_a_full_one(self, tmp_path):
        t = np.arange(1, 2 * self.B + 2)
        values = np.random.default_rng(5).random(len(t))
        write_csv(tmp_path / "a.csv", ("order", "t", "value"),
                  [(np.broadcast_to(h, len(t)), t, values) for h in (0, -12)])
        write_csv(tmp_path / "b.csv", ("order", "t", "value"),
                  [(np.full(len(t), h), t, values) for h in (0, -12)])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestWriteJson:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rejected(self, value, tmp_path):
        with pytest.raises(ValueError):
            write_json({"regret": [0.5, value]}, tmp_path / "a.json")
        assert not (tmp_path / "a.json").exists()  # rejected before the file is opened
