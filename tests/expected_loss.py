"""The expected-loss oracle that the engine's bitwise tests compare against."""

from functools import reduce
from typing import Sequence

import numpy as np

from regretsim.game import Game, loss_matrix


def expected_loss_vector(game: Game, player: int, strategies: Sequence[np.ndarray]) -> np.ndarray:
    """Expected loss per action of ``player`` against the opponents' mixed strategies.

    ``strategies`` is the full strategy profile (length m); entry ``player``
    is ignored. Component j equals the expectation of the player's loss when
    playing j while every opponent i' draws from ``strategies[i']``. Of the
    opponents j1 < j2 < ... < jk, all but the first are folded from the right,
    x_j2 * (x_j3 * (... * x_jk)), in ``loss_matrix``'s row-major profile order.
    The (n_i n_j1, N / n_j1) view of the loss matrix times that joint gives an
    (n_i, n_j1) matrix, which times x_j1 gives the losses; one opponent is
    contracted in one product. The engine forms the same products in the same
    order, so it matches this function bit for bit.
    """
    if not 0 <= player < game.num_players:
        raise IndexError(f"player index {player} out of range")
    if len(strategies) != game.num_players:
        raise ValueError(
            f"expected {game.num_players} strategies, got {len(strategies)}"
        )
    for j in range(game.num_players):
        if j != player and len(strategies[j]) != game.action_counts[j]:
            raise ValueError(
                f"strategy for player {j} has length {len(strategies[j])}, "
                f"expected {game.action_counts[j]}"
            )
    first, *rest = [np.asarray(s, dtype=np.float64) for j, s in enumerate(strategies)
                    if j != player]
    matrix = loss_matrix([game], player)[0]
    if not rest:
        return matrix @ first
    joint = reduce(lambda product, x: np.multiply.outer(x, product), rest[::-1])
    n = game.action_counts[player]
    return (matrix.reshape(n * len(first), -1) @ joint.reshape(-1)).reshape(n, -1) @ first
