"""The expected-loss oracle that the engine's bitwise tests compare against."""

from functools import reduce
from typing import Sequence

import numpy as np

from regretsim.game import Game, loss_matrix


def expected_loss_vector(game: Game, player: int, strategies: Sequence[np.ndarray]) -> np.ndarray:
    """Expected loss per action of ``player`` against the opponents' mixed strategies.

    ``strategies`` is the full strategy profile (length m); entry ``player``
    is ignored. Component j equals the expectation of the player's loss when
    playing j while every opponent i' draws from ``strategies[i']``. The
    opponents' joint is folded from the right, x_j1 * (x_j2 * (... * x_jk))
    over the opponents j1 < j2 < ... < jk, in ``loss_matrix``'s row-major
    profile order; the engine forms the same products, so it matches this
    function bit for bit.
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
    opponents = [np.asarray(s, dtype=np.float64) for j, s in enumerate(strategies) if j != player]
    joint = reduce(lambda product, x: np.multiply.outer(x, product), opponents[::-1])
    return loss_matrix([game], player)[0] @ joint.reshape(-1)
