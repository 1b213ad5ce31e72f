"""Normal-form multi-player games with losses in [0, 1].

A game stores one dense loss tensor per player, indexed by joint action
profiles in row-major order over (a_1, ..., a_m). Players and actions are
0-indexed throughout the Python API; file formats and report text use the
1-indexed convention. ``write_csv`` and ``write_json`` fix the format of
every file the package writes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

# Most rows that ``write_csv`` formats at once.
CSV_BLOCK_ROWS = 1024

NAMED_GAMES = (
    "matching_pennies",
    "rock_paper_scissors",
    "coordination_2x2",
    "prisoners_dilemma_rescaled",
)


@dataclass(frozen=True, eq=False)
class Game:
    """An m-player normal-form game.

    ``loss_tensors[i]`` holds player i's loss for every joint action profile;
    for a well-formed game it has shape ``action_counts`` and values in
    [0, 1]. Instances are immutable and safe to share across threads.
    """

    num_players: int
    action_counts: tuple[int, ...]
    loss_tensors: tuple[np.ndarray, ...]
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "action_counts", tuple(int(n) for n in self.action_counts))
        shaped = []
        expected = _profile_count(self.action_counts)
        for raw in self.loss_tensors:
            arr = np.asarray(raw, dtype=np.float64)
            if arr.size == expected and min(self.action_counts, default=0) > 0:
                arr = arr.reshape(self.action_counts)
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            shaped.append(arr)
        object.__setattr__(self, "loss_tensors", tuple(shaped))

    @property
    def profile_count(self) -> int:
        return _profile_count(self.action_counts)


def _profile_count(action_counts: Sequence[int]) -> int:
    return math.prod(int(n) for n in action_counts) if action_counts else 0


def uniform_strategy(n: int) -> np.ndarray:
    """Uniform mixed strategy on n actions."""
    if n < 1:
        raise ValueError(f"action count must be >= 1, got {n}")
    return np.full(n, 1.0 / n)


def validate_game(game: Game) -> list[str]:
    """Check all game invariants; returns a list of violations (empty = ok).

    Violations name the offending player and profile with 1-indexed labels.
    Only the first out-of-range entry per tensor is reported.
    """
    violations: list[str] = []
    m = game.num_players
    if m < 2:
        violations.append(f"game must have at least 2 players, got {m}")
    if len(game.action_counts) != m:
        violations.append(
            f"action_counts has {len(game.action_counts)} entries, expected {m}"
        )
    for i, n in enumerate(game.action_counts):
        if n < 1:
            violations.append(f"player {i + 1} action count must be >= 1, got {n}")
    if len(game.loss_tensors) != m:
        violations.append(
            f"game has {len(game.loss_tensors)} loss tensors, expected {m}"
        )
    expected = game.profile_count
    for i, tensor in enumerate(game.loss_tensors):
        if tensor.size != expected:
            violations.append(
                f"tensor size mismatch for player {i + 1}: "
                f"{tensor.size} entries, expected {expected}"
            )
            continue
        flat = tensor.reshape(-1)
        # NaN and +-inf fail one of the two comparisons
        bad = ~((flat >= 0.0) & (flat <= 1.0))
        if bad.any():
            k = int(np.argmax(bad))
            profile = np.unravel_index(k, game.action_counts)
            label = tuple(int(a) + 1 for a in profile)
            violations.append(
                f"loss outside [0, 1] at player {i + 1}, profile {label}: {float(flat[k])!r}"
            )
    return violations


def joint_action_loss(game: Game, player: int, profile: Sequence[int]) -> float:
    """Loss experienced by ``player`` at the joint action ``profile`` (0-indexed)."""
    if not 0 <= player < game.num_players:
        raise IndexError(f"player index {player} out of range for {game.num_players} players")
    if len(profile) != game.num_players:
        raise ValueError(
            f"profile has {len(profile)} actions, expected {game.num_players}"
        )
    for j, (a, n) in enumerate(zip(profile, game.action_counts)):
        if not 0 <= a < n:
            raise IndexError(f"action {a} out of range [0, {n}) for player {j}")
    return float(game.loss_tensors[player][tuple(int(a) for a in profile)])


def loss_matrix(game: Game, player: int) -> np.ndarray:
    """Player's loss tensor as an (n_i, prod n_{-i}) matrix.

    Row j holds the losses of action j against every opponent profile, with
    opponent profiles flattened in row-major order. It is C-ordered for every
    player: a view of the tensor for player 0, a copy otherwise.
    """
    matrix = np.moveaxis(game.loss_tensors[player], player, 0)
    return np.ascontiguousarray(matrix).reshape(game.action_counts[player], -1)


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
    return loss_matrix(game, player) @ joint.reshape(-1)


def random_game(m: int, action_counts: Sequence[int], seed: int,
                name: str | None = None) -> Game:
    """Game with i.i.d. uniform [0, 1] losses from a seeded generator.

    The same seed yields a bit-identical game.
    """
    action_counts = tuple(int(n) for n in action_counts)
    if m < 2:
        raise ValueError(f"need at least 2 players, got {m}")
    if len(action_counts) != m:
        raise ValueError(
            f"action_counts has {len(action_counts)} entries, expected {m}"
        )
    if any(n < 1 for n in action_counts):
        raise ValueError(f"all action counts must be >= 1, got {action_counts}")
    rng = np.random.default_rng(seed)
    tensors = tuple(rng.random(action_counts) for _ in range(m))
    return Game(m, action_counts, tensors, name=name or f"random_{seed}")


def named_game(name: str) -> Game:
    """Canonical 2-player fixtures with payoffs rescaled into [0, 1] losses."""
    if name == "matching_pennies":
        l1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        return Game(2, (2, 2), (l1, 1.0 - l1), name=name)
    if name == "rock_paper_scissors":
        # l1[a, b]: 0 when a beats b, 1 when a loses, 0.5 on ties.
        l1 = np.full((3, 3), 0.5)
        for winner, loser in ((0, 2), (1, 0), (2, 1)):
            l1[winner, loser] = 0.0
            l1[loser, winner] = 1.0
        return Game(2, (3, 3), (l1, 1.0 - l1), name=name)
    if name == "coordination_2x2":
        mismatch = np.array([[0.0, 1.0], [1.0, 0.0]])
        return Game(2, (2, 2), (mismatch, mismatch.copy()), name=name)
    if name == "prisoners_dilemma_rescaled":
        # Classic gains T=5, R=3, P=1, S=0 mapped to losses via (5 - gain) / 5.
        gains_row = np.array([[3.0, 0.0], [5.0, 1.0]])
        l1 = (5.0 - gains_row) / 5.0
        return Game(2, (2, 2), (l1, l1.T.copy()), name=name)
    raise ValueError(f"unknown game name {name!r}; known: {', '.join(NAMED_GAMES)}")


def game_to_dict(game: Game) -> dict:
    """JSON-ready mapping: players, actions, and flat row-major loss tensors."""
    return {
        "players": game.num_players,
        "actions": list(game.action_counts),
        "losses": [t.reshape(-1).tolist() for t in game.loss_tensors],
    }


def game_from_dict(data: dict, name: str | None = None) -> Game:
    """Game from ``game_to_dict``'s layout; a ValueError names each ``validate_game`` violation."""
    for key in ("players", "actions", "losses"):
        if not isinstance(data, dict) or key not in data:
            raise ValueError(f"game JSON missing required key {key!r}")
    try:
        m = json_int(data["players"], "players")
        actions = tuple(json_int(n, "actions") for n in data["actions"])
        tensors = tuple(np.asarray(flat, dtype=np.float64) for flat in data["losses"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"game JSON: bad players, actions or losses: {exc}") from exc
    if any(t.ndim != 1 for t in tensors):
        raise ValueError("game JSON: each loss tensor must be a flat list")
    game = Game(m, actions, tensors, name=name)
    violations = validate_game(game)
    if violations:
        raise ValueError("game JSON: " + "; ".join(violations))
    return game


def json_int(value, field: str) -> int:
    """``value`` if its type is int, so not bool or float; else a ValueError naming ``field``."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def save_game_json(game: Game, path) -> None:
    write_json(game_to_dict(game), path)


def load_game_json(path) -> Game:
    with open(path) as fh:
        data = json.load(fh)
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return game_from_dict(data, name=stem)


def write_csv(path, header: Sequence[str], blocks: Iterable[tuple],
              labels: Sequence[tuple] = ((),)) -> None:
    """Stream ``blocks`` of rows under ``header`` to an LF-terminated CSV file.

    A block is a tuple of equal-length columns, each a NumPy array (read with
    ``tolist``) or a sequence. Row r of a block holds its first column's cell,
    then the cells of ``labels[r % len(labels)]``, then its other columns'
    cells, so a block holds whole periods of ``labels``. The labels are baked
    into the row format, and a block is formatted ``CSV_BLOCK_ROWS`` rows (or
    one period) at a time with one ``%`` call. Float cells get 17 significant
    digits, enough to read back the same double in any locale; every other
    cell and label is written with ``str``. The first row's cell types fix the
    layout, so each column holds one type.
    """
    fmt, period = None, len(labels)
    step = max(1, CSV_BLOCK_ROWS // period) * period
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            for start in range(0, len(block[0]), step):
                columns = [c[start:start + step] for c in block]
                columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
                if fmt is None:
                    first, *rest = ("%.17g" if isinstance(c[0], float) else "%s" for c in columns)
                    fmt = "".join(",".join([first, *(str(cell).replace("%", "%%") for cell in row),
                                            *rest]) + "\n" for row in labels)
                cells = [None] * (len(columns) * len(columns[0]))
                for j, column in enumerate(columns):
                    cells[j::len(columns)] = column
                fh.write(fmt * (len(columns[0]) // period) % tuple(cells))


def write_json(data, path) -> None:
    """Write ``data`` as indented, key-sorted, LF-terminated JSON."""
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
