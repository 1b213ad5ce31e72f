"""Normal-form multi-player games with losses in [0, 1].

A game stores one dense loss tensor per player, indexed by joint action
profiles in row-major order over (a_1, ..., a_m). Players and actions are
0-indexed throughout the Python API; file formats and report text use the
1-indexed convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

NAMED_GAMES = (
    "matching_pennies",
    "rock_paper_scissors",
    "coordination_2x2",
    "prisoners_dilemma_rescaled",
)


@dataclass(frozen=True, eq=False)
class Game:
    """An m-player normal-form game.

    ``loss_tensors[i]`` holds player i's loss for every joint action profile,
    with shape ``action_counts`` and values in [0, 1]: construction raises one
    ValueError that names each ``validate_game`` violation, so every Game is
    valid. Instances are immutable and safe to share across threads: a tensor
    is copied unless it is a read-only array that owns its buffer, and a -0.0
    loss becomes +0.0, so no history the engine computes holds a -0.0.
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
            if isinstance(raw, (list, tuple)) or (isinstance(raw, np.ndarray)
                                                  and raw.dtype != np.float64):
                np.add(arr, 0.0, out=arr)  # arr is a new array: clear -0.0 in place
            elif arr.flags.writeable or arr.base is not None or np.signbit(arr).any():
                arr = arr + 0.0  # a copy, in which -0.0 + 0.0 is +0.0
            if arr.size == expected and min(self.action_counts, default=0) > 0:
                arr = arr.reshape(self.action_counts)
            arr = np.ascontiguousarray(arr)
            arr.setflags(write=False)
            shaped.append(arr)
        object.__setattr__(self, "loss_tensors", tuple(shaped))
        violations = validate_game(self)
        if violations:
            raise ValueError("; ".join(violations))

    @property
    def profile_count(self) -> int:
        return _profile_count(self.action_counts)


def _profile_count(action_counts: Sequence[int]) -> int:
    return math.prod(int(n) for n in action_counts) if action_counts else 0


def validate_game(game: Game) -> list[str]:
    """The invariants that ``Game`` checks as it is built; returns the violations (empty = ok).

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
        # NaN and +-inf fail one of the two comparisons; min and max carry a NaN, so
        # only a tensor that fails makes the elementwise masks
        if flat.size and not (flat.min() >= 0.0 and flat.max() <= 1.0):
            k = int(np.argmax(~((flat >= 0.0) & (flat <= 1.0))))
            profile = np.unravel_index(k, game.action_counts)
            label = tuple(int(a) + 1 for a in profile)
            violations.append(
                f"loss outside [0, 1] at player {i + 1}, profile {label}: {float(flat[k])!r}"
            )
    return violations


def loss_matrix(games: Sequence[Game], player: int) -> np.ndarray:
    """Player's loss tensors of ``games``, all of one shape, as a (B, n_i, prod n_{-i}) stack.

    Row j of matrix b holds game b's losses of action j against every opponent
    profile, with opponent profiles flattened in row-major order. The stack is
    C-ordered: a view of the tensor for one game and player 0, a copy otherwise.
    """
    moved = [np.moveaxis(game.loss_tensors[player], player, 0) for game in games]
    stack = np.ascontiguousarray(moved[0])[None] if len(moved) == 1 else np.array(moved)
    return stack.reshape(len(moved), games[0].action_counts[player], -1)



def random_game(m: int, action_counts: Sequence[int], seed: int) -> Game:
    """Game named ``random_<seed>`` with i.i.d. uniform [0, 1] losses from a seeded generator.

    The same seed yields a bit-identical game.
    """
    action_counts = tuple(int(n) for n in action_counts)
    rng = np.random.default_rng(seed)
    tensors = tuple(rng.random(action_counts) for _ in range(m))
    for tensor in tensors:  # fresh and read-only, so Game keeps them without a copy
        tensor.setflags(write=False)
    return Game(m, action_counts, tensors, name=f"random_{seed}")


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
        tensors = tuple(np.array(flat, dtype=np.float64) for flat in data["losses"])
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past 1e308
        raise ValueError(f"game JSON: bad players, actions or losses: {exc}") from exc
    if any(t.ndim != 1 for t in tensors):
        raise ValueError("game JSON: each loss tensor must be a flat list")
    for flat in data["losses"]:  # np.array reads true and "0.5" as numbers
        for cell in flat:
            if type(cell) not in (int, float):
                raise ValueError(f"game JSON: loss {cell!r} is not a number")
    for tensor in tensors:  # fresh and read-only, so Game keeps them without a copy
        tensor.setflags(write=False)
    try:
        return Game(m, actions, tensors, name=name)
    except ValueError as exc:
        raise ValueError(f"game JSON: {exc}") from exc


def json_int(value, field: str) -> int:
    """``value`` if its type is int, so not bool or float; else a ValueError naming ``field``."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value

