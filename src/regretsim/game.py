"""Normal-form multi-player games with losses in [0, 1].

A game stores one dense loss tensor per player, indexed by joint action
profiles in row-major order over (a_1, ..., a_m). Players and actions are
0-indexed throughout the Python API; file formats and report text use the
1-indexed convention. ``write_csv`` and ``write_json`` fix the format of
every file the package writes.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

# Most rows that ``write_csv`` formats at once, and the exact float formatter it falls back on.
CSV_BLOCK_ROWS = 1024
_format_float = "%.17g".__mod__

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
    """Stream ``blocks`` of rows under ``header`` to an LF-terminated UTF-8 CSV file.

    A block is a tuple of equal-length columns, each a NumPy array or a
    sequence. Row r of a block holds its first column's cell, then the cells
    of ``labels[r % len(labels)]``, then its other columns' cells, so a block
    holds whole periods of ``labels``. Each cell of a float column (as
    ``np.asarray`` reads it) is written exactly as ``'%.17g' % cell``, which
    reads back as the same double in any locale, and every other cell and
    label as ``str(cell)``. Rows are formatted ``CSV_BLOCK_ROWS`` (or one
    period) at a time in NumPy; ``_float_text`` names the floats that it
    formats one by one with ``_format_float`` instead.
    """
    period = len(labels)
    label_text = _text(",".join(["", *map(str, row)]) for row in labels)
    step = max(1, CSV_BLOCK_ROWS // period) * period
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            for start in range(0, len(block[0]), step):
                text = [{"f": _float_text, "i": _int_text}.get(c.dtype.kind, _text)(c)
                        for c in (np.asarray(c[start:start + step]) for c in block)]
                comma = np.full((len(text[0]), 1), ord(","), np.uint8)
                # each stage replaces the last, so a chunk holds at most two copies of its text
                text = np.concatenate([text[0], np.tile(label_text, (len(comma) // period, 1)),
                                       *(part for cell in text[1:] for part in (comma, cell)), comma], 1)
                text[:, -1] = ord("\n")
                text = text.tobytes()
                fh.write(text.translate(None, b"\0"))


def _text(cells) -> np.ndarray:
    """``str(cell)`` of each cell, UTF-8 encoded, as a NUL-padded uint8 row."""
    text = np.array([str(cell).encode() for cell in cells])
    return text.view(np.uint8).reshape(len(text), -1)


def _split(values):
    """Veltkamp's split of float64 values into halves of at most 26 bits."""
    scaled = values * 134217729.0
    high = scaled - (scaled - values)
    return high, values - high


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """Digit pairs, float layouts and powers of ten, built on first use: a
    process that writes no CSV file never runs the NumPy code that builds them.

    Pair j < 100 spreads j's two ASCII digits over a uint32, each after a NUL,
    so digit i of a number spread pair by pair sits in byte 2i + 1; pair 100 + j
    is pair j less its leading "0"s. Layout (x + 27) * 17 + k - 1, XORed into the
    ten pairs of a 17-digit integer and a NUL word, gives the text of a positive
    number with exponent x in [-27, 15] and k significant digits: 0x30 turns a
    dropped "0" into NUL, byte 6 + 2i holds the point if it precedes digit i,
    bytes 1-5 the "0.000" of -4 <= x < 0 and bytes 40-43 the "e-XX" of x < -4.
    Power row s holds 10**s as a double-double (high, tail), high's halves between.
    """
    pairs = np.zeros((200, 4), np.uint8)
    pairs[:100, 1::2] = np.indices((10, 10), np.uint8).reshape(2, -1).T + ord("0")
    pairs[100:] = pairs[:100]
    pairs[100:110, 1], pairs[100, 3] = 0, 0
    x, k = (axis.reshape(-1, 1) for axis in np.meshgrid(np.arange(-27, 16, dtype=np.int8),
                                                          np.arange(1, 18, dtype=np.int8), indexing="ij"))
    place, point = np.arange(17, dtype=np.int8), np.where(x < -4, 1, np.where(x < 0, 17, x + 1))
    layouts = np.zeros((len(x), 44), np.uint8)
    layouts[:, 1:6] = np.where((x <= [-1, -1, -2, -3, -4]) & (x >= -4),
                               [0, ord("."), 0, ord("0"), 0], [0x30, 0, 0x30, 0, 0x30])
    layouts[:, 6:40:2] = ((place == point) & (k > point)) * np.uint8(ord("."))
    layouts[:, 7:40:2] = (place >= np.maximum(k, x + 1)) * np.uint8(0x30)
    layouts[:, 40:44] = (x < -4) * np.concatenate([np.full((len(x), 2), [ord("e"), ord("-")], np.uint8),
                                                   pairs[np.abs(x[:, 0]), 1::2]], axis=1)
    high = [float(10**s) for s in range(44)]
    tens = np.stack([high, *_split(np.array(high)), [float(10**s - int(h)) for s, h in enumerate(high)]], 1)
    return pairs.view(np.uint32).ravel(), layouts.view(np.uint32), tens


def _int_text(values: np.ndarray) -> np.ndarray:
    """Each integer as ``str(value)``, in NUL-padded uint8 rows."""
    values = np.asarray(values, dtype=np.int64)
    magnitudes = np.abs(values).view(np.uint64)  # abs(-2**63) wraps to 2**63 as uint64
    pairs = np.empty((len(values), (len(str(int(magnitudes.max()))) + 1) // 2), np.int32)
    for column in range(pairs.shape[1] - 1, -1, -1):
        quotient = magnitudes // 100  # NumPy divides by a scalar far faster than it takes %
        pairs[:, column] = magnitudes - quotient * 100
        pairs[:, column] += (quotient == 0) * 100  # the leading pair, less its leading "0"s
        magnitudes = quotient
    text = np.take(_tables()[0], pairs).view(np.uint8)
    text[:, 0] = (values < 0) * ord("-") + (values == 0) * ord("0")  # byte 0 precedes all digits
    return text


def _float_text(values: np.ndarray) -> np.ndarray:
    """Each float as ``'%.17g' % value``, in NUL-padded uint8 rows.

    A value with 1e-26 <= |v| < 1e15 gets its 17 digits from a double-double
    product with a power of ten, exact for |v| >= 1e-6, else within 2**-47.
    Zeros, non-finite values, the rest of the range and fractions within
    1e-12 of a rounding tie go through ``_format_float``.
    """
    values = np.asarray(values, dtype=np.float64)
    magnitudes = np.abs(values)
    fast = (magnitudes >= 1e-26) & (magnitudes < 1e15)  # False for NaN
    a = np.where(fast, magnitudes, 1.0)
    # x is a guess at the decimal exponent; a wrong guess fails the range test below
    x = np.floor(np.log10(a)).astype(np.int64)
    ten, ten_high, ten_low, ten_tail = np.take(_tables()[2], 16 - x, axis=0).T
    # a * 10**(16 - x) == product + error + a * ten_tail, with error exact (Dekker)
    a_high, a_low = _split(a)
    product = a * ten
    error = ((a_high * ten_high - product) + a_high * ten_low + a_low * ten_high) + a_low * ten_low
    error += a * ten_tail
    exact = fast & ((product - 1e16) + error >= 0) & ((product - 1e17) + error < 0)
    exact &= (ten_tail == 0) | (np.abs(error - np.floor(error) - 0.5) >= 1e-12)
    digits = product.astype(np.int64) + np.rint(error).astype(np.int64)  # ties to even
    exact &= digits < 10**17  # a carry to the next power of ten needs log10 to have come out low
    pairs = np.full((len(values), 11), 100, np.int32)
    for column in range(9, -1, -1):
        quotient = digits // 100
        pairs[:, column] = digits - quotient * 100
        digits = quotient
    text = np.take(_tables()[0], pairs)
    significant = 17 - np.argmax(text.view(np.uint8)[:, 39:6:-2] != ord("0"), axis=1)
    text ^= np.take(_tables()[1], (x + 27) * 17 + significant - 1, axis=0)
    text = text.view(np.uint8)
    text[:, 0] = (values < 0) * ord("-")
    slow = np.flatnonzero(~exact)
    if slow.size:
        fallback = _text(map(_format_float, values[slow].tolist()))
        text[slow] = 0
        text[slow, :fallback.shape[1]] = fallback
    return text


def write_json(data, path) -> None:
    """Write ``data`` as indented, key-sorted, LF-terminated JSON."""
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
