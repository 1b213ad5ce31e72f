"""Normal-form multi-player games with losses in [0, 1].

A game stores one dense loss tensor per player, indexed by joint action
profiles in row-major order over (a_1, ..., a_m). Players and actions are
0-indexed throughout the Python API; file formats and report text use the
1-indexed convention. ``write_csv`` and ``write_json`` fix the format of
every file the package writes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

# The CSV exporters cut their rows, and ``regret`` and the diagnostics audits read a (T, n)
# history, this many at a time; ``_format_float`` is the exact formatter write_csv falls back on.
AUDIT_BLOCK_ROWS = 4096
_format_float = "%.17g".__mod__
_ZEROS = np.uint64(0x3030303030303030)  # "0" in each byte of a uint64 word of text

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
    [0, 1]. Instances are immutable and safe to share across threads: a tensor
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
            if arr.flags.writeable or arr.base is not None or np.signbit(arr).any():
                arr = arr + 0.0  # a copy, in which -0.0 + 0.0 is +0.0
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


def _reduce_rows(ufunc, block: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(block, axis=1)`` for ``np.maximum`` or ``np.minimum``, by one pass per
    column up to n = 32 (strided passes lose from n = 64 at 4,096 rows). Bit for bit equal bar
    a +0/-0 tie's winner and a NaN's bits, which numpy leaves to the CPU's vector width."""
    if not 0 < block.shape[1] <= 32:
        return ufunc.reduce(block, axis=1)
    return reduce(lambda out, column: ufunc(out, column, out=out), block.T[1:], block[:, 0].copy())


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


def loss_matrix(game: Game, player: int) -> np.ndarray:
    """Player's loss tensor as an (n_i, prod n_{-i}) matrix.

    Row j holds the losses of action j against every opponent profile, with
    opponent profiles flattened in row-major order. It is C-ordered for every
    player: a view of the tensor for player 0, a copy otherwise.
    """
    axes = (player, *range(player), *range(player + 1, game.num_players))
    matrix = game.loss_tensors[player].transpose(axes)
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


def random_game(m: int, action_counts: Sequence[int], seed: int) -> Game:
    """Game named ``random_<seed>`` with i.i.d. uniform [0, 1] losses from a seeded generator.

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

    A block is a tuple of columns, each a NumPy array or a sequence: a first
    column of one cell per period of ``labels``, then columns of one cell per
    row. Row r of a block holds cell r // len(labels) of the first column, then
    the cells of ``labels[r % len(labels)]``, then cell r of each other column.
    Each cell of a float column (as ``np.asarray`` reads it) is written exactly
    as ``'%.17g' % cell``, which reads back as the same double in any locale,
    and every other cell and label as ``str(cell)``. Each nonempty block is
    formatted at once in NumPy, and the floats that ``_float_digits`` finds
    inexact one by one with ``_format_float``; callers cut the blocks, so that a
    block's text stays small. A zero-stride column, such as ``np.broadcast_to(h,
    rows)``, is formatted once.
    """
    label_text = _text(",".join(["", *map(str, row)]) for row in labels)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for block in blocks:
            if len(block[0]):
                fh.write(_rows(block, label_text).translate(None, b"\0"))


def _rows(columns, label_text: np.ndarray) -> bytes:
    """One block of ``write_csv``'s rows (see there) as bytes, NUL padding and all."""
    comma, newline = (np.full((1, 1, 1), ord(c), np.uint8) for c in ",\n")
    parts = []
    for column in map(np.asarray, columns):
        column = column[:1] if column.strides == (0,) else column  # one cell, formatted once
        text = {"f": _float_text, "i": _int_text}.get(column.dtype.kind, _text)(column)
        # (rows, period, width): (rows, 1, width) for the first column, (1, 1, width) for one cell
        text = text.reshape(min(len(text), len(columns[0])), -1, text.shape[1])
        parts += [comma, text] if parts else [text, label_text]
    shape = (len(columns[0]), len(label_text))
    return np.concatenate([np.broadcast_to(p, (*shape, p.shape[-1])) for p in parts + [newline]],
                          axis=2).tobytes()


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
    """Byte masks, float layouts and powers of ten, built on first use: a
    process that writes no CSV file never runs the NumPy code that builds them.

    Text is built in uint64 words, byte 0 first. ``low[w, c]`` keeps the first c
    bytes of a text in word w's bytes 8w to 8w + 7; ``dots[:, c]`` is a "." at
    byte c of two words, none at c = 16. Layout x + 27, for exponent x in [-27, 15],
    holds the "0.000" of -4 <= x < 0 in bytes 1-5 and the "e-XX" of x < -4 in bytes
    25-28; ``points[:, x + 27]`` counts the digits before the point (0 after "0.")
    and those of them in the last 16 (16: no point there). Power row s holds 10**s
    as a double-double (high, tail), high's halves between.
    """
    low = np.array([[256**min(max(c - 8 * w, 0), 8) - 1 for c in range(25)] for w in range(3)],
                   np.uint64)
    x = np.arange(-27, 16)
    layouts = np.zeros((len(x), 32), np.uint8)
    prefix = np.where((x >= -4) & (x < 0), 1 - x, 0)
    layouts[:, 1:6] = (np.arange(5) < prefix[:, None]) * np.array(list(b"0.000"))
    layouts[:, 25:29] = [list(b"e-%02d" % -e) if e < -4 else [0] * 4 for e in x.tolist()]
    point = np.where(x < -4, 1, np.where(x < 0, 0, x + 1))
    high = [float(10**s) for s in range(44)]
    powers = np.stack([high, *_split(np.array(high)), [float(10**s - int(h)) for s, h in enumerate(high)]])
    return (low, (low[:2, 1:] ^ low[:2, :-1]) & np.uint64(0x2E2E2E2E2E2E2E2E), layouts.view(np.uint64),
            np.stack([point, np.where(point > 0, point - 1, 16)]).astype(np.int8), powers)


def _digit_words(values: np.ndarray, count: int) -> np.ndarray:
    """Each integer below 10**(8 * count) as ``count`` uint64 words of its
    digits (0-9), eight a word, the first digit in byte 0 of word 0."""
    words = np.empty((count, len(values)), np.uint64)
    for word in range(count - 1, 0, -1):
        quotient = values // 10**8  # NumPy divides by a scalar far faster than it takes %
        words[word] = values - quotient * 10**8
        values = quotient
    words[0] = values
    # halves, pairs, then digits: each step keeps w // d in the low half of a lane and the
    # rest in its high half; (w * 5243) >> 19 is w // 100 and (w * 103) >> 10 is w // 10 here
    words = (words << 32) - (words // 10000) * (10000 * 2**32 - 1)
    words = (words << 16) - (((words * 5243) >> 19) & 0x0000007F0000007F) * (100 * 2**16 - 1)
    return (words << 8) - (((words * 103) >> 10) & 0x000F000F000F000F) * (10 * 2**8 - 1)


def _int_text(values: np.ndarray) -> np.ndarray:
    """Each integer as ``str(value)``, right-aligned in NUL-padded uint8 rows."""
    low = _tables()[0]
    values = np.asarray(values, dtype=np.int64)
    magnitudes = np.abs(values).view(np.uint64)  # abs(-2**63) wraps to 2**63 as uint64
    width = len(str(int(magnitudes.max())))
    count = (width + 8) // 8  # words enough for the digits and a sign
    # the leading zeros of each row, bar the last digit of a 0, are NUL
    blank = np.full(len(values), 8 * count - 1)
    for power in range(1, width):
        blank -= magnitudes >= 10**power
    words = (_digit_words(magnitudes, count) + _ZEROS) & ~np.take(low[:count], blank, axis=1)
    text = np.ascontiguousarray(words.T).view(np.uint8)
    text[:, -width - 1] = (values < 0) * ord("-")
    return text[:, -width - 1:]


def _float_text(values: np.ndarray) -> np.ndarray:
    """Each float as ``'%.17g' % value``, in NUL-padded uint8 rows: the sign in
    byte 0, the first of 17 digits in byte 7, the other 16 and the point in
    bytes 8-24, and the rest from a layout (see ``_tables``)."""
    low, dots, layouts, points, _ = _tables()
    values = np.asarray(values, dtype=np.float64)
    first, digits, x, exact = _float_digits(values)
    digits = _digit_words(digits, 2)
    # k significant digits, from the float exponent of each word's last nonzero byte
    # (k < 1 if only the first digit is nonzero); p before the point, q of them in the words
    k = (((digits.astype(np.float64).view(np.int64) >> 52) - 1023 >> 3) + [[2], [10]]).max(axis=0)
    p, q = np.take(points, x + 27, axis=1)
    # trailing zeros go unless they precede the point; the digits after it move up a byte
    digits = (digits + _ZEROS) & np.take(low[:2], np.maximum(k, p) - 1, axis=1, mode="clip")
    moved = digits & ~np.take(low[:2], q, axis=1)
    digits ^= moved
    digits |= (moved << 8) | np.take(dots, np.where(k > p, q, 16), axis=1)
    digits[1] |= moved[0] >> 56
    text = np.take(layouts, x + 27, axis=0)
    text[:, 0] |= ((first + ord("0")) << 56) | (values < 0) * np.uint64(ord("-"))
    text[:, 1:3] = digits.T
    text[:, 3] |= moved[1] >> 56
    text = text.view(np.uint8)[:, :29]
    slow = np.flatnonzero(~exact)
    if slow.size:
        fallback = _text(map(_format_float, values[slow].tolist()))
        text[slow] = 0
        text[slow, :fallback.shape[1]] = fallback
    return text


def _float_digits(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The first of each float's 17 significant digits and the other 16 (uint64),
    its decimal exponent, and whether the digits are exact: a value with 1e-26 <=
    |v| < 1e15 gets them from a double-double product with a power of ten, exact
    for |v| >= 1e-6, else within 2**-47, unless a fraction lies within 1e-12 of
    a rounding tie. Every other value gets the digits of 10**16."""
    magnitudes = np.abs(values)
    fast = (magnitudes >= 1e-26) & (magnitudes < 1e15)  # False for NaN
    a = np.where(fast, magnitudes, 1.0)
    # x is a guess at the decimal exponent; a wrong guess fails the range test below
    x = np.floor(np.log10(a)).astype(np.intp)
    ten, ten_high, ten_low, ten_tail = np.take(_tables()[4], 16 - x, axis=1)
    # a * 10**(16 - x) == product + error + a * ten_tail, with error exact (Dekker)
    a_high, a_low = _split(a)
    product = a * ten
    error = ((a_high * ten_high - product) + a_high * ten_low + a_low * ten_high) + a_low * ten_low
    error += a * ten_tail
    exact = fast & ((product - 1e16) + error >= 0) & ((product - 1e17) + error < 0)
    exact &= (ten_tail == 0) | (np.abs(error - np.floor(error) - 0.5) >= 1e-12)
    digits = product.astype(np.int64) + np.rint(error).astype(np.int64)  # ties to even
    exact &= digits < 10**17  # a carry to the next power of ten needs log10 to have come out low
    digits = np.where(exact, digits, 10**16).view(np.uint64)
    first = digits // 10**16
    return first, digits - first * 10**16, x, exact


def write_json(data, path) -> None:
    """Write ``data`` as indented, key-sorted, LF-terminated strict JSON: a NaN
    or infinite float raises a ValueError before ``path`` is opened."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).iterencode(data)
    # joined 2^16 chunks at a time: json.dumps would hold every chunk as a str object first
    text = list(iter(lambda: "".join(itertools.islice(chunks, 1 << 16)), ""))
    with open(path, "w", newline="\n") as fh:
        fh.writelines(text + ["\n"])
