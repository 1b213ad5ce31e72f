"""Every file format the package writes, and a game's JSON file.

``write_csv`` and ``write_json`` fix the format of every file the package
writes. ``save_game_json`` and ``load_game_json`` write and read a game in
``game_to_dict``'s layout.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
from typing import Iterable, Sequence

import numpy as np

from .game import Game, game_from_dict, game_to_dict

# ``_format_float`` is the exact formatter write_csv falls back on.
_format_float = "%.17g".__mod__
_ZEROS = np.uint64(0x3030303030303030)  # "0" in each byte of a uint64 word of text


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
