"""Binary linear codes: constructions, duals, weight enumerators, doubling.

Codewords use the same bit convention as the rest of the package
(coordinate i of a length-n word is bit i of an int).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .gf2 import (
    ResourceLimitError,
    Subspace,
    UsageError,
    kernel,
    parse_bits,
    rref,
    span,
)

WEIGHT_SCAN_GUARD = 20


@dataclass(frozen=True)
class BinaryCode:
    length: int
    generators: Subspace

    def __post_init__(self) -> None:
        if self.generators.ambient_width != self.length:
            raise UsageError("generator width does not match code length")

    @property
    def dim(self) -> int:
        return self.generators.dim

    def contains(self, word: int) -> bool:
        return self.generators.contains(word)


def from_rows(rows, length: int) -> BinaryCode:
    return BinaryCode(length, rref(rows, length))


def dual(code: BinaryCode) -> BinaryCode:
    return BinaryCode(code.length, kernel(code.generators.rows, code.length))


def weight_enumerator(code: BinaryCode) -> tuple[int, ...]:
    """Coefficient vector (count of codewords of weight 0..length)."""
    if code.dim > WEIGHT_SCAN_GUARD:
        raise ResourceLimitError(f"weight scan of 2^{code.dim} codewords refused")
    counts = [0] * (code.length + 1)
    for w in span(code.generators.rows):
        counts[w.bit_count()] += 1
    return tuple(counts)


def _all_weights_divisible(code: BinaryCode, modulus: int) -> bool:
    return not any(n for w, n in enumerate(weight_enumerator(code)) if w % modulus)


def is_doubly_even(code: BinaryCode) -> bool:
    return _all_weights_divisible(code, 4)


def is_triply_even(code: BinaryCode) -> bool:
    return _all_weights_divisible(code, 8)


def contains_all_ones(code: BinaryCode) -> bool:
    return code.contains((1 << code.length) - 1)


def is_self_dual(code: BinaryCode) -> bool:
    return dual(code) == code


def double_word(word: int, n: int) -> int:
    """d(a_1..a_n) = (a_1,a_1,...,a_n,a_n)."""
    return 3 * interleave_word(word, n)


def interleave_word(word: int, n: int) -> int:
    """l(a_1..a_n) = (a_1,0,a_2,0,...,a_n,0)."""
    out = 0
    for i in range(n):
        if (word >> i) & 1:
            out |= 1 << (2 * i)
    return out


def doubling(code: BinaryCode) -> BinaryCode:
    """Extended doubling: the span of d(code) and the interleaved all-ones."""
    n = code.length
    rows = [double_word(r, n) for r in code.generators.rows]
    rows.append(interleave_word((1 << n) - 1, n))
    return from_rows(rows, 2 * n)


def direct_sum(a: BinaryCode, b: BinaryCode) -> BinaryCode:
    rows = list(a.generators.rows) + [r << a.length for r in b.generators.rows]
    return from_rows(rows, a.length + b.length)


def reed_muller(r: int, m: int) -> BinaryCode:
    """RM(r, m): evaluations of degree <= r monomials on F_2^m."""
    if not 0 <= r <= m or m > 5:
        raise UsageError("reed_muller needs 0 <= r <= m <= 5")
    n = 1 << m
    rows = []
    for deg in range(r + 1):
        for support in itertools.combinations(range(m), deg):
            row = 0
            for point in range(n):
                if all((point >> j) & 1 for j in support):
                    row |= 1 << point
            rows.append(row)
    return from_rows(rows, n)


def _ladder_rows(length: int) -> list[int]:
    # rows (1111) shifted by two: the printed generator of d_{2k}
    return [0b1111 << (2 * i) for i in range((length - 2) // 2)]


_E8_ROWS = ["11111111", "11110000", "11001100", "10101010"]

# cyclic [23,12] Golay generator polynomial x^11+x^9+x^7+x^6+x^5+x+1;
# the extension appends an overall parity coordinate, and the stored
# generator is validated by its weight enumerator
_GOLAY_POLY = 0b101011100011


@functools.lru_cache(maxsize=None)
def builtin(name: str) -> BinaryCode:
    """Catalog codes: e8, g24, d16plus."""
    if name == "e8":
        return from_rows(map(parse_bits, _E8_ROWS), 8)
    if name == "d16plus":
        return from_rows(_ladder_rows(16) + [interleave_word(0xFF, 8)], 16)
    if name == "g24":
        rows = []
        for i in range(12):
            word = _GOLAY_POLY << i
            rows.append(word | (word.bit_count() % 2) << 23)
        return from_rows(rows, 24)
    raise UsageError(f"unknown builtin code {name!r}")

