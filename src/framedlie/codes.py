"""Binary linear codes: constructions, duals, weight enumerators, doubling.

A code of length n is the ``gf2.Subspace`` of its generators, with
``ambient_width`` n.  Codewords use the same bit convention as the rest of
the package (coordinate i of a length-n word is bit i of an int).
"""

from __future__ import annotations

import functools
import itertools

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


def dual(code: Subspace) -> Subspace:
    return kernel(code.rows, code.ambient_width)


def weight_enumerator(code: Subspace) -> tuple[int, ...]:
    """Coefficient vector (count of codewords of weight 0..n)."""
    if code.dim > WEIGHT_SCAN_GUARD:
        raise ResourceLimitError(f"weight scan of 2^{code.dim} codewords refused")
    counts = [0] * (code.ambient_width + 1)
    for w in span(code.rows):
        counts[w.bit_count()] += 1
    return tuple(counts)


def _all_weights_divisible(code: Subspace, modulus: int) -> bool:
    return not any(n for w, n in enumerate(weight_enumerator(code)) if w % modulus)


def is_doubly_even(code: Subspace) -> bool:
    return _all_weights_divisible(code, 4)


def is_triply_even(code: Subspace) -> bool:
    return _all_weights_divisible(code, 8)


def contains_all_ones(code: Subspace) -> bool:
    return code.contains((1 << code.ambient_width) - 1)


def is_self_dual(code: Subspace) -> bool:
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


def doubling(code: Subspace) -> Subspace:
    """Extended doubling: the span of d(code) and the interleaved all-ones."""
    n = code.ambient_width
    rows = [double_word(r, n) for r in code.rows]
    rows.append(interleave_word((1 << n) - 1, n))
    return rref(rows, 2 * n)


def direct_sum(a: Subspace, b: Subspace) -> Subspace:
    n = a.ambient_width
    return rref([*a.rows, *(r << n for r in b.rows)], n + b.ambient_width)


def reed_muller(r: int, m: int) -> Subspace:
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
    return rref(rows, n)


def _ladder_rows(length: int) -> list[int]:
    # rows (1111) shifted by two: the printed generator of d_{2k}
    return [0b1111 << (2 * i) for i in range((length - 2) // 2)]


_E8_ROWS = ["11111111", "11110000", "11001100", "10101010"]

# cyclic [23,12] Golay generator polynomial x^11+x^9+x^7+x^6+x^5+x+1;
# the extension appends an overall parity coordinate, and the stored
# generator is validated by its weight enumerator
_GOLAY_POLY = 0b101011100011


@functools.lru_cache(maxsize=None)
def builtin(name: str) -> Subspace:
    """Catalog codes: e8, g24, d16plus."""
    if name == "e8":
        return rref(map(parse_bits, _E8_ROWS), 8)
    if name == "d16plus":
        return rref(_ladder_rows(16) + [interleave_word(0xFF, 8)], 16)
    if name == "g24":
        rows = []
        for i in range(12):
            word = _GOLAY_POLY << i
            rows.append(word | (word.bit_count() % 2) << 23)
        return rref(rows, 24)
    raise UsageError(f"unknown builtin code {name!r}")

