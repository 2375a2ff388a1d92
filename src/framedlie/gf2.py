"""Bit-packed GF(2) vectors, subspaces, row reduction, row combination by a
mask, the span of rows, table reads by index lists and the Walsh-Hadamard
transform.

Vectors live in ``F_2^width`` with coordinate ``i`` stored in bit ``i`` of a
Python int (LSB = first coordinate), at most ``MAX_WIDTH`` = 64 of them (the
triple ambient reaches 6m = 60); ``ENUM_GUARD`` = 28 caps the rows of an
enumerated span.  0/1 text enters and leaves through ``parse_bits`` and ``format_bits`` only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import add, itemgetter, sub
from typing import Iterable, Sequence

MAX_WIDTH = 64
ENUM_GUARD = 28


class UsageError(Exception):
    """A documented precondition was violated by the caller."""


class ResourceLimitError(RuntimeError):
    """The requested computation would blow past a hard resource guard."""


class FalsificationError(RuntimeError):
    """An internal check mirroring a proved statement failed.

    Raised loudly instead of returning wrong data: it means either a bug or
    a counterexample to the theory this package mechanizes.
    """


def _check_width(width: int) -> None:
    if not 1 <= width <= MAX_WIDTH:
        raise UsageError(f"width must be in 1..{MAX_WIDTH}, got {width}")


def parse_bits(text: str) -> int:
    """The vector a 0/1 string spells, first coordinate first."""
    if not text or set(text) - {"0", "1"}:
        raise UsageError(f"not a 0/1 vector string: {text!r}")
    _check_width(len(text))
    return int(text[::-1], 2)


def format_bits(v: int, width: int) -> str:
    """The 0/1 string of v in F_2^width, first coordinate first."""
    return format(v, f"0{width}b")[::-1]


def apply_map(images: Sequence[int], v: int) -> int:
    """XOR of the images that the bits of v select."""
    out = 0
    while v:
        low = v & -v
        out ^= images[low.bit_length() - 1]
        v ^= low
    return out


def walsh_hadamard(values: list[int], bits: int) -> list[int]:
    """Entry c is the sum of (-1)^(c . x) values[x] over the 2^bits x, in bits passes."""
    for _ in range(bits):
        even, odd = values[0::2], values[1::2]
        values = [*map(add, even, odd), *map(sub, even, odd)]
    return values


def span(rows: Sequence[int]) -> list[int]:
    """Entry i is the XOR of the rows that the bits of i select, by
    doubling; for independent rows, every vector of their span once."""
    if len(rows) > ENUM_GUARD:
        raise ResourceLimitError(f"refusing to enumerate 2^{len(rows)} vectors")
    out = [0]
    for r in rows:
        out += [x ^ r for x in out]
    return out


def gather(table, indices: Sequence) -> tuple:
    """table[i] for each i in indices, read in one C-level call."""
    if len(indices) < 2:  # itemgetter(i) returns the bare item, not a 1-tuple
        return tuple(table[i] for i in indices)
    return itemgetter(*indices)(table)


def rref_ints(rows: Iterable[int]) -> list[int]:
    """Reduced row echelon form of integer rows; pivots are lowest set bits.
    Each residue already lacks every earlier pivot, so one pass back from
    the last residue clears the later ones."""
    basis: list[tuple[int, int]] = []  # (pivot bit, reduced row)
    for row in reversed(_residues(rows, -1)):
        if row:
            for low, r in basis:
                if row & low:
                    row ^= r
            basis.append((row & -row, row))
    basis.sort()
    return [r for _, r in basis]


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_2^ambient_width held as a canonical rref basis.

    ``rows`` are the reduced row echelon basis with strictly increasing
    pivots, so equal spans compare equal and hash equal.
    """

    ambient_width: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_width(self.ambient_width)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        """Residue of v after elimination by the basis; 0 iff v is a member."""
        if v >> self.ambient_width:
            raise UsageError("vector has bits beyond ambient width")
        for b in self.rows:
            if v & (b & -b):
                v ^= b
        return v

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0


def rref(rows: Iterable[int], width: int) -> Subspace:
    """Canonical subspace of F_2^width spanned by the given rows."""
    _check_width(width)
    rows = list(rows)
    if any(r >> width for r in rows):
        raise UsageError("vector has bits beyond ambient width")
    return Subspace(width, tuple(rref_ints(rows)))


def zero_subspace(width: int) -> Subspace:
    return Subspace(width, ())


def full_subspace(width: int) -> Subspace:
    return Subspace(width, tuple(1 << i for i in range(width)))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_width != b.ambient_width:
        raise UsageError("sum of subspaces in different ambients")
    return Subspace(a.ambient_width, tuple(rref_ints(list(a.rows) + list(b.rows))))


def _residues(rows: Iterable[int], mask: int) -> list[int]:
    """Each row reduced by the residues before it, on the pivots of their
    mask parts.  A residue's mask part is 0 exactly when the row's mask
    part lies in the span of the earlier rows' mask parts."""
    basis: list[tuple[int, int]] = []  # (pivot bit of the mask part, residue)
    out: list[int] = []
    for row in rows:
        for low, r in basis:
            if row & low:
                row ^= r
        if row & mask:
            basis.append((row & mask & -(row & mask), row))
        out.append(row)
    return out


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus trick: of the paired rows (r, r) for
    r in a and (r, 0) for r in b, those whose left half reduces to 0 have
    right halves spanning a n b."""
    if a.ambient_width != b.ambient_width:
        raise UsageError("intersection of subspaces in different ambients")
    w = a.ambient_width
    left = (1 << w) - 1
    res = _residues([r | (r << w) for r in a.rows] + list(b.rows), left)
    return Subspace(w, tuple(rref_ints(r >> w for r in res if not r & left)))


def vanishing_on(s: Subspace, mask: int) -> Subspace:
    """s n {v : v & mask = 0}: the residues of s's rows with a zero mask
    part, which span it as the rows are independent."""
    res = _residues(s.rows, mask)
    return Subspace(s.ambient_width, tuple(rref_ints(r for r in res if not r & mask)))


def recombine(rows: Sequence[int], rng: random.Random) -> list[int]:
    """Another basis of the span of rows: a random invertible recombination,
    shuffled, deterministic for a given seeded generator."""
    pool = list(rows)
    for i in range(len(pool)):
        for j in range(len(pool)):
            if i != j and rng.random() < 0.5:
                pool[i] ^= pool[j]
    rng.shuffle(pool)
    return pool


def complement_in(a: Subspace, b: Subspace, rng: random.Random | None = None) -> Subspace:
    """A complement C of a inside b, so a + C = b and a intersect C = 0.

    The complement is not unique; with an rng the choice is randomized but
    deterministic for a given seeded generator.  A pool vector (a row of
    b, or of its seeded recombination) is picked when its residue after a's
    rows and the pool vectors before it is nonzero.
    """
    if a.ambient_width != b.ambient_width or not all(map(b.contains, a.rows)):
        raise UsageError("complement_in requires a to be a subspace of b")
    pool = list(b.rows) if rng is None else recombine(b.rows, rng)
    res = _residues([*a.rows, *pool], (1 << a.ambient_width) - 1)[a.dim :]
    picked = [v for v, r in zip(pool, res) if r]
    if len(picked) != b.dim - a.dim:
        raise FalsificationError("complement extraction lost rank")
    return Subspace(a.ambient_width, tuple(rref_ints(picked)))


def kernel(functionals: Sequence[int], width: int) -> Subspace:
    """Common kernel of parity functionals x -> popcount(f & x) mod 2."""
    _check_width(width)
    rows = [(r & -r, r) for r in rref_ints(functionals)]  # (pivot bit, row)
    pivots = sum(low for low, _ in rows)
    # one kernel vector per free coordinate: it plus the pivots of the rows holding it
    out = [
        1 << free | sum(low for low, r in rows if r >> free & 1)
        for free in range(width)
        if not pivots >> free & 1
    ]
    return Subspace(width, tuple(rref_ints(out)))
