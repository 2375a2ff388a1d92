"""Bit-packed GF(2) vectors, subspaces, row reduction, row combination by a
mask and solving in a basis.

Vectors live in ``F_2^width`` with coordinate ``i`` stored in bit ``i`` of a
Python int (LSB = first coordinate).  Widths are capped at one machine word;
nothing in this package needs more than 28 coordinates.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_WIDTH = 64
ENUM_GUARD = 28


class UsageError(ValueError):
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


@dataclass(frozen=True)
class Bitvec:
    """An immutable GF(2) vector of fixed width."""

    width: int
    bits: int

    def __post_init__(self) -> None:
        _check_width(self.width)
        if self.bits >> self.width:
            raise UsageError("bits set beyond declared width")

    def __xor__(self, other: "Bitvec") -> "Bitvec":
        if self.width != other.width:
            raise UsageError("XOR of Bitvecs with different widths")
        return Bitvec(self.width, self.bits ^ other.bits)

    def bit(self, i: int) -> int:
        return (self.bits >> i) & 1

    def __str__(self) -> str:
        return "".join(str(self.bit(i)) for i in range(self.width))

    @classmethod
    def from_string(cls, text: str) -> "Bitvec":
        if not text or set(text) - {"0", "1"}:
            raise UsageError(f"not a 0/1 vector string: {text!r}")
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
        return cls(len(text), bits)


def _as_int(v: "Bitvec | int", width: int) -> int:
    if isinstance(v, Bitvec):
        if v.width != width:
            raise UsageError("vector width does not match subspace ambient width")
        return v.bits
    if v >> width:
        raise UsageError("raw vector has bits beyond ambient width")
    return v


def apply_map(images: Sequence[int], v: int) -> int:
    """XOR of the images that the bits of v select."""
    out = 0
    while v:
        low = v & -v
        out ^= images[low.bit_length() - 1]
        v ^= low
    return out


class EchelonSolver:
    """Expresses vectors in a fixed (not necessarily rref) basis."""

    def __init__(self, basis: Sequence[int]):
        self.rows: list[tuple[int, int]] = []  # (vector, coefficient mask)
        for i, v in enumerate(basis):
            m = 1 << i
            for r, rm in self.rows:
                if v & (r & -r):
                    v ^= r
                    m ^= rm
            if not v:
                raise UsageError("basis rows are dependent")
            self.rows.append((v, m))

    def coefficients(self, v: int) -> int:
        """The mask m with apply_map(basis, m) == v."""
        m = 0
        for r, rm in self.rows:
            if v & (r & -r):
                v ^= r
                m ^= rm
        if v:
            raise UsageError("vector not in span")
        return m


def rref_ints(rows: Iterable[int]) -> list[int]:
    """Reduced row echelon form of integer rows; pivots are lowest set bits."""
    basis: list[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            low = row & -row
            for i, b in enumerate(basis):
                if b & low:
                    basis[i] = b ^ row
            basis.append(row)
    basis.sort(key=lambda r: r & -r)
    return basis


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

    @property
    def basis(self) -> tuple[Bitvec, ...]:
        return tuple(Bitvec(self.ambient_width, r) for r in self.rows)

    def reduce(self, v: "Bitvec | int") -> int:
        """Residue of v after elimination by the basis; 0 iff v is a member."""
        x = _as_int(v, self.ambient_width)
        for b in self.rows:
            if x & (b & -b):
                x ^= b
        return x

    def contains(self, v: "Bitvec | int") -> bool:
        return self.reduce(v) == 0

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)


def rref(rows: Iterable["Bitvec | int"], width: int | None = None) -> Subspace:
    """Canonical subspace spanned by the given rows.

    Accepts Bitvecs (widths must agree) or raw ints with an explicit width.
    """
    mats: list[int] = []
    w = width
    for r in rows:
        if isinstance(r, Bitvec):
            if w is None:
                w = r.width
            elif r.width != w:
                raise UsageError("mixed widths in rref input")
            mats.append(r.bits)
        else:
            if w is None:
                raise UsageError("raw int rows need an explicit width")
            mats.append(_as_int(r, w))
    if w is None:
        raise UsageError("empty input needs an explicit width")
    return Subspace(w, tuple(rref_ints(mats)))


def zero_subspace(width: int) -> Subspace:
    return Subspace(width, ())


def full_subspace(width: int) -> Subspace:
    return Subspace(width, tuple(1 << i for i in range(width)))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_width != b.ambient_width:
        raise UsageError("sum of subspaces in different ambients")
    return Subspace(a.ambient_width, tuple(rref_ints(list(a.rows) + list(b.rows))))


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the Zassenhaus trick on paired rows."""
    if a.ambient_width != b.ambient_width:
        raise UsageError("intersection of subspaces in different ambients")
    w = a.ambient_width
    # pairs (left | right << w); reduce on the left block only
    work = [r | (r << w) for r in a.rows] + [r for r in b.rows]
    basis: list[int] = []
    inter: list[int] = []
    lmask = (1 << w) - 1
    for row in work:
        for bas in basis:
            low = (bas & lmask) & -(bas & lmask)
            if row & low:
                row ^= bas
        if row & lmask:
            basis.append(row)
        elif row:
            inter.append(row >> w)
    return Subspace(w, tuple(rref_ints(inter)))


def complement_in(a: Subspace, b: Subspace, rng: random.Random | None = None) -> Subspace:
    """A complement C of a inside b, so a + C = b and a intersect C = 0.

    The complement is not unique; with an rng the choice is randomized but
    deterministic for a given seeded generator.
    """
    if a.ambient_width != b.ambient_width or not b.contains_subspace(a):
        raise UsageError("complement_in requires a to be a subspace of b")
    pool = list(b.rows)
    if rng is not None:
        # random invertible recombination of b's basis before the greedy pick
        for i in range(len(pool)):
            for j in range(len(pool)):
                if i != j and rng.random() < 0.5:
                    pool[i] ^= pool[j]
        rng.shuffle(pool)
    picked: list[int] = []
    span = a
    for v in pool:
        if span.reduce(v):
            picked.append(v)
            span = Subspace(span.ambient_width, tuple(rref_ints(span.rows + (v,))))
    if len(picked) != b.dim - a.dim:
        raise FalsificationError("complement extraction lost rank")
    return Subspace(a.ambient_width, tuple(rref_ints(picked)))


def enumerate_rows(s: Subspace) -> Iterator[int]:
    """All 2^dim member vectors as ints, in Gray-code order starting at 0."""
    if s.dim > ENUM_GUARD:
        raise ResourceLimitError(f"refusing to enumerate 2^{s.dim} vectors")
    v = 0
    yield v
    for i in range(1, 1 << s.dim):
        v ^= s.rows[(i & -i).bit_length() - 1]
        yield v


def kernel(functionals: Sequence[int], width: int) -> Subspace:
    """Common kernel of parity functionals x -> popcount(f & x) mod 2."""
    _check_width(width)
    rows = rref_ints(functionals)
    pivots = {(r & -r).bit_length() - 1 for r in rows}
    out = []
    for free in range(width):
        if free in pivots:
            continue
        v = 1 << free
        for r in rows:
            if (r >> free) & 1:
                v |= 1 << ((r & -r).bit_length() - 1)
        out.append(v)
    return Subspace(width, tuple(rref_ints(out)))
