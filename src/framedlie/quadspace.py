"""Quadratic spaces over GF(2).

A form is stored through its upper-triangular coefficient rows U (diagonal
included), so ``q(x) = x . U . x`` and the polarized symplectic form is
``B = U + U^T``.  One symplectic split breaks a basis into mutually
orthogonal hyperbolic pairs, all singular but at most one anisotropic
pair, and the radical.  The Gauss sum, the plus/minus type, symplectic
bases, non-singular blocks of a given type, isometries between blocks and
maximal totally singular extensions are all read off that split; a seed
acts only through one random recombination of the basis
(``gf2.recombine``).  Exact singular-vector censuses check the type
independently: ``qspace`` compares its census with the closed form of
the type that ``type_of`` names, and test_census_matches_gray_walk in
tests/test_quadspace.py does so for random forms.  A census
counts every vector, bit-sliced: one big-int operation covers the 2^14
vectors of the span of 14 basis rows, one more row is paired in by a
popcount identity, and the rest of the basis is walked in Gray order;
the one-vector-per-step Gray walk is the test oracle in
tests/test_quadspace.py.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Sequence

from .gf2 import (
    ENUM_GUARD,
    FalsificationError,
    ResourceLimitError,
    Subspace,
    UsageError,
    _check_width,
    apply_map,
    complement_in,
    full_subspace,
    kernel,
    recombine,
    rref,
    zero_subspace,
)


@dataclass(frozen=True)
class QuadraticSpace:
    """An even-dimensional GF(2) quadratic space (R, q)."""

    dim: int
    u_rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.dim <= 0 or self.dim % 2:
            raise UsageError("quadratic spaces here have even positive dimension")
        if len(self.u_rows) != self.dim:
            raise UsageError("need one coefficient row per coordinate")
        for i, row in enumerate(self.u_rows):
            if row & ((1 << i) - 1):
                raise UsageError("coefficient rows must be upper triangular")

    @functools.cached_property
    def gram(self) -> tuple[int, ...]:
        rows = list(self.u_rows)
        out = []
        for i in range(self.dim):
            r = rows[i] & ~(1 << i)  # strip the diagonal: <a,a> = 0
            for j in range(i):
                if (rows[j] >> i) & 1:
                    r |= 1 << j
            out.append(r)
        return tuple(out)

    @functools.cached_property
    def support(self) -> int:
        """The coordinates with a nonzero coefficient row, the only ones q reads."""
        return sum(1 << i for i, r in enumerate(self.u_rows) if r)

    def q(self, x: int) -> int:
        if x >> self.dim:
            raise UsageError("vector width exceeds space dimension")
        return (apply_map(self.u_rows, x & self.support) & x).bit_count() & 1

    def bilinear(self, x: int, y: int) -> int:
        if (x >> self.dim) or (y >> self.dim):
            raise UsageError("vector width exceeds space dimension")
        return (self.functional(x) & y).bit_count() & 1

    def functional(self, x: int) -> int:
        """The vector f with <x, y> = popcount(f & y) mod 2."""
        return apply_map(self.gram, x)

    def perp(self, s: Subspace) -> Subspace:
        return kernel([self.functional(r) for r in s.rows], self.dim)

    def full(self) -> Subspace:
        return full_subspace(self.dim)


@functools.lru_cache(maxsize=None)
def standard_plus(dim: int) -> QuadraticSpace:
    """q(x) = x1 x2 + x3 x4 + ...  (hyperbolic planes); one shared instance per dim."""
    _check_width(dim)  # before building dim rows of up to dim bits each
    rows = []
    for i in range(dim):
        rows.append((1 << (i + 1)) if i % 2 == 0 else 0)
    return QuadraticSpace(dim, tuple(rows))


def standard_minus(dim: int) -> QuadraticSpace:
    """Standard plus form with the last plane made anisotropic."""
    rows = list(standard_plus(dim).u_rows)
    rows[dim - 2] |= 1 << (dim - 2)
    rows[dim - 1] |= 1 << (dim - 1)
    return QuadraticSpace(dim, tuple(rows))


def direct_sum(a: QuadraticSpace, b: QuadraticSpace) -> QuadraticSpace:
    rows = list(a.u_rows) + [r << a.dim for r in b.u_rows]
    return QuadraticSpace(a.dim + b.dim, tuple(rows))


def lnum_closed(m: int, plus: bool) -> tuple[int, int]:
    """Closed-form (nonzero singular, nonsingular) counts for dim 2m."""
    if plus:
        return (2 ** (2 * m - 1) + 2 ** (m - 1) - 1, 2 ** (2 * m - 1) - 2 ** (m - 1))
    return (2 ** (2 * m - 1) - 2 ** (m - 1) - 1, 2 ** (2 * m - 1) + 2 ** (m - 1))


# Basis rows whose span a census tabulates in one int, one bit per vector:
# 2^14 bits (2 KiB) per big-int operation.  Past dimension 15 a census
# walks 2^(d - 15) steps of one XOR, one AND and one popcount each.
SLICE_ROWS = 14


def singular_census(space: QuadraticSpace, s: Subspace | None = None) -> tuple[int, int]:
    """Exact (nonzero singular, nonsingular) counts over s (default: all).

    Every vector of s is counted, bit-sliced: a 2^k-bit int holds q on a
    coset of the span of the first k = min(dim s - 1, SLICE_ROWS) basis
    rows l_i, the low rows, and one more row is paired with it.  Bit a of
    a pattern stands for l_a, the sum of the l_i with bit i of a set.
    With P_i the pattern of bit i of a, q(l_a) = sum a_i q(l_i) + sum
    over i < j of a_i a_j <l_i, l_j> gives the pattern of q over the low
    span,

        Q = XOR_i P_i & (q(l_i) ONES ^ XOR_{j > i, <l_i, l_j> = 1} P_j).

    By polarization, q(v + h + l_a) = q(v + l_a) + q(h) + <h, v> + <h, l_a>,
    so adding a row h to v XORs in the cross pattern of h (the XOR of the
    P_i with <h, l_i> = 1), complemented when q(h) + <h, v> = 1.  The next
    row h_0 pairs each coset v + low span, of pattern C, with v + h_0 + low
    span: if h_0 XORs in y, the two hold popcount(C) + popcount(C ^ y) =
    popcount(y) + 2 popcount(C & ~y) nonsingular vectors.  The remaining
    rows are walked in Gray order, one XOR, one AND and one popcount per
    step.  The one-vector-per-step Gray walk in tests/test_quadspace.py is
    the oracle.
    """
    if s is None:
        s = space.full()
    if s.dim > ENUM_GUARD:
        raise ResourceLimitError(f"census of 2^{s.dim} vectors refused")
    if not s.dim:
        return 0, 0  # the zero vector alone
    k = min(s.dim - 1, SLICE_ROWS)
    low = s.rows[:k]
    ones = (1 << (1 << k)) - 1
    pats = _bit_patterns(k)

    def cross(f: int, start: int = 0) -> int:
        """The pattern of <x, l_a> over a, for the x with functional f,
        from the low rows start.. only."""
        x = 0
        for p, l in zip(pats[start:], low[start:]):
            if (f & l).bit_count() & 1:
                x ^= p
        return x

    def step(h: int) -> tuple[int, int, int]:
        """h's functional, and the patterns adding h XORs in by <h, v>."""
        f = space.functional(h)
        x = cross(f) ^ (ones if space.q(h) else 0)
        return f, x, x ^ ones

    cur = 0
    for i, (p, l) in enumerate(zip(pats, low)):
        cur ^= p & ((ones if space.q(l) else 0) ^ cross(space.functional(l), i + 1))
    (f0, y0, y1), *steps = map(step, s.rows[k:])
    pair = ((y0.bit_count(), y1), (y1.bit_count(), y0))  # (popcount(y), ~y) by <h_0, v>
    high = s.rows[k + 1 :]
    v = nonsingular = 0
    for n in range(1 << len(high)):
        if n:
            t = (n & -n).bit_length() - 1
            f, x0, x1 = steps[t]
            cur ^= x1 if (f & v).bit_count() & 1 else x0
            v ^= high[t]
        ny, not_y = pair[(f0 & v).bit_count() & 1]
        nonsingular += ny + 2 * (cur & not_y).bit_count()
    return (1 << s.dim) - nonsingular - 1, nonsingular


def _bit_patterns(k: int) -> list[int]:
    """P_i for i < k: the 2^k-bit int whose bit a is bit i of a.

    P_(k-1) is the upper half of the bits.  Below it, P_i = P_(i+1) ^
    (P_(i+1) >> 2^i): adding 2^i to a flips bit i + 1 exactly when bit i
    is set, and the bits shifted in at the top are 0 where bit i is 1.
    """
    if not k:
        return []
    half = 1 << (k - 1)
    pats = [((1 << half) - 1) << half]
    for i in reversed(range(k - 1)):
        pats.append(pats[-1] ^ (pats[-1] >> (1 << i)))
    return pats[::-1]


def _split(
    space: QuadraticSpace, rows: Sequence[int], rng: random.Random | None = None
) -> tuple[list[tuple[int, int]], tuple[int, int] | None, list[int]]:
    """(singular pairs, anisotropic pair or None, radical rows) of a span.

    Each pass pops a row a, takes the first remaining row b that pairs
    oddly with it and makes the remaining rows orthogonal to both; a row
    that pairs with nothing left lies in the radical.  So every pair has
    <a, b> = 1, the pairs are mutually orthogonal, and the radical rows are
    a basis of the radical.  A pair with one nonsingular vector is made
    singular by adding the other vector to it.  Two anisotropic pairs
    (a1, b1), (a2, b2) become the singular pairs (a1 + a2, a1 + a2 + b1)
    and (b1 + b2, a2 + b1 + b2), so one anisotropic pair is left exactly
    when the Arf invariant is 1.  A seeded rng first replaces rows by one
    random recombination of them.
    """
    rows = list(rows) if rng is None else recombine(rows, rng)
    pairs: list[tuple[int, int]] = []
    aniso = None
    radical: list[int] = []
    while rows:
        a = rows.pop()
        fa = space.functional(a)
        j = next((i for i, r in enumerate(rows) if (fa & r).bit_count() & 1), None)
        if j is None:
            radical.append(a)
            continue
        b = rows.pop(j)
        fb = space.functional(b)
        rows = [
            r ^ (a if (fb & r).bit_count() & 1 else 0) ^ (b if (fa & r).bit_count() & 1 else 0)
            for r in rows
        ]
        qa, qb = space.q(a), space.q(b)
        if not (qa and qb):
            pairs.append((a ^ b, b) if qa else (a, a ^ b) if qb else (a, b))
        elif aniso is None:
            aniso = (a, b)
        else:
            a1, b1 = aniso
            pairs += [(a1 ^ a, a1 ^ a ^ b1), (b1 ^ b, a ^ b1 ^ b)]
            aniso = None
    return pairs, aniso, radical


def symplectic_basis(
    space: QuadraticSpace, s: Subspace, rng: random.Random | None = None
) -> list[tuple[int, int]]:
    """Hyperbolic pairs (a, b) spanning a non-singular subspace.

    All pairs satisfy <a,b> = 1 and are mutually orthogonal; every pair is
    normalized to q(a) = q(b) = 0 except possibly the last, which is
    q(a) = q(b) = 1 exactly when the space is of minus type.
    """
    pairs, aniso, radical = _split(space, s.rows, rng)
    if radical:
        raise UsageError("symplectic basis requires a non-singular subspace")
    return pairs + [aniso] if aniso else pairs


def gauss_sum(space: QuadraticSpace, s: Subspace) -> int:
    """The character sum over s of (-1)^q(x), without enumerating s.

    s splits into hyperbolic pairs plus its radical R, on which q is linear.
    The sum is 0 when q is nonzero on R, and (-1)^Arf * 2^(dim s - pairs)
    otherwise.
    """
    pairs, aniso, radical = _split(space, s.rows)
    if any(map(space.q, radical)):
        return 0
    size = 1 << (s.dim - len(pairs) - (aniso is not None))
    return -size if aniso else size


def type_of(space: QuadraticSpace, s: Subspace | None = None) -> str:
    """Type of the form restricted to s: "plus", "minus", or "degenerate(r)"
    with r the radical's dimension, read off the split: minus exactly when
    an anisotropic pair is left, that is, when the Arf invariant is 1."""
    if s is None:
        s = space.full()
    _, aniso, radical = _split(space, s.rows)
    if radical:
        return f"degenerate({len(radical)})"
    return "plus" if aniso is None else "minus"


def max_ts_extend(
    space: QuadraticSpace, partial: Subspace, seed: int = 0
) -> Subspace:
    """Grow a totally singular subspace to a maximal one, seeded.

    In a non-degenerate space the perp of partial is partial plus a
    non-singular complement C, chosen by the seed; partial and the first
    vector of each singular pair of C span a maximal totally singular
    subspace.
    """
    if any(map(space.q, partial.rows)):
        raise UsageError("subspace is not totally singular")
    perp = space.perp(partial)
    if not all(map(perp.contains, partial.rows)):
        raise UsageError("subspace is not totally singular")
    c = complement_in(partial, perp, random.Random(seed))
    pairs, _, _ = _split(space, c.rows)
    return rref([*partial.rows, *(a for a, _ in pairs)], space.dim)


def isometry(
    space: QuadraticSpace,
    t: Subspace,
    u: Subspace,
    rng: random.Random | None = None,
) -> list[tuple[int, int]]:
    """A q-preserving bijection t -> u between non-singular subspaces, as
    matched bases: pairs (a, x) of a basis vector a of t and its image x.

    Both sides are reduced to normalized symplectic bases which are then
    matched up; equal dimension and equal type (an anisotropic last pair on
    both sides or on neither) are required.
    """
    if t.dim != u.dim:
        raise UsageError("isometry requires equal dimensions")
    if t.dim == 0:
        return []
    t_pairs, u_pairs = symplectic_basis(space, t, rng), symplectic_basis(space, u, rng)
    if space.q(t_pairs[-1][0]) != space.q(u_pairs[-1][0]):
        raise UsageError("isometry requires equal types")
    tb = [v for pair in t_pairs for v in pair]
    ub = [v for pair in u_pairs for v in pair]
    pairs = list(zip(tb, ub))
    for i, (a, x) in enumerate(pairs):
        if space.q(x) != space.q(a):
            raise FalsificationError("isometry failed to preserve q on a basis vector")
        fa, fx = space.functional(a), space.functional(x)
        for b, y in pairs[:i]:
            if (fx & y).bit_count() & 1 != (fa & b).bit_count() & 1:
                raise FalsificationError("isometry failed to preserve the pairing")
    return pairs


def nonsingular_inside(
    space: QuadraticSpace,
    pool: Subspace,
    dim: int,
    minus: bool,
    rng: random.Random | None = None,
) -> Subspace:
    """A non-singular subspace of the requested dimension and type inside pool.

    pool may be degenerate (e.g. the perp of a totally singular subspace).
    The block is dim/2 pairs of pool's split: singular pairs, and for minus
    type its anisotropic pair last, or, when pool is of plus type, the
    minus plane (e1 + f1, e1 + e2 + f2) of two singular pairs.
    """
    if dim % 2:
        raise UsageError("non-singular GF(2) subspaces have even dimension")
    if dim == 0:
        if minus:
            raise UsageError("a 0-dimensional subspace has no minus type")
        return zero_subspace(space.dim)
    pairs, aniso, _ = _split(space, pool.rows, rng)
    h = dim // 2 - minus  # singular pairs beside the minus plane
    if minus and aniso is None and len(pairs) >= h + 2:
        (e1, f1), (e2, f2) = pairs.pop(), pairs.pop()
        aniso = (e1 ^ f1, e1 ^ e2 ^ f2)
    if len(pairs) < h or (minus and aniso is None):
        raise FalsificationError("block extraction ran out of room")
    blocks = pairs[:h] + ([aniso] if minus else [])
    return rref([v for pair in blocks for v in pair], space.dim)


# Generators of the orthogonal groups of standard_plus(2) and standard_plus(4),
# each map as its tuple of basis-vector images; tests/test_quadspace.py
# checks that they generate every q-preserving invertible map.
_ORTHOGONAL_GENERATORS = {2: ((2, 1),), 4: ((8, 4, 2, 1), (4, 9, 6, 1))}


def orthogonal_generators(space: QuadraticSpace) -> tuple[tuple[int, ...], ...]:
    """Generators of the orthogonal group of standard_plus(2) or
    standard_plus(4), with no map twice."""
    gens = _ORTHOGONAL_GENERATORS.get(space.dim)
    if gens is None or space != standard_plus(space.dim):
        raise UsageError("orthogonal generators are tabled only for standard_plus(2) and (4)")
    return gens
