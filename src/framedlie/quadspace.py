"""Quadratic spaces over GF(2).

A form is stored through its upper-triangular coefficient rows U (diagonal
included), so ``q(x) = x . U . x`` and the polarized symplectic form is
``B = U + U^T``.  Types (plus/minus) are decided by the Arf invariant of a
symplectic basis; exhaustive singular-vector censuses serve as the
independent cross-check at small dimensions.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Sequence

from .gf2 import (
    ENUM_GUARD,
    Bitvec,
    FalsificationError,
    ResourceLimitError,
    Subspace,
    UsageError,
    enumerate_rows,
    full_subspace,
    intersect,
    kernel,
    rref,
    rref_ints,
    zero_subspace,
)

_SAMPLE_RETRIES = 64


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

    def q(self, v: Bitvec | int) -> int:
        x = v.bits if isinstance(v, Bitvec) else v
        if x >> self.dim:
            raise UsageError("vector width exceeds space dimension")
        acc = 0
        y = x
        while y:
            low = y & -y
            acc ^= (self.u_rows[low.bit_length() - 1] & x).bit_count()
            y ^= low
        return acc & 1

    def bilinear(self, a: Bitvec | int, b: Bitvec | int) -> int:
        x = a.bits if isinstance(a, Bitvec) else a
        y = b.bits if isinstance(b, Bitvec) else b
        if (x >> self.dim) or (y >> self.dim):
            raise UsageError("vector width exceeds space dimension")
        return (self.functional(x) & y).bit_count() & 1

    def functional(self, x: int) -> int:
        """The vector f with <x, y> = popcount(f & y) mod 2."""
        f = 0
        while x:
            low = x & -x
            f ^= self.gram[low.bit_length() - 1]
            x ^= low
        return f

    def perp(self, s: Subspace) -> Subspace:
        return kernel([self.functional(r) for r in s.rows], self.dim)

    def radical(self, s: Subspace) -> Subspace:
        return intersect(s, self.perp(s))

    def full(self) -> Subspace:
        return full_subspace(self.dim)

    def is_nonsingular(self) -> bool:
        return len(rref_ints(self.gram)) == self.dim


def standard_plus(dim: int) -> QuadraticSpace:
    """q(x) = x1 x2 + x3 x4 + ...  (a sum of hyperbolic planes)."""
    rows = []
    for i in range(dim):
        rows.append((1 << (i + 1)) if i % 2 == 0 else 0)
    return QuadraticSpace(dim, tuple(rows))


def standard_minus(dim: int) -> QuadraticSpace:
    """Standard plus form with the last plane made anisotropic."""
    rows = []
    for i in range(dim):
        rows.append((1 << (i + 1)) if i % 2 == 0 else 0)
    rows[dim - 2] |= 1 << (dim - 2)
    rows[dim - 1] |= 1 << (dim - 1)
    return QuadraticSpace(dim, tuple(rows))


def direct_sum(a: QuadraticSpace, b: QuadraticSpace) -> QuadraticSpace:
    rows = list(a.u_rows) + [r << a.dim for r in b.u_rows]
    return QuadraticSpace(a.dim + b.dim, tuple(rows))


@dataclass(frozen=True)
class SpaceType:
    kind: str  # "plus" | "minus" | "degenerate"
    radical_dim: int = 0

    def __str__(self) -> str:
        if self.kind == "degenerate":
            return f"degenerate({self.radical_dim})"
        return self.kind


PLUS = SpaceType("plus")
MINUS = SpaceType("minus")


def lnum_closed(m: int, plus: bool) -> tuple[int, int]:
    """Closed-form (nonzero singular, nonsingular) counts for dim 2m."""
    if plus:
        return (2 ** (2 * m - 1) + 2 ** (m - 1) - 1, 2 ** (2 * m - 1) - 2 ** (m - 1))
    return (2 ** (2 * m - 1) - 2 ** (m - 1) - 1, 2 ** (2 * m - 1) + 2 ** (m - 1))


def singular_census(
    space: QuadraticSpace, s: Subspace | None = None, workers: int = 1
) -> tuple[int, int]:
    """Exhaustive (nonzero singular, nonsingular) counts over s (default: all).

    The walk is Gray-coded so each step costs one popcount; partitioning the
    range across workers merges by addition, so counts are order independent.
    """
    if s is None:
        s = space.full()
    if s.dim > ENUM_GUARD:
        raise ResourceLimitError(f"census of 2^{s.dim} vectors refused")
    n = 1 << s.dim
    if workers < 1:
        raise UsageError("workers must be positive")
    bounds = [n * w // workers for w in range(workers + 1)]
    singular = 0
    for lo, hi in zip(bounds, bounds[1:]):
        singular += _census_chunk(space, s, lo, hi)
    return singular - 1, n - singular


def _census_chunk(space: QuadraticSpace, s: Subspace, lo: int, hi: int) -> int:
    if lo >= hi:
        return 0
    qrow = [space.q(r) for r in s.rows]
    frow = [space.functional(r) for r in s.rows]
    # vector at Gray index i is the XOR of rows selected by i ^ (i >> 1)
    g = lo ^ (lo >> 1)
    v = 0
    mask = g
    while mask:
        low = mask & -mask
        v ^= s.rows[low.bit_length() - 1]
        mask ^= low
    qv = space.q(v)
    count = 1 - qv
    for i in range(lo + 1, hi):
        j = (i & -i).bit_length() - 1
        qv ^= qrow[j] ^ ((frow[j] & v).bit_count() & 1)
        v ^= s.rows[j]
        count += 1 - qv
    return count


def _find_with_q(
    space: QuadraticSpace, sub: Subspace, want: int, rng: random.Random | None
) -> int | None:
    """A nonzero vector of the requested q value, sampled or scanned lazily."""
    if rng is not None:
        for _ in range(_SAMPLE_RETRIES):
            v = 0
            for r in sub.rows:
                if rng.getrandbits(1):
                    v ^= r
            if v and space.q(v) == want:
                return v
    for v in enumerate_rows(sub):
        if v and space.q(v) == want:
            return v
    return None


def symplectic_basis(
    space: QuadraticSpace, s: Subspace, rng: random.Random | None = None
) -> list[tuple[int, int]]:
    """Hyperbolic pairs (a, b) spanning a non-singular subspace.

    All pairs satisfy <a,b> = 1 and are mutually orthogonal; every pair is
    normalized to q(a) = q(b) = 0 except possibly the last, which is
    q(a) = q(b) = 1 exactly when the space is of minus type.
    """
    if space.radical(s).dim:
        raise UsageError("symplectic basis requires a non-singular subspace")
    pairs: list[tuple[int, int]] = []
    cur = s
    while cur.dim:
        a = _find_with_q(space, cur, 0, rng)
        if a is None:
            # anisotropic: only possible at dimension 2
            a = _find_with_q(space, cur, 1, rng)
        fa = space.functional(a)
        # a is outside the radical, so some basis row pairs with it
        partners = [r for r in cur.rows if (fa & r).bit_count() & 1]
        b = partners[rng.randrange(len(partners))] if rng is not None else partners[0]
        if space.q(a) == 0 and space.q(b) == 1:
            b ^= a
        pairs.append((a, b))
        cur = intersect(cur, kernel([fa, space.functional(b)], space.dim))
    # push an anisotropic pair (if any) to the end
    pairs.sort(key=lambda p: space.q(p[0]) | space.q(p[1]))
    return pairs


def arf_invariant(space: QuadraticSpace, s: Subspace) -> int:
    acc = 0
    for a, b in symplectic_basis(space, s):
        acc ^= space.q(a) & space.q(b)
    return acc


def gauss_sum(space: QuadraticSpace, s: Subspace) -> int:
    """The character sum over s of (-1)^q(x), without enumerating s.

    s splits into hyperbolic pairs plus its radical R, on which q is linear.
    The sum is 0 when q is nonzero on R, and (-1)^Arf * 2^(dim s - pairs)
    otherwise.
    """
    rows = list(s.rows)
    pairs = arf = 0
    while rows:
        a = rows.pop()
        fa = space.functional(a)
        j = next((i for i, r in enumerate(rows) if (fa & r).bit_count() & 1), None)
        if j is None:  # a pairs with nothing left, so it lies in the radical
            if space.q(a):
                return 0
            continue
        b = rows.pop(j)
        fb = space.functional(b)
        # make the remaining rows orthogonal to both a and b
        rows = [
            r ^ (a if (fb & r).bit_count() & 1 else 0) ^ (b if (fa & r).bit_count() & 1 else 0)
            for r in rows
        ]
        pairs += 1
        arf ^= space.q(a) & space.q(b)
    size = 1 << (s.dim - pairs)
    return -size if arf else size


def type_of(space: QuadraticSpace, s: Subspace | None = None, cross_check: bool | None = None) -> SpaceType:
    """Type of the form restricted to s: plus, minus, or degenerate(r).

    The Arf invariant decides plus/minus; for small subspaces the census
    closed forms are recomputed as a cross-check unless disabled.
    """
    if s is None:
        s = space.full()
    rad = space.radical(s)
    if rad.dim:
        return SpaceType("degenerate", rad.dim)
    if s.dim % 2:
        raise FalsificationError("non-singular odd-dimensional subspace over GF(2)")
    plus = arf_invariant(space, s) == 0
    if cross_check is None:
        cross_check = s.dim <= 12
    if cross_check:
        if singular_census(space, s) != lnum_closed(s.dim // 2, plus):
            raise FalsificationError("Arf invariant disagrees with the singular census")
    return PLUS if plus else MINUS


def max_ts_extend(
    space: QuadraticSpace, partial: Subspace, seed: int = 0
) -> Subspace:
    """Grow a totally singular subspace to a maximal one, seeded.

    Singular vectors are drawn by seeded sampling from the perp of the
    current subspace (half of the relevant cosets are singular, so a couple
    of draws usually suffice), with an exhaustive scan as the fallback.
    """
    _require_totally_singular(space, partial)
    rng = random.Random(seed)
    cur = partial
    while True:
        perp = space.perp(cur)
        v = _sample_singular_outside(space, perp, cur, rng)
        if v is None:
            return cur
        cur = rref(list(cur.rows) + [v], space.dim)


def _require_totally_singular(space: QuadraticSpace, s: Subspace) -> None:
    for i, r in enumerate(s.rows):
        if space.q(r):
            raise UsageError("subspace is not totally singular")
        for r2 in s.rows[:i]:
            if space.bilinear(r, r2):
                raise UsageError("subspace is not totally singular")


def _sample_singular_outside(
    space: QuadraticSpace, pool: Subspace, avoid: Subspace, rng: random.Random
) -> int | None:
    if pool.dim == avoid.dim:
        return None
    for _ in range(_SAMPLE_RETRIES):
        v = 0
        for r in pool.rows:
            if rng.getrandbits(1):
                v ^= r
        if v and space.q(v) == 0 and not avoid.contains(v):
            return v
    for v in enumerate_rows(pool):
        if v and space.q(v) == 0 and not avoid.contains(v):
            return v
    return None


class LinearMap:
    """A linear map defined on a subspace by images of its rref basis."""

    def __init__(self, domain: Subspace, images: Sequence[int]):
        if len(images) != domain.dim:
            raise UsageError("need one image per basis vector")
        self.domain = domain
        self.images = tuple(images)

    def apply(self, v: Bitvec | int) -> int:
        mask = self.domain.coefficients(v)
        out = 0
        while mask:
            low = mask & -mask
            out ^= self.images[low.bit_length() - 1]
            mask ^= low
        return out

    def image(self) -> tuple[int, ...]:
        return self.images


def isometry(
    space: QuadraticSpace,
    t: Subspace,
    u: Subspace,
    rng: random.Random | None = None,
) -> LinearMap:
    """A q-preserving bijection t -> u between non-singular subspaces.

    Both sides are reduced to normalized symplectic bases which are then
    matched up; equal dimension and equal type are required.
    """
    if t.dim != u.dim:
        raise UsageError("isometry requires equal dimensions")
    if t.dim == 0:
        return LinearMap(t, ())
    if type_of(space, t) != type_of(space, u):
        raise UsageError("isometry requires equal types")
    tb = [v for pair in symplectic_basis(space, t, rng) for v in pair]
    ub = [v for pair in symplectic_basis(space, u, rng) for v in pair]
    dom = rref(tb, space.dim)
    # images must follow the rref basis of the domain, not the pair order
    images = []
    helper = _EchelonSolver(tb)
    for row in dom.rows:
        mask = helper.coefficients(row)
        img = 0
        while mask:
            low = mask & -mask
            img ^= ub[low.bit_length() - 1]
            mask ^= low
        images.append(img)
    phi = LinearMap(dom, images)
    for i, a in enumerate(dom.rows):
        if space.q(phi.apply(a)) != space.q(a):
            raise FalsificationError("isometry failed to preserve q on a basis vector")
        for b in dom.rows[:i]:
            if space.bilinear(phi.apply(a), phi.apply(b)) != space.bilinear(a, b):
                raise FalsificationError("isometry failed to preserve the pairing")
    return phi


class _EchelonSolver:
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
        m = 0
        for r, rm in self.rows:
            if v & (r & -r):
                v ^= r
                m ^= rm
        if v:
            raise UsageError("vector not in span")
        return m


def nonsingular_inside(
    space: QuadraticSpace,
    pool: Subspace,
    dim: int,
    minus: bool,
    rng: random.Random | None = None,
) -> Subspace:
    """A non-singular subspace of the requested dimension and type inside pool.

    pool may be degenerate (e.g. the perp of a totally singular subspace);
    blocks are extracted pairwise and always avoid the radical.
    """
    if dim % 2:
        raise UsageError("non-singular GF(2) subspaces have even dimension")
    if dim == 0:
        if minus:
            raise UsageError("a 0-dimensional subspace has no minus type")
        return zero_subspace(space.dim)
    blocks: list[int] = []
    cur = pool
    need_minus = minus
    while len(blocks) < dim:
        elems = [v for v in enumerate_rows(cur) if v]
        if rng is not None:
            rng.shuffle(elems)
        pair = _find_block(space, cur, elems, want_minus=need_minus)
        if pair is None:
            raise FalsificationError("block extraction ran out of room")
        a, b = pair
        need_minus = False
        blocks.extend((a, b))
        fa, fb = space.functional(a), space.functional(b)
        cur = intersect(cur, kernel([fa, fb], space.dim))
    out = rref(blocks, space.dim)
    if out.dim != dim or space.radical(out).dim:
        raise FalsificationError("extracted blocks are not a non-singular subspace")
    return out


def _find_block(
    space: QuadraticSpace, cur: Subspace, elems: list[int], want_minus: bool
) -> tuple[int, int] | None:
    target = 1 if want_minus else 0
    for a in elems:
        if space.q(a) != target:
            continue
        fa = space.functional(a)
        for b in elems:
            if (fa & b).bit_count() & 1:
                if space.q(b) == target:
                    return a, b
                if not want_minus:
                    # q(a)=0, q(b)=1: a+b completes a hyperbolic pair
                    return a, a ^ b
    return None


@functools.lru_cache(maxsize=None)
def orthogonal_group(space: QuadraticSpace) -> tuple[tuple[int, ...], ...]:
    """All q-preserving invertible maps, as tuples of basis-vector images.

    Exhaustive filter over GL(dim, 2); only dimensions 2 and 4 are allowed.
    """
    d = space.dim
    if d not in (2, 4):
        raise ResourceLimitError("orthogonal groups are only enumerated at dim 2 and 4")
    vectors = list(range(1 << d))
    qs = [space.q(v) for v in vectors]
    out = []
    for code in range(1 << (d * d)):
        images = tuple((code >> (d * i)) & ((1 << d) - 1) for i in range(d))
        if len(rref_ints(list(images))) != d:
            continue
        ok = True
        for v in vectors:
            img = 0
            m = v
            while m:
                low = m & -m
                img ^= images[low.bit_length() - 1]
                m ^= low
            if qs[img] != qs[v]:
                ok = False
                break
        if ok:
            out.append(images)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def orthogonal_generators(space: QuadraticSpace) -> tuple[tuple[int, ...], ...]:
    """A small generating set for orthogonal_group(space)."""
    group = orthogonal_group(space)
    order = len(group)
    gset = set(group)
    for g in group:
        for h in group:
            if _closure_size((g, h), space.dim, gset) == order:
                return (g, h)
    # fall back to the whole group (never needed for dims 2 and 4)
    return group


def apply_map(images: Sequence[int], v: int) -> int:
    out = 0
    while v:
        low = v & -v
        out ^= images[low.bit_length() - 1]
        v ^= low
    return out


def _compose(g: Sequence[int], h: Sequence[int]) -> tuple[int, ...]:
    return tuple(apply_map(g, hv) for hv in h)


def _closure_size(gens: Sequence[tuple[int, ...]], dim: int, bound: set) -> int:
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for g in gens:
            for h in frontier:
                c = _compose(g, h)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
        if len(seen) > len(bound):
            return len(seen)
    return len(seen)
