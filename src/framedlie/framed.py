"""Maximal totally singular subspaces: builders, counting, classification.

Two ambient shapes are supported: three orthogonal copies of a plus-type
space of dimension 2m (the "triple" ambient, with coordinate blocks of
width 2m), and the 28-dimensional direct sum of the coordinatized big
label space with the abstract 10-dimensional one (the "pair" ambient).
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from .codes import interleave_word
from .gf2 import (
    MAX_WIDTH,
    FalsificationError,
    ResourceLimitError,
    Subspace,
    UsageError,
    complement_in,
    format_bits,
    gather,
    intersect,
    kernel,
    parse_bits,
    rref,
    span,
    subspace_sum,
    vanishing_on,
    walsh_hadamard,
    zero_subspace,
)
from .modlabels import (
    CHI0_PLUS,
    RV_DIM,
    TABLE_ROW_LOWEST2,
    ZERO_MINUS,
    RXLabel,
    coordinate_row_table,
    coordinatize,
    normal_form,
    qx,
    rv_model,
)
from .quadspace import (
    QuadraticSpace,
    direct_sum,
    gauss_sum,
    isometry,
    nonsingular_inside,
    orthogonal_generators,
    standard_plus,
    symplectic_basis,
    type_of,
)

# ---------------------------------------------------------------------------
# ambients
# ---------------------------------------------------------------------------


def _m_problem(m: int) -> str | None:
    """Why no triple ambient has this m, or None: its 6m coordinates must fit in MAX_WIDTH."""
    fits = 1 <= m <= MAX_WIDTH // 6
    return None if fits else f"triple ambient needs m in 1..{MAX_WIDTH // 6}, got {m}"


@dataclass(frozen=True)
class TripleAmbient:
    m: int

    def __post_init__(self) -> None:
        if problem := _m_problem(self.m):
            raise UsageError(problem)

    @functools.cached_property
    def block(self) -> QuadraticSpace:
        return standard_plus(2 * self.m)

    @functools.cached_property
    def space(self) -> QuadraticSpace:
        return standard_plus(6 * self.m)

    @property
    def dim(self) -> int:
        return 6 * self.m

    def embed(self, v: int, block: int) -> int:
        return v << (2 * self.m * block)


# the X coordinates of a pair-ambient vector; its V part is the rest, >> 18
_X_MASK = (1 << 18) - 1


class PairAmbient:
    """Coordinatized big label block (dim 18) followed by the small one."""

    def __init__(self):
        self.coords = coordinatize()
        self.rv = rv_model()
        self.space = direct_sum(self.coords.space, self.rv.space)
        self.dim = 28


@functools.lru_cache(maxsize=1)
def pair_ambient() -> PairAmbient:
    return PairAmbient()


@dataclass(frozen=True)
class MtsSubspace:
    """A maximal totally singular subspace of one of the two ambients."""

    ambient: object
    sub: Subspace
    components: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def dim(self) -> int:
        return self.sub.dim

    def space(self) -> QuadraticSpace:
        return self.ambient.space

    def validate(self) -> None:
        """Exact with no kernel: both ambients are non-degenerate and the rows independent, so
        S = S-perp iff dim S = dim V / 2 and <r_i, r_j> = 0 for i < j; q is then additive on S."""
        space = self.space()
        rows = self.sub.rows
        if 2 * len(rows) != space.dim:
            raise FalsificationError("subspace is not half-dimensional")
        if any(map(space.q, rows)):
            raise FalsificationError("basis vector is not singular")
        for i, r in enumerate(rows):
            f = space.functional(r)
            for x in rows[i + 1 :]:
                if (f & x).bit_count() & 1:
                    raise FalsificationError("subspace is not self-perpendicular")

    @functools.cached_property
    def triple_invariants(self) -> tuple[tuple[int, ...], int, bool]:
        return _triple_invariants(self)


# ---------------------------------------------------------------------------
# parameter cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class TCCase:
    """A classification branch: cond1, cond2, or a builder case, even or odd.
    Construction checks a builder case, so every even or odd TCCase can be built."""

    kind: str
    m: int = 0
    k1: int = 0
    k2: int = 0
    eps: str = ""

    def __post_init__(self) -> None:
        fields = (self.kind, self.m, self.k1, self.k2, self.eps)
        if self.kind not in ("cond1", "cond2") and (problem := _case_problem(*fields)):
            raise UsageError(problem)

    def __str__(self) -> str:
        if self.kind == "even":
            return f"even({self.m},{self.k1},{self.k2},{self.eps})"
        if self.kind == "odd":
            return f"odd({self.m},{self.k1},{self.k2})"
        return self.kind


def _case_problem(kind: str, m: int, k1: int, k2: int, eps: str) -> str | None:
    """The one builder-case rule: the first reason these fields name no buildable case, or None."""
    if kind not in ("even", "odd"):
        return f"unknown case kind {kind!r}"
    if problem := _m_problem(m):
        return problem
    if eps not in (("+", "-") if kind == "even" else ("",)):
        return "eps must be '+' or '-' for even cases and empty for odd ones"
    if not 0 <= k2 <= k1 <= m:
        return "need 0 <= k2 <= k1 <= m"
    d = m - k1 - k2
    if d < 0 or d % 2 != (kind == "odd"):
        return f"m - k1 - k2 = {d} has the wrong sign or parity for {kind} cases"
    if eps == "-" and d < 2:
        return "minus type needs a block of dimension at least 2"
    return None


COND1 = TCCase("cond1")
COND2 = TCCase("cond2")


def even_case(m: int, k1: int, k2: int, eps: str) -> TCCase:
    return TCCase("even", m, k1, k2, eps)


def odd_case(m: int, k1: int, k2: int) -> TCCase:
    return TCCase("odd", m, k1, k2)


def parse_case(text: str) -> TCCase:
    """The even or odd case that prints as text.  Nothing else is read: no
    cond case, space, sign or leading zero."""
    kind, _, body = text.partition("(")
    *nums, eps = body.removesuffix(")").split(",") + ([] if kind == "even" else [""])
    try:
        ints = [int(n) for n in nums]
    except ValueError:  # a field that is no integer
        ints = []
    if kind in ("even", "odd") and len(ints) == 3:
        case = TCCase(kind, *ints, eps)
        if str(case) == text:
            return case
    raise UsageError(f"bad case {text!r}; write even(m,k1,k2,+|-) or odd(m,k1,k2)")


def _cases(m: int, k1: int, k2: int) -> Iterator[TCCase]:
    """The builder cases of m with k1, k2: even + then -, or odd, by the parity of m - k1 - k2."""
    for kind, eps in (("even", "+"), ("even", "-"), ("odd", "")):
        if _case_problem(kind, m, k1, k2, eps) is None:
            yield TCCase(kind, m, k1, k2, eps)


def valid_params(m: int) -> list[TCCase]:
    """Every builder case of m: for each k1 >= k2, even + and -, then odd."""
    return [case for k1 in range(m + 1) for k2 in range(k1 + 1) for case in _cases(m, k1, k2)]


# ---------------------------------------------------------------------------
# builders over the triple ambient
# ---------------------------------------------------------------------------


def _singular_line_basis(k: int) -> list[int]:
    # e_1, e_3, ... in pair coordinates: singular and mutually orthogonal
    return [1 << (2 * i) for i in range(k)]


def build_case(case: TCCase, seed: int = 0) -> MtsSubspace:
    """The maximal totally singular subspace of an even or odd case.

    Rows: S1 in block 0, S2 in block 1, P diagonally in blocks 0 and 1, Q in
    blocks 0 and 2, and T in block 1 with its isometric image in block 2.  An
    odd case is the even construction plus a plus-type bridge plane B with
    three rows of its own; an even case has B = 0.
    """
    if case.kind not in ("even", "odd"):
        raise UsageError(f"no builder for case {case}")
    m, k1, k2 = case.m, case.k1, case.k2
    odd = case.kind == "odd"
    amb = TripleAmbient(m)
    space = amb.block
    rng = random.Random(seed)
    w = 2 * m
    s1 = rref(_singular_line_basis(k1), w)
    s2 = rref(_singular_line_basis(k2), w)
    p = nonsingular_inside(space, space.perp(s1), m - k1 - k2 - odd, case.eps == "-", rng)
    s1p = subspace_sum(s1, p)
    if odd:
        q = nonsingular_inside(space, space.perp(s1p), m - k1 + k2 - 1, False, rng)
        b = complement_in(s1, space.perp(subspace_sum(s1p, q)), rng)
        if b.dim != 2 or type_of(space, b) != "plus":
            raise FalsificationError("bridge block is not a plus-type plane")
        # z and f are b's two singular vectors, y = z + f its nonsingular one
        [(z, f)] = symplectic_basis(space, b, rng)
        y = z ^ f
    else:
        q = complement_in(s1, space.perp(s1p), rng)
        b = zero_subspace(w)
    t = complement_in(s2, space.perp(subspace_sum(subspace_sum(p, s2), b)), rng)
    u = space.perp(subspace_sum(q, b))
    if q.dim != m - k1 + k2 - odd or t.dim != m + k1 - k2 - odd or u.dim != t.dim:
        raise FalsificationError(f"{case.kind} builder produced wrong block dimensions")
    graph = isometry(space, t, u, rng)
    embed = amb.embed
    rows = [embed(v, 0) for v in s1.rows]
    rows += [embed(v, 1) for v in s2.rows]
    rows += [embed(v, 0) | embed(v, 1) for v in p.rows]
    rows += [embed(v, 0) | embed(v, 2) for v in q.rows]
    rows += [embed(a, 1) | embed(x, 2) for a, x in graph]
    components = {}
    if odd:
        rows += [embed(y, 0) | embed(y, 1), embed(y, 0) | embed(y, 2), embed(z, 0) | embed(z, 1) | embed(z, 2)]
        # section47_orbifold_choices reads S1, T and z
        components = {"S1": s1, "T": t, "z": z}
    out = MtsSubspace(amb, rref(rows, amb.dim), components)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# counting over the triple ambient
# ---------------------------------------------------------------------------


def profile(s: MtsSubspace) -> tuple[int, int]:
    """(count of one-coordinate vectors, count of two-coordinate
    nonsingular-pair vectors), from the invariants of the subspace."""
    ones, n2, _ = s.triple_invariants
    return sum(ones), n2


def _triple_invariants(s: MtsSubspace) -> tuple[tuple[int, ...], int, bool]:
    """(one-coordinate count per block, n2, condition two) in polynomial time.

    For blocks a, b let W = S n (A_a + A_b), found by eliminating the rows
    of S on the coordinates of the third block (gf2.vanishing_on), and
    P = pi_a(W); the kernel of pi_a on W is S n A_b.  Singularity of S
    makes the a- and b-parts of a vector of W equally singular, so the pair
    adds to n2 the vectors of W with nonsingular a-part:
    (|W| - 2^(dim W - dim P) G(P)) / 2, where G is the Gauss sum.
    Condition two holds at block j when
    U = pi_j(W_j,o1) n pi_j(W_j,o2) has a singular vector that both pairs
    reach with exactly two nonzero blocks: U holds (|U| + G(U)) / 2 singular
    vectors, of which S n A_j is excluded if S n A_o1 or S n A_o2 is zero,
    and otherwise only the zero vector.
    """
    amb = s.ambient
    if not isinstance(amb, TripleAmbient):
        raise UsageError("profile and classification are defined over the triple ambient")
    block = amb.block
    w = 2 * amb.m
    mask = (1 << w) - 1
    dims = [0, 0, 0]
    shadow = {}
    n2 = 0
    for a, b in ((0, 1), (0, 2), (1, 2)):
        pair = vanishing_on(s.sub, mask << (w * (3 - a - b)))
        for x, y in ((a, b), (b, a)):
            shadow[x, y] = rref([(r >> (w * x)) & mask for r in pair.rows], w)
            dims[y] = pair.dim - shadow[x, y].dim
        n2 += ((1 << pair.dim) - (gauss_sum(block, shadow[a, b]) << dims[b])) // 2
    cond2 = False
    for j, o1, o2 in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        u = intersect(shadow[j, o1], shadow[j, o2])
        singular = ((1 << u.dim) + gauss_sum(block, u)) // 2
        excluded = 1 << dims[j] if 0 in (dims[o1], dims[o2]) else 1
        cond2 = cond2 or singular > excluded
    return tuple((1 << d) - 1 for d in dims), n2, cond2


def lnumber_closed(case: TCCase) -> tuple[int, int]:
    """Closed forms for the profile of a builder case."""
    if case.kind not in ("even", "odd"):
        raise UsageError("closed profile forms exist only for builder cases")
    m, k1, k2 = case.m, case.k1, case.k2
    n1 = 2**k1 + 2**k2 - 2
    base = 2 ** (m - 1) + 2 ** (m + k1 - 1) + 2 ** (m + k2 - 1)
    if case.kind == "odd":
        return n1, base
    corr = 3 * 2 ** ((m + k1 + k2) // 2 - 1)
    return n1, base - corr if case.eps == "+" else base + corr


def weight1_dim_triple(s: MtsSubspace) -> int:
    """Weight-one dimension: 8 per one-coordinate vector, 1 per pair."""
    n1, n2 = profile(s)
    return 8 * n1 + n2


def classify_triple(s: MtsSubspace) -> TCCase:
    """Decide which of the four classification branches the subspace is in."""
    ones, n2, cond2 = s.triple_invariants
    return _decide_branch(s.ambient.m, ones, n2, cond2)


def _decide_branch(m: int, ones: tuple[int, ...], n2: int, cond2: bool) -> TCCase:
    """Map the one-coordinate counts per block, n2 and condition two to a case.

    Condition checks come first.  Otherwise the two nonzero projection
    dimensions k1 >= k2 of the one-coordinate parts and n2 name the builder
    case of m with those k1, k2 and closed pair count; the parity of m - k1 - k2
    tells odd from even, and the count + from -.  No match is reported loudly.
    """
    if all(ones):
        return COND1
    if cond2:
        return COND2
    k1, k2, _ = sorted(((c + 1).bit_length() - 1 for c in ones), reverse=True)
    for case in _cases(m, k1, k2):
        if lnumber_closed(case)[1] == n2:
            return case
    raise FalsificationError(
        f"projections k1 = {k1}, k2 = {k2} with pair count {n2} match no builder case of m = {m}"
    )


# ---------------------------------------------------------------------------
# orbifold map
# ---------------------------------------------------------------------------


def z2_orbifold(s: MtsSubspace, w: int) -> MtsSubspace:
    """span{W, S n W-perp}: the label-level two-torsion orbifold."""
    space = s.space()
    if space.q(w):
        raise UsageError("orbifold vector must be singular")
    if s.sub.contains(w):
        raise UsageError("orbifold vector must lie outside the subspace")
    fixed = intersect(s.sub, kernel([space.functional(w)], space.dim))
    sub = rref(list(fixed.rows) + [w], space.dim)
    out = MtsSubspace(s.ambient, sub)
    out.validate()
    return out


def section47_orbifold_choices(s: MtsSubspace, limit: int) -> list[tuple[int, int, int]]:
    """(s0, t0, W) triples for the orbifold move on the odd(5,4,0) case.

    t0 ranges over singular vectors of the T block not perpendicular to the
    first singular column space; W = (t0, 0, z).
    """
    comps = s.components
    if "T" not in comps or "z" not in comps:
        raise UsageError("need a builder-produced odd-case subspace")
    amb = s.ambient
    space = amb.block
    t_block, s1, z = comps["T"], comps["S1"], comps["z"]
    # both spans are walked in Gray order: step i sums the rows i ^ i >> 1 selects
    ts, ss = span(t_block.rows), span(s1.rows)
    s1_walk = [ss[i ^ i >> 1] for i in range(len(ss))]
    out = []
    for i in range(len(ts)):
        if len(out) >= limit:
            break
        t0 = ts[i ^ i >> 1]
        if t0 == 0 or space.q(t0):
            continue
        s0 = next((sv for sv in s1_walk if space.bilinear(sv, t0)), None)
        if s0 is None:
            continue
        w = amb.embed(t0, 0) | amb.embed(z, 2)
        out.append((s0, t0, w))
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def to_text(s: MtsSubspace) -> str:
    amb = s.ambient
    header = f"ambient=triple m={amb.m}" if isinstance(amb, TripleAmbient) else "ambient=pair"
    lines = [header]
    for r in s.sub.rows:
        lines.append(format_bits(r, amb.dim))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> MtsSubspace:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("ambient="):
        raise UsageError("missing ambient header")
    head = lines[0][len("ambient=") :]
    if head == "pair":
        amb: object = pair_ambient()
    elif head.startswith("triple m="):
        try:
            m = int(head[len("triple m=") :])
        except ValueError:
            raise UsageError(f"bad triple ambient header {head!r}") from None
        amb = TripleAmbient(m)
    else:
        raise UsageError(f"unknown ambient {head!r}")
    rows = [parse_bits(ln) for ln in lines[1:]]
    if any(len(ln) != amb.dim for ln in lines[1:]):
        raise UsageError("row width does not match the ambient")
    out = MtsSubspace(amb, rref(rows, amb.dim))
    try:
        out.validate()
    except FalsificationError as exc:  # bad input, not a failed theorem
        raise UsageError(f"not a maximal totally singular subspace: {exc}") from None
    return out


# ---------------------------------------------------------------------------
# small-m census with orbits
# ---------------------------------------------------------------------------


@dataclass
class CensusReport:
    m: int
    total: int
    per_case: dict
    orbit_count: int
    per_case_orbits: dict
    built_case_orbits: dict
    built_distinct: bool


def _all_subspace_rrefs(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(rows, pivots) for every rref matrix over F_2^n, dimension 0..n; for
    each pivot set, the free entries of the first row vary fastest."""
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [span([1 << c for c in range(p + 1, n) if c not in pivots]) for p in pivots]
            for parts in itertools.product(*free[::-1]):
                yield tuple(1 << p | x for p, x in zip(pivots, parts[::-1])), pivots


def _mts_sums(m: int, lanes: list[int]) -> Iterator[int]:
    """The sum of lanes over every maximal totally singular subspace of
    the triple ambient, once each, independent of the classification.

    A subspace is {E(b) + O(a + F b) : b in B, a in A = kernel(B)}: B an
    even-half shadow (rref rows b_i, pivots p_i, k = dim B), F an
    alternating form, E and O the even and odd embeddings, and F b_beta =
    p_(F beta), where b_beta and p_beta sum the b_i and e_(p_i) beta picks.
    By Poisson summation over A, lanes[E(e) | O(x + a)] sums over a in A to
    2^-k times the sum over y in B of rhat[e][y] (-1)^(x . y), where rhat[e]
    is the transform of lanes[E(e) | O(.)], and p_gamma . b_delta = gamma .
    delta.  The form enters through a wedge: delta . F beta = code . w(beta,
    delta), bit t of w being delta_i beta_j + delta_j beta_i for pivot pair
    t = (i, j).  So the sums are the Walsh-Hadamard transform over code of V,
    V[c] the sum of rhat[b_beta][b_delta] over w(beta, delta) = c, shifted
    right by k: all linear in the packed ints, so only the sums are read.
    """
    n = 3 * m
    evens = span([interleave_word(1 << i, n) for i in range(n)])
    rhat = [walsh_hadamard([lanes[ev | ox << 1] for ox in evens], n) for ev in evens]
    wedges: dict[int, list[int]] = {}
    for brows, _ in _all_subspace_rrefs(n):
        k = len(brows)
        if k not in wedges:  # w is bilinear: span w(e_i, e_j) over beta, then delta
            unit = [[0] * k for _ in range(k)]
            for t, (i, j) in enumerate(itertools.combinations(range(k), 2)):
                unit[i][j] = unit[j][i] = 1 << t
            cols = list(map(span, unit))
            wedges[k] = [w for beta in range(1 << k) for w in span([col[beta] for col in cols])]
        p = k * (k - 1) // 2
        shadow = span(brows)
        v = [0] * (1 << p)
        cells = itertools.chain.from_iterable(map(rhat[e].__getitem__, shadow) for e in shadow)
        for c, x in zip(wedges[k], cells):
            v[c] += x
        h = len(v) // 2  # top code bit first, while v is sparse: half the peak memory
        for half in [list(map(op, v[:h], v[h:])) for op in (operator.add, operator.sub)] if h else [v]:
            yield from map(k.__rrshift__, walsh_hadamard(half, max(p - 1, 0)))


def _mts_rows(n: int, brows: tuple[int, ...], pivots: tuple[int, ...], code: int) -> list[int]:
    """Basis rows of {E(b) + O(a + F b)}, the census subspace that _mts_sums
    sums for shadow rows brows (pivots p_j) and form code: O(a) for each row
    a of the annihilator, and E(b_l) + O(sum of e_(p_j)) over the pivot
    pairs (l, j) that code sets, pair t being combinations(range(k), 2)[t]."""
    rows = [interleave_word(a, n) << 1 for a in kernel(list(brows), n).rows]
    odd = [0] * len(brows)
    for t, (i, j) in enumerate(itertools.combinations(range(len(brows)), 2)):
        if code >> t & 1:
            odd[i] |= 1 << pivots[j]
            odd[j] |= 1 << pivots[i]
    return rows + [interleave_word(b, n) | interleave_word(x, n) << 1 for b, x in zip(brows, odd)]


def mts_count_formula(m: int) -> int:
    """Product formula for the number of maximal totally singular subspaces."""
    n = 3 * m
    out = 1
    for i in range(n):
        out *= 2**i + 1
    return out


def _wreath_generators(m: int) -> list[list[int]]:
    """Maps on the triple ambient: the block group on coordinate one plus
    the two coordinate permutations, each as its table of images of all
    2^(6m) vectors."""
    w = 2 * m
    mask = (1 << w) - 1
    vectors = range(1 << (3 * w))
    gens = []
    for g in orthogonal_generators(standard_plus(w)):
        block = span(g)
        gens.append([(v & ~mask) | block[v & mask] for v in vectors])
    # new block i is old block src[i]: swap blocks one and two, then cycle
    for src in ((1, 0, 2), (2, 0, 1)):
        gens.append([
            sum(((v >> (w * s)) & mask) << (w * i) for i, s in enumerate(src))
            for v in vectors
        ])
    return gens


def _wreath_order(m: int) -> int:
    """Order of the group _wreath_generators generates: O+(2m, 2) acting on
    each block and S_3 permuting the blocks, with |O+(2m, 2)| =
    2 * 2^(m(m-1)) * (2^m - 1) * prod_{i=1}^{m-1} (4^i - 1)."""
    block = (2 << (m * (m - 1))) * ((1 << m) - 1)
    for i in range(1, m):
        block *= 4**i - 1
    return block**3 * 6


def _check_isometry(tab: list[int], q: bytes) -> None:
    """Raise unless tab, a table of images, is a linear isometry of the
    space whose quadratic form has the value table q."""
    n = len(q)
    if (
        sorted(tab) != list(range(n))
        or bytes(gather(q, tab)) != q
        or any(tab[v] != tab[v & (v - 1)] ^ tab[v & -v] for v in range(1, n))
    ):
        raise FalsificationError("a census generator is not a linear isometry")


def _fingerprint_words(m: int) -> list[int]:
    """One fixed random word per vector of the triple ambient, below 2^56.

    A census sum adds the words of 2^(3m) <= 64 vectors in one 64-bit lane
    of whole packed ints; only the final sums, not the signed intermediates
    of _mts_sums, must stay in their lanes.  Words below 2^(63 - 3m), as
    _census_pass checks, keep them below 2^63: no carry, no array('q') overflow."""
    rng = random.Random(f"census fingerprint m={m}")
    return [rng.getrandbits(56) for _ in range(1 << (6 * m))]


_LANE = (1 << 64) - 1


def _census_lanes(words: list[int], gens: list[list[int]]) -> list[int]:
    """One int per vector v holding 64-bit lanes: lane 0 is words[v] and
    lane k in 1..g is words[gens[k - 1][v]].  A sum over a span is then,
    lane by lane, the span's key and the keys of its g generator images."""
    columns = (words, *(map(words.__getitem__, tab) for tab in gens))
    return [sum(x << (64 * k) for k, x in enumerate(values)) for values in zip(*columns)]


def _census_pass(m: int) -> tuple[list[int], Callable[[Sequence[int]], int], list[list[int]]]:
    """Enumerate and orbit-partition all maximal t.s. subspaces.

    Returns each subspace's orbit label, the least census index in its
    orbit, in enumeration order; a function from a basis of a maximal t.s.
    subspace to its census index; and the generator tables.

    A subspace's key is the sum of fixed random words over its span.  The
    keys are checked to be distinct and as many as the product formula, so
    each key names one subspace and every subspace is there.  The
    generators are checked to be linear isometries, so each image is a
    census subspace, and its key is the same sum over the word table
    composed with the generator: the orbit pass does no row reduction.

    _mts_sums gives each subspace's sum of _census_lanes entries: lane 0 is
    the key and lanes 1..g the image keys.  Words below 2^(63 - 3m),
    checked before any table or span is made, keep each lane below 2^63,
    so no lane carries into the next.  The image lanes go to an array('q')
    as native-order bytes; on a big-endian host that reverses the generator
    order within each subspace's block, which neither the remap nor the
    orbit pass depends on.
    """
    words = _fingerprint_words(m)
    if not 0 <= min(words) <= max(words) < 1 << (63 - 3 * m):
        raise FalsificationError("census fingerprint words overflow their lane")
    gens = _wreath_generators(m)
    q = bytes(map(TripleAmbient(m).space.q, range(len(words))))
    for tab in gens:
        _check_isometry(tab, q)
    lanes = _census_lanes(words, gens)
    g = len(gens)
    index: dict[int, int] = {}
    images = array("q")
    for i, t in enumerate(_mts_sums(m, lanes)):
        if index.setdefault(t & _LANE, i) != i:
            raise FalsificationError("duplicate subspace or key collision in the census")
        images.frombytes((t >> 64).to_bytes(8 * g, sys.byteorder))
    total = len(index)
    if total != mts_count_formula(m):
        raise FalsificationError(
            f"census total {total} disagrees with the product formula"
        )
    try:  # image keys to census indices in place; an orbit's first index labels it
        for i in range(0, len(images), 1 << 16):
            images[i : i + (1 << 16)] = array("q", map(index.__getitem__, images[i : i + (1 << 16)]))
    except KeyError:
        raise FalsificationError("a census generator maps a subspace outside the census") from None
    labels = [-1] * total
    for i in range(total):
        if labels[i] < 0:
            labels[i] = i
            queue = [i]
            for x in queue:
                for y in images[g * x : g * x + g]:
                    if labels[y] < 0:
                        labels[y] = i
                        queue.append(y)

    def locate(rows) -> int:
        i = index.get(sum(map(lanes.__getitem__, span(rows))) & _LANE)
        if i is None:
            raise FalsificationError("a subspace's key is not in the census")
        return i

    return labels, locate, gens


@functools.lru_cache(maxsize=None)
def census_small(m: int) -> CensusReport:
    """Enumerate, classify and orbit-partition all maximal t.s. subspaces.

    Each orbit is classified once, by classify_triple on its least census
    subspace, rebuilt from its index by _mts_rows; the rebuild must locate
    back to that index, and every generator must map the subspace to one of
    the same class.  Each built case must lie in an orbit of its own class.
    """
    if m < 1:
        raise UsageError(f"census needs m >= 1, got {m}")
    if m > 2:
        raise ResourceLimitError("full census only at m = 1 and 2")
    labels, locate, gens = _census_pass(m)
    sizes = Counter(labels)
    order = _wreath_order(m)
    for size in sizes.values():
        if order % size:
            raise FalsificationError(
                f"an orbit of {size} subspaces does not divide the group order {order}"
            )
    amb = TripleAmbient(m)
    orbit_case: dict[int, TCCase] = {}
    pending = sorted(sizes, reverse=True)
    first = 0  # the census index of the shadow's first subspace
    for brows, pivots in _all_subspace_rrefs(3 * m):
        k = len(brows)
        count = 1 << (k * (k - 1) // 2)
        while pending and pending[-1] < first + count:
            label = pending.pop()
            rows = _mts_rows(3 * m, brows, pivots, label - first)
            if locate(rows) != label:
                raise FalsificationError(f"census subspace {label} rebuilds to another index")
            s = MtsSubspace(amb, rref(rows, amb.dim))
            s.validate()
            case = orbit_case[label] = classify_triple(s)
            for tab in gens:
                image = classify_triple(MtsSubspace(amb, rref([tab[r] for r in rows], amb.dim)))
                if image != case:
                    raise FalsificationError(
                        f"a census generator maps census subspace {label} of class {case} to {image}"
                    )
        first += count
    per_case: Counter[TCCase] = Counter()
    for label, size in sizes.items():
        per_case[orbit_case[label]] += size
    per_case_orbits = Counter(orbit_case.values())
    built_case_orbits = {}
    for case in valid_params(m):
        # the builders validate, so a built subspace is in the census
        label = labels[locate(build_case(case, seed=0).sub.rows)]
        if orbit_case[label] != case:
            raise FalsificationError(f"built case {case} lies in an orbit of class {orbit_case[label]}")
        built_case_orbits[case] = label
    built_distinct = len(set(built_case_orbits.values())) == len(built_case_orbits)
    return CensusReport(
        m=m,
        total=len(labels),
        per_case={str(c): n for c, n in sorted(per_case.items())},
        orbit_count=len(orbit_case),
        per_case_orbits={str(c): n for c, n in sorted(per_case_orbits.items())},
        built_case_orbits={str(c): r for c, r in sorted(built_case_orbits.items())},
        built_distinct=built_distinct,
    )


# ---------------------------------------------------------------------------
# the pair ambient: prescribed cases
# ---------------------------------------------------------------------------

_C1 = 0b1111
_C2 = 0b110011
_C3 = 0b01010101
_EPS_LABEL = RXLabel(0, 1, 0, 0, 0)
_A1_LABEL = RXLabel(0, 0, 0, 1, 0)


def _half(c: int) -> RXLabel:
    return normal_form(0, 0, c, 0, 0)


PAIR_CASE_GENERATORS: dict[str, tuple[RXLabel, ...]] = {
    "pcl5_3": (_half(_C1), _half(_C2), _half(_C3), _EPS_LABEL, CHI0_PLUS),
    "pcl4_3": (ZERO_MINUS, _A1_LABEL, _half(_C1), _half(_C2)),
    "pcl4_4": (ZERO_MINUS, _half(_C1), _half(_C2), _half(_C3)),
    "pcl4_5": (ZERO_MINUS, _half(_C1), _half(_C2), _EPS_LABEL),
    "pcl4_6": (_half(_C1), _half(_C2), _EPS_LABEL, CHI0_PLUS),
    "niemeier_a17e7": (ZERO_MINUS, _A1_LABEL, _half(_C1), _half(_C2), _half(_C3)),
}

PAIR_CASE_IDS = tuple(PAIR_CASE_GENERATORS)


def pair_case_prescription(case_id: str) -> Subspace:
    """The prescribed X-side shadow of the kernel part, in coordinates."""
    if case_id not in PAIR_CASE_GENERATORS:
        raise UsageError(f"unknown pair case {case_id!r}")
    amb = pair_ambient()
    gens = PAIR_CASE_GENERATORS[case_id]
    sub = rref([amb.coords.to_coords(g) for g in gens], 18)
    if sub.dim != len(gens):
        raise FalsificationError("prescribed generators are group-dependent")
    for i, g in enumerate(gens):
        if qx(g):
            raise FalsificationError("prescribed generator is nonsingular")
    return sub


def build_pair_case(case_id: str, seed: int = 0) -> MtsSubspace:
    """The maximal t.s. subspace whose kernel shadow is the prescription P.

    K, spanned by dim P - 4 singular lines of V, is totally singular.  C, a
    complement of P in its X-side perp, and W, one of K in its V-side perp,
    are non-singular (P and K are the radicals of those perps), of
    dimension 10 - 2 dim K and of types fixed by P and K, so the isometry
    phi: C -> W exists at every seed or at none.  X and V are orthogonal,
    so q(c + phi(c)) = q(c) + q(phi(c)) = 0 and the graph vectors are
    orthogonal to P, K and each other.  P + K + graph has dimension
    dim P + dim K + dim C = 14 and meets X+0 only in P: k = phi(c) forces
    k = 0 and c = 0, as K n W = 0 and phi is injective.
    """
    amb = pair_ambient()
    rng = random.Random(f"pair {case_id} seed={seed}")
    p = pair_case_prescription(case_id)
    k = rref(_singular_line_basis(p.dim - 4), 10)
    c = complement_in(p, amb.coords.space.perp(p), rng)
    w = complement_in(k, amb.rv.space.perp(k), rng)
    graph = isometry(amb.space, rref(c.rows, 28), rref([r << 18 for r in w.rows], 28), rng)
    rows = [*p.rows, *(r << 18 for r in k.rows), *(a ^ x for a, x in graph)]
    out = MtsSubspace(amb, rref(rows, 28))
    out.validate()
    if _rho_kernel_projection(out.sub, side=0).rows != p.rows:
        raise FalsificationError(f"pair case {case_id}: kernel shadow is not the prescription")
    return out


def _rho_kernel_projection(sub: Subspace, side: int) -> Subspace:
    """rho_i of the part of sub that vanishes on the other side."""
    lo, hi = (0, 18) if side == 0 else (18, 28)
    part = vanishing_on(sub, ((1 << 28) - 1) ^ ((1 << hi) - (1 << lo)))
    return rref([r >> lo for r in part.rows], hi - lo)


def rho_invariants(s: MtsSubspace) -> dict:
    """Projection data of a maximal t.s. subspace of the pair ambient.

    Asserts the projection-perp identities and the dimension bound that
    every maximal subspace must satisfy.
    """
    amb = s.ambient
    if not isinstance(amb, PairAmbient):
        raise UsageError("rho invariants are defined over the pair ambient")
    rho1 = rref([r & _X_MASK for r in s.sub.rows], 18)
    rho2 = rref([r >> 18 for r in s.sub.rows], 10)
    rho1_ker = _rho_kernel_projection(s.sub, side=0)
    rho2_ker = _rho_kernel_projection(s.sub, side=1)
    if amb.coords.space.perp(rho1_ker).rows != rho1.rows:
        raise FalsificationError("X-side projection identity failed")
    if amb.rv.space.perp(rho2_ker).rows != rho2.rows:
        raise FalsificationError("V-side projection identity failed")
    if rho1_ker.dim < 4:
        raise FalsificationError("kernel shadow dimension fell below four")
    return {
        "rho1": rho1,
        "rho2": rho2,
        "rho1_of_kernel2": rho1_ker,
        "rho2_of_kernel1": rho2_ker,
    }


def weight1_dim_pair(s: MtsSubspace) -> dict:
    """Weight-one dimension two ways: direct enumeration and the five-term
    projection formula; a mismatch aborts loudly.  The fields are those
    `frame pair` prints, in its order.

    A vector counts when the doubled lowest weights of its X and V labels
    add to 2, with the product of their lowest dims.  The walk lists the X
    coordinates of s and reads their rows from `coordinate_row_table`, with
    no fusion product.  The result also carries the dimensions of the
    projections `rho_invariants` checked.
    """
    amb = s.ambient
    inv = rho_invariants(s)
    # s in the basis (rest, ker), ker its part with V part 0: entry i of the
    # walk has the V part of entry i mod 2^dim rest, and entry j << dim rest
    # is the j-th vector of ker
    ker = vanishing_on(s.sub, ~_X_MASK)
    rest = complement_in(ker, s.sub).rows
    # one byte per vector of s: the row of its X label in the low nibble and
    # the doubled lowest weight of its V label (0, 1 or 2) in the high one
    rows = bytes(gather(coordinate_row_table(), span([r & _X_MASK for r in (*rest, *ker.rows)])))
    small = bytes(gather(amb.rv.lowest2, span([r >> 18 for r in rest]))) * (1 << ker.dim)
    keys = int.from_bytes(rows, "little") | int.from_bytes(small, "little") << 4
    keys = keys.to_bytes(len(rows), "little")
    direct = 0
    for row, (lw2, dim) in enumerate(TABLE_ROW_LOWEST2):
        if row and lw2 <= 2:
            direct += keys.count(row | (2 - lw2) << 4) * dim * RV_DIM[2 - lw2]
    kernel_rows = Counter(rows[1 << len(rest) :: 1 << len(rest)])  # ker but 0: rows 1..8
    # projecting onto X maps s onto rho1, 2^(dim s - dim rho1) to one
    n_row3_full, odd = divmod(rows.count(3), 1 << (s.sub.dim - inv["rho1"].dim))
    if odd:
        raise FalsificationError("row-3 count of s is not a multiple of the rho1 fibre")
    size_ker1 = 1 << inv["rho2_of_kernel1"].dim
    terms = (
        16 * kernel_rows[2],
        4 * kernel_rows[4],
        kernel_rows[7],
        8 * (size_ker1 - 1),
        n_row3_full * size_ker1,
    )
    if direct != sum(terms):
        raise FalsificationError(
            f"weight-one mismatch: direct {direct} vs formula terms {terms}"
        )
    return {
        "dim_rho1": inv["rho1"].dim,
        "dim_rho1_of_kernel": inv["rho1_of_kernel2"].dim,
        "dim_rho2_of_kernel": inv["rho2_of_kernel1"].dim,
        "weight1_formula": sum(terms),
        "weight1_direct": direct,
        "terms": list(terms),
        "row3_in_rho1": n_row3_full,
        "kernel_rows": {str(r): n for r, n in sorted(kernel_rows.items())},
    }


def read_case(text: str) -> TCCase | str:
    """The case a ledger id names: a pair id as it is, else the builder case it prints."""
    return text if text in PAIR_CASE_IDS else parse_case(text)


def weigh(case: TCCase | str, seed: int) -> tuple[MtsSubspace, int, dict]:
    """Build a builder case or a pair case (its id) at seed: the subspace, its
    weight-one dimension and the fields `frame build` or `frame pair` prints."""
    if isinstance(case, str):
        sub = build_pair_case(case, seed)
        fields = weight1_dim_pair(sub)
        return sub, fields["weight1_direct"], fields
    sub = build_case(case, seed)
    fields = {
        "profile": list(profile(sub)),
        "profile_closed_form": list(lnumber_closed(case)),
        "weight1": weight1_dim_triple(sub),
        "classified": str(classify_triple(sub)),
    }
    return sub, fields["weight1"], fields
