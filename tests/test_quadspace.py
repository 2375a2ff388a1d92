import itertools
import random

import pytest

from framedlie import quadspace
from framedlie.gf2 import (
    FalsificationError,
    UsageError,
    apply_map,
    full_subspace,
    intersect,
    rref,
    rref_ints,
    span,
    zero_subspace,
)
from framedlie.modlabels import coordinatize, rv_model
from framedlie.quadspace import (
    QuadraticSpace,
    _split,
    direct_sum,
    gauss_sum,
    isometry,
    lnum_closed,
    max_ts_extend,
    nonsingular_inside,
    orthogonal_generators,
    singular_census,
    standard_minus,
    standard_plus,
    symplectic_basis,
    type_of,
)


def test_usage_guards():
    plane, space = standard_plus(2), standard_plus(4)
    for call, message in (
        (lambda: QuadraticSpace(0, ()), "even positive dimension"),
        (lambda: QuadraticSpace(3, (0, 0, 0)), "even positive dimension"),
        (lambda: QuadraticSpace(2, (0b10,)), "one coefficient row per coordinate"),
        (lambda: QuadraticSpace(2, (0b10, 0b11)), "upper triangular"),
        (lambda: plane.q(0b100), "vector width exceeds space dimension"),
        (lambda: plane.bilinear(0b01, 0b100), "vector width exceeds space dimension"),
        (lambda: symplectic_basis(space, rref([0b0001], 4)), "requires a non-singular subspace"),
        # e0 and e1 are singular but pair to 1
        (lambda: max_ts_extend(plane, rref([0b01, 0b10], 2)), "not totally singular"),
        (lambda: isometry(space, rref([0b0011], 4), space.full()), "requires equal dimensions"),
        (lambda: nonsingular_inside(space, space.full(), 3, False), "have even dimension"),
    ):
        with pytest.raises(UsageError, match=message):
            call()


def test_hyperbolic_plane_values():
    h = standard_plus(2)
    assert h.q(0b00) == 0
    assert h.q(0b11) == 1
    assert h.q(0b01) == 0
    assert h.q(0b10) == 0


def test_dim4_bilinear():
    sp = standard_plus(4)
    assert sp.bilinear(0b0001, 0b0010) == 1
    assert sp.bilinear(0b0001, 0b0100) == 0


def test_polarization_exhaustive_small():
    import numpy as np

    for dim in (2, 4, 6, 8, 10, 12):
        for space in (standard_plus(dim), standard_minus(dim)):
            idx = np.arange(1 << dim, dtype=np.uint32)
            qtab = np.array([space.q(int(v)) for v in idx], dtype=np.uint8)
            ftab = np.array([space.functional(int(v)) for v in idx], dtype=np.uint32)
            xor = np.bitwise_xor.outer(idx, idx)
            polar = qtab[xor] ^ qtab[:, None] ^ qtab[None, :]
            bil = np.bitwise_count(np.bitwise_and.outer(ftab, idx)).astype(np.uint8) & 1
            assert np.array_equal(polar, bil)


def test_gauss_sum_matches_enumeration():
    rng = random.Random(31)
    seen = set()
    for dim in range(2, 11, 2):
        for space in (standard_plus(dim), standard_minus(dim)):
            for _ in range(60):
                s = rref([rng.getrandbits(dim) for _ in range(rng.randrange(dim + 1))], dim)
                direct = sum(1 - 2 * space.q(v) for v in span(s.rows))
                assert gauss_sum(space, s) == direct, (dim, s.rows)
                rad = intersect(s, space.perp(s))
                assert len(_split(space, s.rows)[2]) == rad.dim, (dim, s.rows)
                q_on_rad = any(space.q(r) for r in rad.rows)
                assert (direct == 0) == q_on_rad
                seen.add((rad.dim > 0, q_on_rad))
    # nonsingular, degenerate with q zero on the radical, q nonzero on it
    assert seen == {(False, False), (True, False), (True, True)}
    plane = standard_plus(2)
    assert gauss_sum(plane, rref([0b01], 2)) == 2  # singular line
    assert gauss_sum(plane, rref([0b11], 2)) == 0  # nonsingular line
    assert gauss_sum(standard_minus(2), rref([0b01, 0b10], 2)) == -2


def test_polarization_random_large():
    rng = random.Random(99)
    for dim in (14, 16, 18, 28):
        space = standard_plus(dim)
        for _ in range(300):
            a, b = rng.getrandbits(dim), rng.getrandbits(dim)
            assert space.bilinear(a, b) == (space.q(a ^ b) ^ space.q(a) ^ space.q(b))


def test_q_against_every_coefficient_row():
    # q reads only the rows of its support mask; the oracle applies all of U
    rng = random.Random("q support")
    spaces = [f(d) for d in range(2, 61, 2) for f in (standard_plus, standard_minus)]
    spaces += [direct_sum(standard_minus(6), standard_plus(10)), coordinatize().space]
    zero_rows = 0
    for _ in range(60):
        dim = rng.randrange(2, 65, 2)
        rows = [rng.getrandbits(dim) & -(1 << i) if rng.random() < 0.7 else 0 for i in range(dim)]
        zero_rows += rows.count(0)
        spaces.append(QuadraticSpace(dim, tuple(rows)))
    assert zero_rows > 100
    for space in spaces:
        for x in [(1 << space.dim) - 1, *(rng.getrandbits(space.dim) for _ in range(60))]:
            assert space.q(x) == (apply_map(space.u_rows, x) & x).bit_count() & 1, space


def test_gram_is_symplectic():
    for space in (standard_plus(6), standard_minus(6)):
        for i in range(6):
            assert (space.gram[i] >> i) & 1 == 0
            for j in range(6):
                assert (space.gram[i] >> j) & 1 == (space.gram[j] >> i) & 1
        assert len(rref_ints(space.gram)) == space.dim


def test_census_examples():
    assert singular_census(standard_plus(10)) == (527, 496)
    assert singular_census(standard_minus(2)) == (0, 3)
    assert singular_census(standard_plus(18)) == (131327, 130816)


def _gray_census(space, s=None):
    """The exhaustive census: every vector of s in Gray-code order, each
    step costing one popcount: q(v + r) = q(v) + q(r) + <r, v>."""
    if s is None:
        s = space.full()
    qrow = [space.q(r) for r in s.rows]
    frow = [space.functional(r) for r in s.rows]
    v = qv = 0
    singular = 1  # the zero vector
    for i in range(1, 1 << s.dim):
        j = (i & -i).bit_length() - 1
        qv ^= qrow[j] ^ ((frow[j] & v).bit_count() & 1)
        v ^= s.rows[j]
        singular += 1 - qv
    return singular - 1, (1 << s.dim) - singular


def test_census_matches_gray_walk():
    cases = [(f(dim), None) for dim in range(2, 19, 2) for f in (standard_plus, standard_minus)]
    cases += [(coordinatize().space, None), (rv_model().space, None)]
    rng = random.Random(14)
    for dim in range(2, 15, 2):
        for _ in range(12):
            # random upper-triangular coefficient rows
            space = QuadraticSpace(dim, tuple(rng.getrandbits(dim) & -(1 << i) for i in range(dim)))
            cases += [(space, zero_subspace(dim)), (space, full_subspace(dim))]
            for _ in range(4):
                rows = [rng.getrandbits(dim) for _ in range(rng.randrange(1, dim + 1))]
                cases.append((space, rref(rows, dim)))
    seen = set()
    for space, s in cases:
        got = _gray_census(space, s)
        assert singular_census(space, s) == got, (space, s)
        sub = space.full() if s is None else s
        if sub.dim and not intersect(sub, space.perp(sub)).dim:
            assert lnum_closed(sub.dim // 2, type_of(space, s) == "plus") == got, (space, s)
        if s is not None:
            seen.add("odd" if s.dim % 2 else "even" if s.dim else "zero")
            seen.add("degenerate" if intersect(s, space.perp(s)).dim else "nondegenerate")
            seen.add("full" if s.dim == space.dim else "proper")
    assert seen == {"zero", "odd", "even", "degenerate", "nondegenerate", "full", "proper"}


def test_census_matches_gray_walk_above_the_slice():
    # Above quadspace.SLICE_ROWS the census adds rows to the tabulated
    # ones; the standard forms never pair the two, random forms do.
    rng = random.Random(1618)
    seen = set()
    for dim in (16, 18):
        for _ in range(3):
            space = QuadraticSpace(dim, tuple(rng.getrandbits(dim) & -(1 << i) for i in range(dim)))
            cases = [full_subspace(dim)]
            for sdim in range(15, dim):
                s = rref([rng.getrandbits(dim) for _ in range(sdim)], dim)
                while s.dim != sdim:
                    s = rref([*s.rows, rng.getrandbits(dim)], dim)
                cases.append(s)
            for s in cases:
                assert s.dim > quadspace.SLICE_ROWS
                assert singular_census(space, s) == _gray_census(space, s), (space, s)
                seen.add("degenerate" if intersect(s, space.perp(s)).dim else "nondegenerate")
    assert seen == {"degenerate", "nondegenerate"}


def test_census_matches_closed_forms_small():
    for m in range(1, 7):
        assert singular_census(standard_plus(2 * m)) == lnum_closed(m, True)
        assert singular_census(standard_minus(2 * m)) == lnum_closed(m, False)


def test_type_of():
    assert type_of(standard_plus(2)) == "plus"
    assert type_of(standard_minus(2)) == "minus"
    sp = standard_plus(2)
    line = rref([0b01], 2)
    assert type_of(sp, line) == "degenerate(1)"
    for dim in (4, 6, 8):
        assert type_of(standard_plus(dim)) == "plus"
        assert type_of(standard_minus(dim)) == "minus"


def test_direct_sum_types():
    pp = direct_sum(standard_plus(4), standard_plus(6))
    assert type_of(pp) == "plus"
    mm = direct_sum(standard_minus(2), standard_minus(4))
    assert type_of(mm) == "plus"
    pm = direct_sum(standard_plus(4), standard_minus(2))
    assert type_of(pm) == "minus"


def test_symplectic_basis_shape():
    # minus(4) + minus(4) is of plus type, and its unseeded split meets both anisotropic planes
    spaces = (standard_plus(8), standard_minus(8), direct_sum(standard_minus(4), standard_minus(4)))
    for space, rng in itertools.product(spaces, (None, random.Random(4))):
        pairs = symplectic_basis(space, space.full(), rng)
        assert len(pairs) == 4
        flat = [v for p in pairs for v in p]
        assert rref(flat, 8).dim == 8
        for i, (a, b) in enumerate(pairs):
            assert space.bilinear(a, b) == 1
            for c, d in pairs[:i]:
                for x in (a, b):
                    for y in (c, d):
                        assert space.bilinear(x, y) == 0
        profile = [(space.q(a), space.q(b)) for a, b in pairs]
        last = (0, 0) if type_of(space) == "plus" else (1, 1)
        assert profile == [(0, 0)] * 3 + [last]


def test_max_ts_extend_dimensions():
    got = max_ts_extend(standard_plus(6), rref([], width=6), seed=0)
    assert got.dim == 3
    got = max_ts_extend(standard_minus(4), rref([], width=4), seed=0)
    assert got.dim == 1
    # idempotence: extending a maximal subspace returns it unchanged
    again = max_ts_extend(standard_plus(6), got_plus := max_ts_extend(standard_plus(6), rref([], width=6), seed=3), seed=9)
    assert again.rows == got_plus.rows


def test_max_ts_extend_seed_property():
    space = standard_plus(10)
    for seed in range(10):
        s = max_ts_extend(space, rref([], width=10), seed=seed)
        assert s.dim == 5
        for r in s.rows:
            assert space.q(r) == 0
        assert space.perp(s).rows == s.rows
    space = standard_minus(10)
    for seed in range(10):
        assert max_ts_extend(space, rref([], width=10), seed=seed).dim == 4


def test_max_ts_extend_rejects_nonsingular_partial():
    with pytest.raises(UsageError):
        max_ts_extend(standard_plus(4), rref([0b0011], 4), seed=0)


def test_isometry_identity_admissible():
    space = standard_plus(4)
    t = rref([0b0001, 0b0010], 4)
    phi = isometry(space, t, t, random.Random(0))
    for v in span(t.rows):
        assert t.contains(phi.apply(v))
        assert space.q(phi.apply(v)) == space.q(v)


def test_isometry_disjoint_planes():
    space = standard_plus(4)
    t = rref([0b0001, 0b0010], 4)
    u = rref([0b0100, 0b1000], 4)
    phi = isometry(space, t, u, random.Random(1))
    seen = set()
    for v in span(t.rows):
        w = phi.apply(v)
        assert u.contains(w)
        assert space.q(w) == space.q(v)
        seen.add(w)
    assert len(seen) == 4
    for a in span(t.rows):
        for b in span(t.rows):
            assert space.bilinear(phi.apply(a), phi.apply(b)) == space.bilinear(a, b)


def test_isometry_type_mismatch():
    space = direct_sum(standard_plus(2), standard_minus(2))
    t = rref([0b0001, 0b0010], 4)
    u = rref([0b0100, 0b1000], 4)
    with pytest.raises(UsageError):
        isometry(space, t, u)


def test_isometry_rejects_a_broken_pairing(monkeypatch):
    # the u side's second pair (e1, f1) becomes (e1 + e0, f1): every basis
    # vector keeps q = 0, and only the pairing of e1 + e0 with f0 turns odd
    space = standard_plus(8)
    t = rref([1 << i for i in range(4)], 8)
    u = rref([1 << i for i in range(4, 8)], 8)
    real = quadspace.symplectic_basis
    sides = []

    def broken(space, s, rng=None):
        pairs = real(space, s, rng)
        sides.append(s)
        if s == u:
            (e0, f0), (e1, f1) = pairs
            pairs[1] = (e1 ^ e0, f1)
        return pairs

    phi = isometry(space, t, u, random.Random(2))
    assert all(space.q(phi.apply(v)) == space.q(v) for v in span(t.rows))
    monkeypatch.setattr(quadspace, "symplectic_basis", broken)
    with pytest.raises(FalsificationError, match="pairing"):
        isometry(space, t, u, random.Random(2))
    assert sides == [t, u]


def _orthogonal_group(space):
    """Oracle: every q-preserving invertible map, as a tuple of basis-vector
    images, by an exhaustive filter over the maps that keep q on the basis."""
    d = space.dim
    vectors = range(1 << d)
    qs = [space.q(v) for v in vectors]
    choices = [[v for v in vectors if qs[v] == qs[1 << i]] for i in range(d)]
    return {
        images
        for images in itertools.product(*choices)
        if len(rref_ints(images)) == d and all(qs[apply_map(images, v)] == qs[v] for v in vectors)
    }


def _closure(gens):
    """The group the maps gens generate, by breadth-first composition."""
    seen = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for g in gens:
            for h in frontier:
                c = tuple(apply_map(g, hv) for hv in h)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def test_orthogonal_group_sizes():
    assert len(_orthogonal_group(standard_plus(2))) == 2
    assert len(_orthogonal_group(standard_minus(2))) == 6
    assert len(_orthogonal_group(standard_plus(4))) == 72


def test_orthogonal_group_closure_and_preservation():
    space = standard_plus(4)
    group = _orthogonal_group(space)
    rng = random.Random(0)
    sample = rng.sample(sorted(group), 12)
    for g in sample:
        for h in sample:
            comp = tuple(apply_map(g, hv) for hv in h)
            assert comp in group
    for g in group:
        for v in range(16):
            assert space.q(apply_map(g, v)) == space.q(v)


def test_orthogonal_generators_distinct():
    for space in (standard_plus(2), standard_plus(4)):
        gens = orthogonal_generators(space)
        assert len(set(gens)) == len(gens), gens
    assert orthogonal_generators(standard_plus(2)) == ((2, 1),)


def test_orthogonal_generator_tables_are_spans():
    # the census tabulates each generator's block map as the span of its images
    for space in (standard_plus(2), standard_plus(4)):
        for g in orthogonal_generators(space):
            assert span(g) == [apply_map(g, x) for x in range(1 << space.dim)], g
    for space in (standard_minus(2), standard_minus(4), standard_plus(6)):
        with pytest.raises(UsageError):
            orthogonal_generators(space)


def test_orthogonal_generators_generate():
    # the tables generate the whole group, whose order is the closed form
    # |O+(2m, 2)| = 2 * 2^(m(m-1)) * (2^m - 1) * prod_{i<m} (4^i - 1): 2 and 72
    from framedlie.framed import _wreath_order

    for m in (1, 2):
        group = _orthogonal_group(standard_plus(2 * m))
        assert _closure(orthogonal_generators(standard_plus(2 * m))) == group
        assert _wreath_order(m) == len(group) ** 3 * 6


def test_nonsingular_inside():
    def lines(k, dim):  # e_1, e_3, ...: a totally singular subspace of dim k
        return rref([1 << (2 * i) for i in range(k)], dim)

    # (space, pool, block dim); the last pool is of plus type with one pair to spare
    inputs = [
        (standard_plus(10), standard_plus(10).perp(lines(2, 10)), 4),
        (standard_plus(18), standard_plus(18).perp(lines(4, 18)), 8),
        (standard_minus(18), standard_minus(18).perp(lines(3, 18)), 10),
        (standard_plus(12), standard_plus(12).perp(lines(2, 12)), 6),
    ]
    for space, pool, dim in inputs:
        for minus in (False, True):
            for rng in [None] + [random.Random(seed) for seed in range(5)]:
                p = nonsingular_inside(space, pool, dim, minus, rng)
                assert p.dim == dim
                assert type_of(space, p) == ("minus" if minus else "plus")
                for r in p.rows:
                    assert pool.contains(r)
    space = standard_plus(10)
    with pytest.raises(UsageError):
        nonsingular_inside(space, space.perp(lines(2, 10)), 0, True)
    # the nonsingular part of this pool is one hyperbolic plane: no minus block
    space = standard_plus(18)
    for rng in (None, random.Random(0)):
        with pytest.raises(FalsificationError):
            nonsingular_inside(space, space.perp(lines(8, 18)), 2, True, rng)
