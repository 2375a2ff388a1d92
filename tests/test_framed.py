import collections
import hashlib
import itertools
import operator
import random

import pytest

from framedlie import framed
from framedlie.framed import (
    COND1,
    COND2,
    MtsSubspace,
    TCCase,
    TripleAmbient,
    build_case,
    build_pair_case,
    census_small,
    classify_triple,
    even_case,
    from_text,
    lnumber_closed,
    odd_case,
    pair_ambient,
    pair_case_prescription,
    parse_case,
    profile,
    rho_invariants,
    section47_orbifold_choices,
    to_text,
    valid_params,
    weight1_dim_pair,
    weight1_dim_triple,
    z2_orbifold,
)
from framedlie.cli import _parse_case_token, main
from framedlie.codes import interleave_word
from framedlie.gf2 import (
    FalsificationError,
    UsageError,
    intersect,
    kernel,
    rref,
    rref_ints,
    span,
    subspace_sum,
)
from framedlie.quadspace import gauss_sum, max_ts_extend, standard_plus, type_of
from framedlie.tables import TA8_ROWS

WEIGHT1_PUBLISHED = {row[0]: row[1] for row in TA8_ROWS}


def test_valid_params_small_m():
    assert {str(c) for c in valid_params(1)} == {"even(1,1,0,+)", "odd(1,0,0)"}
    m2 = {str(c) for c in valid_params(2)}
    assert m2 == {
        "even(2,0,0,+)",
        "even(2,0,0,-)",
        "even(2,2,0,+)",
        "even(2,1,1,+)",
        "odd(2,1,0)",
    }
    assert len(valid_params(5)) == 15


def test_case_text_and_base_token_read_back():
    for m in range(1, 11):
        for case in valid_params(m):
            assert parse_case(str(case)) == case
            assert _parse_case_token(str(case).replace("(", ":").removesuffix(")")) == case


_EPS = "eps must be '+' or '-' for even cases and empty for odd ones"
_ORDER = "need 0 <= k2 <= k1 <= m"


@pytest.mark.parametrize("fields", [  # (TCCase fields, the rule's message for them)
    (("even", 5, 1, 0, "?"), _EPS),
    (("even", 5, 1, 0), _EPS),  # an even case needs a sign
    (("odd", 5, 4, 0, "+"), _EPS),  # an odd case takes none
    (("even", 5, 1, 3, "+"), _ORDER),  # k2 > k1
    (("even", 5, 1, -1, "+"), _ORDER),  # k2 < 0
    (("even", 5, 7, 0, "+"), _ORDER),  # k1 > m
    (("even", 5, 2, 0, "+"), "m - k1 - k2 = 3 has the wrong sign or parity for even cases"),
    (("odd", 5, 1, 0), "m - k1 - k2 = 4 has the wrong sign or parity for odd cases"),
    (("even", 5, 4, 3, "+"), "m - k1 - k2 = -2 has the wrong sign or parity for even cases"),
    (("odd", 5, 3, 3), "m - k1 - k2 = -1 has the wrong sign or parity for odd cases"),
    (("even", 5, 5, 0, "-"), "minus type needs a block of dimension at least 2"),
    (("even", 0, 0, 0, "+"), "triple ambient needs m in 1..10, got 0"),
    (("odd", 0, 0, 0), "triple ambient needs m in 1..10, got 0"),
    (("even", 11, 1, 0, "+"), "triple ambient needs m in 1..10, got 11"),
    (("odd", 11, 0, 0), "triple ambient needs m in 1..10, got 11"),
    (("cond3",), "unknown case kind 'cond3'"),
    (("",), "unknown case kind ''"),
])
def test_case_rule_rejects(fields):
    args, message = fields
    with pytest.raises(UsageError) as exc:
        TCCase(*args)
    assert str(exc.value) == message


def test_case_rule_on_a_grid_of_tuples():
    """The message, or ok, of every tuple in a grid around the builder cases: pins which
    check fires first, and its text, for each of 16,224 tuples."""
    lines = []
    for kind, m in itertools.product(("even", "odd", "cond3", ""), range(-1, 12)):
        for k1, k2, eps in itertools.product(range(-1, m + 2), range(-1, m + 2), ("+", "-", "", "?")):
            try:
                TCCase(kind, m, k1, k2, eps)
                lines.append(f"{kind},{m},{k1},{k2},{eps}: ok")
            except UsageError as exc:
                lines.append(f"{kind},{m},{k1},{k2},{eps}: {exc}")
    assert len(lines) == 16224 and sum(ln.endswith(": ok") for ln in lines) == 215
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "832597696444663dfa900a88bf23f33fad524d9685cacc8c0056f063cce3e9a1"


def test_valid_params_text_and_order():
    texts = [" ".join(map(str, valid_params(m))) for m in range(12)]
    assert [len(valid_params(m)) for m in range(12)] == [0, 2, 5, 7, 12, 15, 22, 26, 35, 40, 51, 0]
    assert texts[3] == "odd(3,0,0) even(3,1,0,+) even(3,1,0,-) odd(3,1,1) odd(3,2,0) even(3,2,1,+) even(3,3,0,+)"
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "1d7c8d32baaa1819d4e1308089bb64a71069fca8507fc930a0b8a259c9cc0dbe"


@pytest.mark.parametrize("text", [
    "odd(05,4,0)", "odd(5,4,0", "even(5,1,0)", "cond1", "cond2", "odd(5, 4,0)", "odd(5,4,0) ",
    "odd(+5,4,0)", "odd(5,4,0,)", "even(5,1,0,+,)", "odd(x,4,0)", "odd(5,4,0)()", "even(5,2,0,+)",
    "odd(" + "9" * 5000 + ",4,0)", "(5,4,0)", "",
])
def test_parse_case_rejects(text):
    with pytest.raises(UsageError):
        parse_case(text)


def test_builders_are_maximal_totally_singular():
    for case in valid_params(3):
        s = build_case(case, seed=1)
        s.validate()
        space = s.space()
        for v in span(s.sub.rows):
            assert space.q(v) == 0


def test_builder_output_digest():
    """Every builder case of m = 1..10 at seeds 0-2 (645 builds): its rows and components,
    with the case and seed, hash to one pinned value, so a changed draw, block or row shows."""
    h = hashlib.sha256()
    for m in range(1, 11):
        for case in valid_params(m):
            for seed in range(3):
                s = build_case(case, seed=seed)
                h.update(repr((str(case), seed, s.sub.rows, sorted(s.components.items()))).encode())
    assert h.hexdigest() == "697de8edcdfaf94b40902dc9e8f154c36837e8f1b888e70070757083754ef978"


def test_validate_rejects_each_broken_condition():
    amb = TripleAmbient(1)  # q = x0 x1 + x2 x3 + x4 x5
    for rows, message in (
        ([0b000001, 0b000100], "not half-dimensional"),
        ([0b000011, 0b000100, 0b010000], "not singular"),
        # singular rows, but e0 and e1 pair to 1
        ([0b000001, 0b000010, 0b000100], "not self-perpendicular"),
    ):
        with pytest.raises(FalsificationError, match=message):
            MtsSubspace(amb, rref(rows, amb.dim)).validate()
    MtsSubspace(amb, rref([0b000001, 0b000100, 0b010000], amb.dim)).validate()


def test_weight1_closed_matches_stated_formula():
    # 3(2^{k1+3} + 2^{k2+3} -+ 2^{(3+k1+k2)/2}) at m = 5
    for case in valid_params(5):
        k1, k2 = case.k1, case.k2
        if case.kind == "even":
            corr = 2 ** ((3 + k1 + k2) // 2)
            expect = 3 * (2 ** (k1 + 3) + 2 ** (k2 + 3) + (-corr if case.eps == "+" else corr))
        else:
            expect = 3 * (2 ** (k1 + 3) + 2 ** (k2 + 3))
        n1, n2 = lnumber_closed(case)
        assert 8 * n1 + n2 == expect


def test_profile_examples():
    assert lnumber_closed(even_case(5, 1, 0, "+")) == (1, 52)
    assert lnumber_closed(even_case(5, 5, 0, "+")) == (31, 496)
    assert lnumber_closed(even_case(5, 3, 0, "-")) == (7, 184)
    assert lnumber_closed(odd_case(5, 0, 0)) == (0, 48)
    with pytest.raises(UsageError):
        lnumber_closed(odd_case(5, 2, 1))


def test_builders_seed_sweep():
    # every builder case at m = 1..6 (seeds 0-9) and m = 10 (seed 0)
    # classifies to itself with its closed-form profile
    sweep = [(c, seed) for m in range(1, 7) for c in valid_params(m) for seed in range(10)]
    sweep += [(c, 0) for c in valid_params(10)]
    for case, seed in sweep:
        sub = build_case(case, seed=seed)
        sub.validate()  # half-dimensional, singular rows pairing to 0: S = S-perp
        assert classify_triple(sub) == case, (case, seed)
        assert profile(sub) == lnumber_closed(case), (case, seed)
        if str(case) in WEIGHT1_PUBLISHED:
            assert weight1_dim_triple(sub) == WEIGHT1_PUBLISHED[str(case)]
    for case_id, value in (("pcl5_3", 132), ("pcl4_4", 216)):
        for seed in (1, 2):
            assert weight1_dim_pair(build_pair_case(case_id, seed=seed))["direct"] == value
    # every pair case builds at seeds 0-99, with the projection dimensions
    # of its seed-0 build
    for case_id in framed.PAIR_CASE_IDS:
        dims = [{k: v.dim for k, v in rho_invariants(build_pair_case(case_id, seed)).items()}
                for seed in range(100)]
        assert dims == dims[:1] * 100, case_id


def _walk(s):
    """Enumeration oracle over all 2^dim vectors of a triple-ambient subspace.

    Returns (one-coordinate counts per block, n2, condition one, condition
    two).  Condition one: every block holds a one-coordinate vector.
    Condition two: for some block j, one singular nonzero x in block j
    completes both to a vector supported on blocks {j, o1} and to one
    supported on {j, o2}.
    """
    m = s.ambient.m
    w = 2 * m
    mask = (1 << w) - 1
    block = standard_plus(w)
    qtab = [block.q(x) for x in range(1 << w)]
    p0, p1, p2 = ([(r >> (w * b)) & mask for r in s.sub.rows] for b in range(3))
    ones = [0, 0, 0]
    n2 = 0
    chain = {(j, o): set() for j in range(3) for o in range(3) if o != j}
    x = y = z = 0  # the three blocks of the Gray-code walk's current vector
    for i in range(1, 1 << s.sub.dim):
        j = (i & -i).bit_length() - 1
        x ^= p0[j]
        y ^= p1[j]
        z ^= p2[j]
        if x and y and z:
            continue
        blocks = (x, y, z)
        idx = [k for k in range(3) if blocks[k]]
        if len(idx) == 1:
            ones[idx[0]] += 1
            continue
        a, b = idx
        if qtab[blocks[a]] and qtab[blocks[b]]:
            n2 += 1
        if not qtab[blocks[a]]:  # both singular together
            chain[a, b].add(blocks[a])
            chain[b, a].add(blocks[b])
    cond2 = any(chain[j, o1] & chain[j, o2] for j, o1, o2 in ((0, 1, 2), (1, 0, 2), (2, 0, 1)))
    return tuple(ones), n2, all(ones), cond2


def _mts_spans(m):
    """Enumeration oracle of the census: every maximal totally singular
    subspace of the triple ambient, in census order, as the list of all its
    vectors; span[1 << i] is the i-th basis row.

    A subspace is its shadow on the even-coordinate half, an alternating
    form on it, and the annihilator on the odd half.  The form's code bit
    for pivot pair (i, j) adds pivot j to the odd part of row i and pivot i
    to that of row j, so stepping the code to code + 1 XORs one table into
    the span.
    """
    n = 3 * m
    spread_even = [interleave_word(v, n) for v in range(1 << n)]
    spread_odd = [x << 1 for x in spread_even]
    for brows, pivots in framed._all_subspace_rrefs(n):
        ann = kernel(list(brows), n)
        vecs = span([spread_even[b] for b in brows] + [spread_odd[a] for a in ann.rows])
        flips = [
            [
                spread_odd[((x >> i) & 1) << pivots[j] | ((x >> j) & 1) << pivots[i]]
                for x in range(1 << n)
            ]
            for i, j in itertools.combinations(range(len(brows)), 2)
        ]
        # code - 1 -> code flips the code bits up to the lowest set bit of code
        steps = list(itertools.accumulate(flips, lambda a, b: list(map(operator.xor, a, b))))
        yield vecs
        for code in range(1, 1 << len(flips)):
            vecs = list(map(operator.xor, vecs, steps[(code & -code).bit_length() - 1]))
            yield vecs


def _walk_mismatches(m, stride):
    """Census subspaces, every stride-th, whose profile or invariants
    disagree with the walk oracle, or whose class is not that of the least
    subspace of their orbit, the orbit taken from the census labels."""
    amb = TripleAmbient(m)
    labels = framed._census_pass(m)[0]
    orbit_case = {}
    bad = []
    for i, span in enumerate(_mts_spans(m)):
        if labels[i] != i and i % stride:
            continue
        s = MtsSubspace(amb, rref([span[1 << b] for b in range(3 * m)], amb.dim))
        case = classify_triple(s)
        if labels[i] == i:
            orbit_case[i] = case
        if i % stride == 0:
            ones, n2, _, cond2 = _walk(s)
            if (
                framed._triple_invariants(s) != (ones, n2, cond2)
                or profile(s) != (sum(ones), n2)
                or case != orbit_case[labels[i]]
            ):
                bad.append(s.sub.rows)
    return bad


def _zassenhaus_invariants(s):
    """Oracle: _triple_invariants as first written, with each
    W = S n (A_a + A_b) found by gf2.intersect against the coordinate
    subspace of blocks a and b."""
    amb = s.ambient
    w = 2 * amb.m
    mask = (1 << w) - 1
    coords = [rref([1 << i for i in range(w * b, w * (b + 1))], amb.dim) for b in range(3)]
    dims = [0, 0, 0]
    shadow = {}
    n2 = 0
    for a, b in ((0, 1), (0, 2), (1, 2)):
        pair = intersect(s.sub, subspace_sum(coords[a], coords[b]))
        for x, y in ((a, b), (b, a)):
            shadow[x, y] = rref([(r >> (w * x)) & mask for r in pair.rows], w)
            dims[y] = pair.dim - shadow[x, y].dim
        n2 += ((1 << pair.dim) - (gauss_sum(amb.block, shadow[a, b]) << dims[b])) // 2
    cond2 = False
    for j, o1, o2 in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        u = intersect(shadow[j, o1], shadow[j, o2])
        singular = ((1 << u.dim) + gauss_sum(amb.block, u)) // 2
        excluded = 1 << dims[j] if 0 in (dims[o1], dims[o2]) else 1
        cond2 = cond2 or singular > excluded
    return tuple((1 << d) - 1 for d in dims), n2, cond2


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 10])
def test_invariants_match_zassenhaus_oracle(m):
    for case in valid_params(m):
        s = build_case(case, seed=0)
        assert framed._triple_invariants(s) == _zassenhaus_invariants(s), str(case)


def test_profile_and_classify_run_the_invariants_once(monkeypatch):
    calls = []
    real = framed._triple_invariants
    monkeypatch.setattr(framed, "_triple_invariants", lambda s: calls.append(s) or real(s))
    s = build_case(odd_case(5, 2, 0), seed=0)
    assert (profile(s), classify_triple(s)) == (lnumber_closed(odd_case(5, 2, 0)), odd_case(5, 2, 0))
    assert weight1_dim_triple(s) == 8 * profile(s)[0] + profile(s)[1]
    assert calls == [s]
    # an equal subspace built afresh is a new object, with its own run
    classify_triple(MtsSubspace(s.ambient, s.sub))
    assert len(calls) == 2


def test_conditions_on_builders():
    for case in valid_params(5):
        s = build_case(case, seed=0)
        _, _, cond1, cond2 = _walk(s)
        assert not cond1
        assert not cond2


def test_cond1_product_subspace():
    m = 2
    amb = TripleAmbient(m)
    u0 = max_ts_extend(amb.block, rref([], width=2 * m), seed=0)
    rows = []
    for blk in range(3):
        rows += [amb.embed(v, blk) for v in u0.rows]
    s = MtsSubspace(amb, rref(rows, amb.dim))
    s.validate()
    assert _walk(s)[2]
    assert classify_triple(s) == COND1


def test_invariants_match_walk_oracle():
    for m in range(1, 7):
        for case in valid_params(m):
            for seed in (0, 3):
                s = build_case(case, seed=seed)
                ones, n2, _, cond2 = _walk(s)
                assert framed._triple_invariants(s) == (ones, n2, cond2), str(case)
                assert profile(s) == (sum(ones), n2), str(case)
                assert classify_triple(s) == case
    assert _walk_mismatches(1, 1) == []
    # a fixed stride through the 151,470 subspaces at m=2 (about 3,000)
    assert _walk_mismatches(2, 53) == []


def test_z2_orbifold_basics():
    s = build_case(odd_case(5, 4, 0), seed=0)
    space = s.space()
    choices = section47_orbifold_choices(s, limit=3)
    assert len(choices) >= 3
    for s0, t0, w in choices:
        assert space.q(w) == 0
        out = z2_orbifold(s, w)
        out.validate()
        assert out.sub.contains(w)
        assert classify_triple(out) == even_case(5, 3, 0, "+")
    with pytest.raises(UsageError):
        z2_orbifold(s, s.sub.rows[0])  # inside the subspace
    nonsingular = next(v for v in range(1, 1 << 30) if space.q(v))
    with pytest.raises(UsageError):
        z2_orbifold(s, nonsingular)


def test_section47_orbifold_choices_properties():
    # what the golden order of all 120 choices stands for
    s = build_case(odd_case(5, 4, 0), seed=0)
    amb, block = s.ambient, s.ambient.block
    t_block, z = s.components["T"], s.components["z"]
    ts, ss = span(t_block.rows), span(s.components["S1"].rows)
    t_walk = [ts[i ^ i >> 1] for i in range(len(ts))]
    s1_walk = [ss[i ^ i >> 1] for i in range(len(ss))]
    choices = section47_orbifold_choices(s, 200)
    assert len(choices) == 120
    steps = [t_walk.index(t0) for _, t0, _ in choices]
    assert steps == sorted(set(steps))  # T's Gray order, no t0 twice
    for s0, t0, w in choices:
        assert t0 and block.q(t0) == 0 and t_block.contains(t0)
        assert s0 == next(v for v in s1_walk if block.bilinear(v, t0))
        assert w == amb.embed(t0, 0) | amb.embed(z, 2)
        out = z2_orbifold(s, w)
        out.validate()
        assert classify_triple(out) == even_case(5, 3, 0, "+")


def test_z2_orbifold_random_property():
    rng = random.Random(6)
    s = build_case(even_case(3, 1, 0, "+"), seed=2)
    space = s.space()
    found = 0
    while found < 5:
        w = rng.getrandbits(18)
        if w and space.q(w) == 0 and not s.sub.contains(w):
            out = z2_orbifold(s, w)
            out.validate()
            from framedlie.gf2 import intersect

            assert intersect(out.sub, s.sub).dim >= s.sub.dim - 1
            found += 1


def _rref_census(m):
    """Every census subspace as its rref rows, in enumeration order."""
    return [tuple(rref_ints(span[1 << i] for i in range(3 * m))) for span in _mts_spans(m)]


def _rref_orbit_labels(m):
    """Oracle of the census orbit pass: union-find over the same generator
    tables, with each subspace keyed by its rref rows; each subspace is
    labelled by the least index in its component."""
    keys = {rows: i for i, rows in enumerate(_rref_census(m))}
    parent = list(range(len(keys)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    gens = framed._wreath_generators(m)
    for rows, i in keys.items():
        for tab in gens:
            ri, rj = find(i), find(keys[tuple(rref_ints([tab[r] for r in rows]))])
            if ri != rj:
                parent[rj] = ri
    least = {}
    for i in range(len(keys)):
        least.setdefault(find(i), i)
    return keys, [least[find(i)] for i in range(len(keys))]


def test_census_m1():
    # the fingerprint-keyed orbit pass against the rref-keyed oracle
    keys, oracle_labels = _rref_orbit_labels(1)
    labels, locate, _ = framed._census_pass(1)
    assert labels == oracle_labels
    assert all(locate(rows) == i for rows, i in keys.items())
    assert len(set(labels)) == census_small(1).orbit_count == 4


def _bad_generator(kind):
    """A generator table on the m = 1 ambient that is not a linear isometry."""
    if kind == "nonlinear":
        tab = list(range(64))
        tab[1], tab[4] = tab[4], tab[1]  # two singular vectors trade places
        return tab
    return [v ^ ((v & 1) << 1) for v in range(64)]  # linear, but q(e1) becomes 1


@pytest.mark.parametrize("kind", ["nonlinear", "non_isometric"])
def test_census_rejects_bad_generator(monkeypatch, capsys, kind):
    gens = framed._wreath_generators(1)
    monkeypatch.setattr(framed, "_wreath_generators", lambda m: gens + [_bad_generator(kind)])
    census_small.cache_clear()
    try:
        with pytest.raises(FalsificationError, match="not a linear isometry"):
            census_small(1)
        capsys.readouterr()
        assert main(["frame", "census", "--m", "1"]) == 1
        err = capsys.readouterr().err
        assert "falsification: a census generator is not a linear isometry" in err
        assert "Traceback" not in err
    finally:
        census_small.cache_clear()


def test_census_rejects_an_image_outside_the_census(monkeypatch, capsys):
    # one image lane off by one: some subspace's image key names no subspace
    census_lanes = framed._census_lanes

    def off_by_one(words, gens):
        lanes = census_lanes(words, gens)
        lanes[5] += 1 << 64
        return lanes

    monkeypatch.setattr(framed, "_census_lanes", off_by_one)
    census_small.cache_clear()
    try:
        with pytest.raises(FalsificationError, match="maps a subspace outside the census"):
            census_small(1)
        capsys.readouterr()
        assert main(["frame", "census", "--m", "1"]) == 1
        err = capsys.readouterr().err
        assert "falsification: a census generator maps a subspace outside the census" in err
        assert "Traceback" not in err
    finally:
        census_small.cache_clear()


def test_census_rejects_key_collision(monkeypatch):
    # a word table of zeros gives every subspace the key 0
    monkeypatch.setattr(framed, "_fingerprint_words", lambda m: [0] * (1 << (6 * m)))
    census_small.cache_clear()
    try:
        with pytest.raises(FalsificationError, match="duplicate subspace or key collision"):
            census_small(1)
    finally:
        census_small.cache_clear()


def test_census_rejects_oversized_word(monkeypatch, capsys):
    # one word at 2^(63 - 3m) could carry out of its lane in a 2^(3m)-vector sum
    words = framed._fingerprint_words(1)
    words[5] = 1 << 60
    monkeypatch.setattr(framed, "_fingerprint_words", lambda m: words)

    def not_yet(*args):
        raise AssertionError("a table or subspace was made before the lane guard")

    for name in ("_census_lanes", "_mts_sums"):
        monkeypatch.setattr(framed, name, not_yet)
    census_small.cache_clear()
    try:
        with pytest.raises(FalsificationError, match="census fingerprint words overflow their lane"):
            census_small(1)
        capsys.readouterr()
        assert main(["frame", "census", "--m", "1"]) == 1
        err = capsys.readouterr().err
        assert "falsification: census fingerprint words overflow their lane" in err
        assert "Traceback" not in err
    finally:
        census_small.cache_clear()


def test_decide_branch_rejects_projections_past_m():
    # ones (1, 1, 0) read as k1 = k2 = 1, which m = 1 cannot hold: a wrong count, not a usage error
    with pytest.raises(FalsificationError, match="match no builder case of m = 1"):
        framed._decide_branch(1, (1, 1, 0), 0, False)


def test_decide_branch_reads_each_builder_case_from_its_closed_profile():
    for m in range(1, 11):
        for case in framed.valid_params(m):
            ones = ((1 << case.k1) - 1, (1 << case.k2) - 1, 0)
            n2 = framed.lnumber_closed(case)[1]
            assert framed._decide_branch(m, ones, n2, False) == case
            for wrong in (n2 - 1, n2 + 1):
                with pytest.raises(FalsificationError):
                    framed._decide_branch(m, ones, wrong, False)
    with pytest.raises(FalsificationError):  # no builder case, which is a finding, not a usage error
        framed._decide_branch(1, (1, 1, 0), 0, False)


def test_census_labels_do_not_depend_on_generator_order(monkeypatch):
    # a big-endian host reads each block of image lanes in reverse generator order
    want = {m: framed._census_pass(m)[0] for m in (1, 2)}
    gens = framed._wreath_generators
    monkeypatch.setattr(framed, "_wreath_generators", lambda m: gens(m)[::-1])
    for m in (1, 2):
        assert framed._census_pass(m)[0] == want[m]


def test_wreath_order():
    assert framed._wreath_order(1) == 48
    assert framed._wreath_order(2) == 72**3 * 6


def test_census_rejects_orbit_size_not_dividing_the_group(monkeypatch, capsys):
    # split one subspace off its size-8 orbit at m = 1: sizes 1 and 7, and 7 does not divide 48
    census_pass = framed._census_pass

    def split_orbit(m):
        labels, locate, gens = census_pass(m)
        i = next(i for i, r in enumerate(labels) if labels.count(r) == 8 and i != r)
        return labels[:i] + [i] + labels[i + 1 :], locate, gens

    monkeypatch.setattr(framed, "_census_pass", split_orbit)
    census_small.cache_clear()
    try:
        with pytest.raises(FalsificationError, match="orbit of 7 subspaces does not divide the group order 48"):
            census_small(1)
        capsys.readouterr()
        assert main(["frame", "census", "--m", "1"]) == 1
        assert "falsification: an orbit of 7 subspaces" in capsys.readouterr().err
    finally:
        census_small.cache_clear()


def _census_m1_falsified(capsys, message):
    """`frame census --m 1` exits 1 naming message, with no traceback."""
    census_small.cache_clear()
    try:
        capsys.readouterr()
        assert main(["frame", "census", "--m", "1"]) == 1
        err = capsys.readouterr().err
        assert f"falsification: {message}" in err, err
        assert "Traceback" not in err
    finally:
        census_small.cache_clear()


@pytest.mark.parametrize("fault, message", [
    # the next form of the same shadow: another subspace where the shadow has a pair,
    # as the m = 1 orbit labelled 15 has
    (
        lambda real, n, brows, pivots, code: real(n, brows, pivots, code ^ 1),
        "census subspace 15 rebuilds to another index",
    ),
    # half a subspace, whose key no census subspace has
    (lambda real, *args: real(*args)[:-1], "a subspace's key is not in the census"),
])
def test_census_rejects_a_rebuild_off_its_index(monkeypatch, capsys, fault, message):
    real = framed._mts_rows
    monkeypatch.setattr(framed, "_mts_rows", lambda *args: fault(real, *args))
    _census_m1_falsified(capsys, message)


def test_census_rejects_a_generator_that_moves_the_class(monkeypatch, capsys):
    # the second classify_triple call, the first orbit's first generator image, answers wrongly
    real = framed.classify_triple
    calls = []

    def second_call_wrong(s):
        calls.append(s)
        case = real(s)
        return case if len(calls) != 2 else COND2 if case != COND2 else COND1

    monkeypatch.setattr(framed, "classify_triple", second_call_wrong)
    _census_m1_falsified(capsys, "a census generator maps census subspace 0 of class ")


def test_census_rejects_a_built_case_in_an_orbit_of_another_class(monkeypatch, capsys):
    # a classifier that swaps the two builder cases at m = 1, consistently on every orbit
    real = framed.classify_triple
    swap = {even_case(1, 1, 0, "+"): odd_case(1, 0, 0), odd_case(1, 0, 0): even_case(1, 1, 0, "+")}
    monkeypatch.setattr(framed, "classify_triple", lambda s: swap.get(real(s), real(s)))
    _census_m1_falsified(capsys, "built case odd(1,0,0) lies in an orbit of class even(1,1,0,+)")


def _lane_tables(m):
    """The census words, generator tables and lanes at m."""
    words = framed._fingerprint_words(m)
    gens = framed._wreath_generators(m)
    return words, gens, framed._census_lanes(words, gens)


@pytest.mark.parametrize("m, stride", [(1, 1), (2, 97)])
def test_census_lanes_against_separate_sums(m, stride):
    # each lane of a span's one sum against the sum it stands for
    words, gens, lanes = _lane_tables(m)
    assert len({tuple(tab) for tab in gens}) == len(gens)  # so no two lanes agree by design
    for span in itertools.islice(_mts_spans(m), 0, None, stride):
        t = sum(lanes[v] for v in span)
        got = [(t >> (64 * k)) & framed._LANE for k in range(len(gens) + 1)]
        want = [sum(words[v] for v in span)]
        want += [sum(words[tab[v]] for v in span) for tab in gens]
        assert got == want
        assert t >> (64 * (len(gens) + 1)) == 0


@pytest.mark.parametrize("m, count", [(1, None), (2, 25000)])
def test_census_sums_against_span_sums(m, count):
    # the per-shadow transforms give each subspace's lane sum, in the
    # order of the enumeration oracle: all of m = 1, a prefix of m = 2
    lanes = _lane_tables(m)[2]
    got = list(itertools.islice(framed._mts_sums(m, lanes), count))
    want = [sum(map(lanes.__getitem__, span)) for span in itertools.islice(_mts_spans(m), count)]
    assert got == want
    assert len(got) == (count or framed.mts_count_formula(m))


def _rebuilt_rows(m, indices):
    """{i: rref rows of framed._mts_rows for census index i}, walking the
    shadows in census order, 2^(k(k-1)/2) subspaces to a k-dimensional one."""
    pending = sorted(indices, reverse=True)
    out = {}
    first = 0
    for brows, pivots in framed._all_subspace_rrefs(3 * m):
        k = len(brows)
        while pending and pending[-1] < first + (1 << (k * (k - 1) // 2)):
            i = pending.pop()
            out[i] = tuple(rref_ints(framed._mts_rows(3 * m, brows, pivots, i - first)))
        first += 1 << (k * (k - 1) // 2)
    return out


def _rref_oracle(n):
    """(rows, pivots) of every rref matrix over F_2^n by decoding a counter:
    per pivot set, bit pos of code is the pos-th free entry, row by row."""
    for k in range(n + 1):
        for pivots in itertools.combinations(range(n), k):
            free = [[c for c in range(p + 1, n) if c not in pivots] for p in pivots]
            cols = [(i, c) for i, f in enumerate(free) for c in f]
            for code in range(1 << len(cols)):
                rows = [1 << p for p in pivots]
                for pos, (i, c) in enumerate(cols):
                    rows[i] |= (code >> pos & 1) << c
                yield tuple(rows), pivots


def test_all_subspace_rrefs_order():
    # census indices, and the messages that name them, rest on this order
    for n in range(1, 7):
        assert list(framed._all_subspace_rrefs(n)) == list(_rref_oracle(n))


def test_census_sums_against_rebuilt_spans():
    # m = 2 sums at a stride and at both ends of each shadow dimension 0..6,
    # against the lane sum over the span of the _mts_rows rebuild
    lanes = _lane_tables(2)[2]
    sums = list(framed._mts_sums(2, lanes))
    dims = collections.Counter(len(brows) for brows, _ in framed._all_subspace_rrefs(6))
    bounds = [0, *itertools.accumulate(dims[k] << (k * (k - 1) // 2) for k in range(7))]
    assert bounds[-1] == len(sums) == framed.mts_count_formula(2)
    picks = {*bounds[:-1], *(b - 1 for b in bounds[1:]), *range(0, len(sums), 211)}
    rebuilt = _rebuilt_rows(2, picks)
    assert len(rebuilt) == len(picks) > 700
    for i, rows in rebuilt.items():
        assert sums[i] == sum(map(lanes.__getitem__, span(rows))), i


@pytest.mark.parametrize("m, stride", [(1, 1), (2, 53)])
def test_mts_rows_against_census_order(m, stride):
    spans = itertools.islice(_mts_spans(m), 0, None, stride)
    want = {
        i: tuple(rref_ints(span[1 << b] for b in range(3 * m)))
        for i, span in zip(itertools.count(0, stride), spans)
    }
    assert len(want) == -(-framed.mts_count_formula(m) // stride)
    assert _rebuilt_rows(m, want) == want


def _random_shadow_subspace(rng, m):
    """A maximal totally singular subspace of the triple ambient from a
    random even-half shadow and a random alternating form on it."""
    n = 3 * m
    brows = tuple(rref_ints(rng.getrandbits(n) for _ in range(rng.randrange(n + 1))))
    pivots = tuple((b & -b).bit_length() - 1 for b in brows)
    k = len(brows)
    rows = framed._mts_rows(n, brows, pivots, rng.getrandbits(k * (k - 1) // 2))
    amb = TripleAmbient(m)
    return MtsSubspace(amb, rref(rows, amb.dim))


def test_random_mts_subspaces_against_walk_oracle():
    # subspaces no builder makes, cond1 and cond2 among them at every m
    rng = random.Random("random shadows")
    for m, count in ((2, 300), (3, 300), (4, 200), (5, 40), (6, 8)):
        kinds = collections.Counter()
        for _ in range(count):
            s = _random_shadow_subspace(rng, m)
            s.validate()
            ones, n2, _, cond2 = _walk(s)
            assert framed._triple_invariants(s) == (ones, n2, cond2), s.sub.rows
            assert profile(s) == (sum(ones), n2), s.sub.rows
            case = classify_triple(s)
            if all(ones):
                assert case == COND1, s.sub.rows
            elif cond2:
                assert case == COND2, s.sub.rows
            else:
                assert lnumber_closed(case) == (sum(ones), n2), s.sub.rows
            kinds[case.kind] += 1
        assert kinds["cond1"] and kinds["cond2"], (m, kinds)


def _perp_verdict(s):
    """validate's message from the kernel: S-perp computed and compared with S."""
    space = s.space()
    if 2 * s.dim != space.dim:
        return "subspace is not half-dimensional"
    if any(map(space.q, s.sub.rows)):
        return "basis vector is not singular"
    if space.perp(s.sub).rows != s.sub.rows:
        return "subspace is not self-perpendicular"
    return None


def _near_miss(rng, s):
    """A half-dimensional subspace off a valid s, its rref rows often all
    singular: a hyperplane H of s n y-perp, a row x of s with <x, y> = 1,
    and a singular y outside s.  In the basis (H, x, y) only <x, y> is odd."""
    space = s.space()
    y = 0
    while space.q(y) or s.sub.contains(y):
        y = rng.getrandbits(space.dim)
    fy = space.functional(y)
    fixed = list(intersect(s.sub, kernel([fy], space.dim)).rows)
    fixed.pop(rng.randrange(len(fixed)))
    x = next(r for r in s.sub.rows if (fy & r).bit_count() & 1)
    return MtsSubspace(s.ambient, rref([*fixed, x, y], space.dim))


def test_validate_matches_the_perp_oracle():
    # the pairing check is exact only on non-degenerate ambients
    assert all(type_of(TripleAmbient(m).space) == "plus" for m in range(1, 11))
    assert type_of(pair_ambient().space) == "plus"
    rng = random.Random("validate oracle")
    subs = [build_case(case) for m in range(5, 11) for case in valid_params(m)]
    subs += [_random_shadow_subspace(rng, m) for m in range(1, 5) for _ in range(40)]
    subs += [build_pair_case(case_id) for case_id in framed.PAIR_CASE_IDS]
    valid = len(subs)
    subs += [_near_miss(rng, s) for s in subs for _ in range(4)]
    subs += [MtsSubspace(s.ambient, rref(s.sub.rows[1:], s.ambient.dim)) for s in subs[::9]]
    verdicts = collections.Counter()
    for s in subs:
        try:
            s.validate()
            got = None
        except FalsificationError as e:
            got = str(e)
        assert got == _perp_verdict(s), (s.ambient, s.sub.rows)
        verdicts[got] += 1
    assert verdicts[None] == valid
    assert len(verdicts) == 4 and min(verdicts.values()) > 150, verdicts


def _random_block_isometry(rng, m):
    """A random isometry of the triple ambient: three reflections
    x -> x + <x, v> v, each in a nonsingular v of a random block, then a
    random permutation of the blocks."""
    amb = TripleAmbient(m)
    w = 2 * m
    mask = (1 << w) - 1
    reflections = []
    for _ in range(3):
        v = 0
        while not amb.block.q(v):
            v = rng.getrandbits(w)
        v = amb.embed(v, rng.randrange(3))
        reflections.append((amb.space.functional(v), v))
    src = rng.sample(range(3), 3)  # new block i is old block src[i]

    def apply(x):
        for f, v in reflections:
            if (f & x).bit_count() & 1:
                x ^= v
        return sum(((x >> (w * s)) & mask) << (w * i) for i, s in enumerate(src))

    return apply


@pytest.mark.parametrize("m, draws", [*((m, 20) for m in range(3, 9)), (9, 10), (10, 10)])
def test_class_invariants_under_block_isometries(m, draws):
    # above m = 2 no census checks that the class is invariant under the
    # symmetry of the three blocks; builds reach the classes that random
    # draws miss.  This checks invariance only, not that the maps generate
    # the group.
    rng = random.Random(f"block isometries {m}")
    inputs = [build_case(case) for case in valid_params(m)]
    inputs += [_random_shadow_subspace(rng, m) for _ in range(draws)]
    moved = 0
    for s in inputs:
        want = (classify_triple(s), profile(s), weight1_dim_triple(s))
        for _ in range(3):
            rows = map(_random_block_isometry(rng, m), s.sub.rows)
            image = MtsSubspace(s.ambient, rref(rows, s.ambient.dim))
            image.validate()
            got = (classify_triple(image), profile(image), weight1_dim_triple(image))
            assert got == want, s.sub.rows
            moved += image.sub != s.sub
    assert moved > len(inputs)


def test_census_m1_against_independent_scan():
    # second, dumber oracle at m=1: scan all orthogonal singular triples
    space = standard_plus(6)
    singular = [v for v in range(1, 64) if space.q(v) == 0]
    assert len(singular) == 35
    keys = set()
    for a, b, c in itertools.combinations(singular, 3):
        if space.bilinear(a, b) or space.bilinear(a, c) or space.bilinear(b, c):
            continue
        sub = rref([a, b, c], 6)
        if sub.dim == 3:
            keys.add(sub.rows)
    assert len(keys) == 30
    assert keys == set(_rref_census(1))


def test_pair_ambient_is_plus_type_dim_28():
    from framedlie.quadspace import lnum_closed, type_of

    amb = pair_ambient()
    assert amb.space.dim == 28
    assert str(type_of(amb.space)) == "plus"
    # closed-form census of the whole ambient: 2^27 +- 2^13 split
    assert lnum_closed(14, True) == (2**27 + 2**13 - 1, 2**27 - 2**13)


def test_pair_prescriptions():
    dims = {"pcl5_3": 5, "pcl4_3": 4, "pcl4_4": 4, "pcl4_5": 4, "pcl4_6": 4, "niemeier_a17e7": 5}
    for cid, d in dims.items():
        assert pair_case_prescription(cid).dim == d
    with pytest.raises(UsageError):
        pair_case_prescription("nope")


def test_ambient_and_case_guards():
    triple, pair = build_case(even_case(1, 1, 0, "+")), build_pair_case("pcl4_6")
    for call, message in (
        (lambda: build_case(COND1), "no builder for case cond1"),
        (lambda: lnumber_closed(COND2), "closed profile forms exist only for builder cases"),
        (lambda: profile(pair), "defined over the triple ambient"),
        (lambda: rho_invariants(triple), "defined over the pair ambient"),
        (lambda: weight1_dim_pair(triple), "defined over the pair ambient"),
    ):
        with pytest.raises(UsageError, match=message):
            call()


def test_pair_case_smoke():
    s = build_pair_case("pcl4_6", seed=0)
    s.validate()
    data = weight1_dim_pair(s)
    assert data["direct"] == 72
    assert data["terms"] == (0, 12, 12, 0, 48)
    assert data["row3_in_rho1"] == 48
    assert (data["dim_rho1"], data["dim_rho2_of_kernel"]) == (14, 0)


def test_pair_weight1_coset_pairing_property():
    # singular total form: a nonsingular X part forces a nonsingular V part
    amb = pair_ambient()
    s = build_pair_case("pcl5_3", seed=1)
    from framedlie.modlabels import RXLabel, qx

    xs = span([r & framed._X_MASK for r in s.sub.rows])
    vs = span([r >> 18 for r in s.sub.rows])
    assert len(xs) == len(vs) == 1 << 14
    for x, v in zip(xs, vs):
        assert qx(RXLabel.from_packed(amb.coords.packed_label(x))) == amb.rv.space.q(v)


def _label_walk(rows, coords):
    """(label, V part) of every vector spanned by 28-bit rows, as RXLabels."""
    from framedlie.modlabels import ZERO_PLUS, rx_add

    labels = [coords.from_coords(r & ((1 << 18) - 1)) for r in rows]
    cur, v = ZERO_PLUS, 0
    yield cur, v
    for i in range(1, 1 << len(rows)):
        j = (i & -i).bit_length() - 1
        cur = rx_add(cur, labels[j])
        v ^= rows[j] >> 18
        yield cur, v


def _weight1_oracle(s: MtsSubspace) -> dict:
    """The weight-one walk on RXLabels and Fractions, lowest weights of the
    small labels taken from the form itself and those of the orbit rows from
    the paper's table, written out here apart from the package's table."""
    from fractions import Fraction

    from framedlie.modlabels import ZERO_PLUS, orbit_class

    # (lowest weight, lowest dim) of each of the eight orbit rows
    row_lowest = {
        1: (Fraction(0), 1),
        2: (Fraction(1), 16),
        3: (Fraction(1, 2), 1),
        4: (Fraction(1), 4),
        5: (Fraction(3, 2), 16),
        6: (Fraction(2), 128),
        7: (Fraction(1), 1),
        8: (Fraction(3, 2), 16),
    }
    amb = s.ambient
    inv = rho_invariants(s)

    def lowest_v(v):
        if v == 0:
            return Fraction(0), 1
        return (Fraction(1), 8) if amb.rv.space.q(v) == 0 else (Fraction(1, 2), 1)

    direct = 0
    for label, v in _label_walk(s.sub.rows, amb.coords):
        lw1, d1 = row_lowest[orbit_class(label)]
        lw2, d2 = lowest_v(v)
        if lw1 + lw2 == 1:
            direct += d1 * d2
    rows_hist = {r: 0 for r in range(1, 9)}
    for label, _ in _label_walk(inv["rho1_of_kernel2"].rows, amb.coords):
        if label != ZERO_PLUS:
            rows_hist[orbit_class(label)] += 1
    n_row3_full = sum(
        1 for label, _ in _label_walk(inv["rho1"].rows, amb.coords)
        if orbit_class(label) == 3
    )
    size_ker1 = 1 << inv["rho2_of_kernel1"].dim
    terms = (
        16 * rows_hist[2],
        4 * rows_hist[4],
        rows_hist[7],
        8 * (size_ker1 - 1),
        n_row3_full * size_ker1,
    )
    return {
        "terms": terms,
        "direct": direct,
        "kernel_rows": rows_hist,
        "row3_in_rho1": n_row3_full,
        "dim_rho1": inv["rho1"].dim,
        "dim_rho1_of_kernel": inv["rho1_of_kernel2"].dim,
        "dim_rho2_of_kernel": inv["rho2_of_kernel1"].dim,
    }


def test_weight1_dim_pair_matches_label_walk_oracle():
    for case_id in framed.PAIR_CASE_IDS:
        for seed in range(5):
            s = build_pair_case(case_id, seed=seed)
            assert weight1_dim_pair(s) == _weight1_oracle(s), (case_id, seed)


def _weight1_three_walks(s: MtsSubspace) -> dict:
    """weight1_dim_pair by three full walks: the X and V parts of s spanned
    in the same order, the kernel shadow and all of rho1 on their own."""
    from framedlie.modlabels import RV_DIM, TABLE_ROW_LOWEST2, coordinate_row_table

    inv = rho_invariants(s)
    table = coordinate_row_table()
    rows = bytes(map(table.__getitem__, span([r & framed._X_MASK for r in s.sub.rows])))
    small = bytes(map(s.ambient.rv.lowest2.__getitem__, span([r >> 18 for r in s.sub.rows])))
    direct = sum(
        n * TABLE_ROW_LOWEST2[row][1] * RV_DIM[lw2]
        for (row, lw2), n in collections.Counter(zip(rows, small)).items()
        if row and TABLE_ROW_LOWEST2[row][0] + lw2 == 2
    )
    kernel_rows = collections.Counter(map(table.__getitem__, span(inv["rho1_of_kernel2"].rows)[1:]))
    rows_hist = {r: kernel_rows[r] for r in range(1, 9)}
    n_row3_full = bytes(map(table.__getitem__, span(inv["rho1"].rows))).count(3)
    size_ker1 = 1 << inv["rho2_of_kernel1"].dim
    terms = (
        16 * rows_hist[2],
        4 * rows_hist[4],
        rows_hist[7],
        8 * (size_ker1 - 1),
        n_row3_full * size_ker1,
    )
    return {
        "terms": terms,
        "direct": direct,
        "kernel_rows": rows_hist,
        "row3_in_rho1": n_row3_full,
        "dim_rho1": inv["rho1"].dim,
        "dim_rho1_of_kernel": inv["rho1_of_kernel2"].dim,
        "dim_rho2_of_kernel": inv["rho2_of_kernel1"].dim,
    }


def test_weight1_dim_pair_matches_three_full_walks():
    # the walk over (rest, ker) repeats the V labels of rest and reads rho1
    # off s's X walk; both dim rho1 = 13 (a shift of 1) and 14 occur
    dims = set()
    for case_id in framed.PAIR_CASE_IDS:
        for seed in range(20):
            s = build_pair_case(case_id, seed=seed)
            want = _weight1_three_walks(s)
            assert weight1_dim_pair(s) == want, (case_id, seed)
            dims.add(want["dim_rho1"])
    assert dims == {13, 14}


def test_serialization_roundtrip():
    s = build_case(even_case(2, 1, 1, "+"), seed=0)
    text = to_text(s)
    back = from_text(text)
    assert back.sub.rows == s.sub.rows
    assert to_text(back) == text
    p = build_pair_case("pcl4_5", seed=0)
    text = to_text(p)
    back = from_text(text)
    assert back.sub.rows == p.sub.rows
    with pytest.raises(UsageError):
        from_text("ambient=weird\n")
