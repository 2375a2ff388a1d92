"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value is exact; there are no tolerances anywhere.
"""

import random
from fractions import Fraction

from framedlie import codes as codes_mod
from framedlie import framed, liesolver, modlabels, quadspace
from framedlie.tables import TA16_ROWS, TA8_ROWS

PUBLISHED_W1 = [60, 84, 192, 240, 744, 120, 168, 384, 240, 48, 120, 408, 96, 240, 192]
CASE_ORDER = [
    "even(5,1,0,+)",
    "even(5,1,0,-)",
    "even(5,3,0,+)",
    "even(5,3,0,-)",
    "even(5,5,0,+)",
    "even(5,2,1,+)",
    "even(5,2,1,-)",
    "even(5,4,1,+)",
    "even(5,3,2,+)",
    "odd(5,0,0)",
    "odd(5,2,0)",
    "odd(5,4,0)",
    "odd(5,1,1)",
    "odd(5,3,1)",
    "odd(5,2,2)",
]


def _case(case_str):
    return next(c for c in framed.valid_params(5) if str(c) == case_str)


def test_criterion_1_weight_one_regression():
    cases = framed.valid_params(5)
    assert len(cases) == 15
    for case_str, published in zip(CASE_ORDER, PUBLISHED_W1):
        case = _case(case_str)
        sub = framed.build_case(case, seed=0)
        counted = framed.profile(sub)
        closed = framed.lnumber_closed(case)
        assert counted == closed, case_str
        assert 8 * counted[0] + counted[1] == published, case_str
        assert framed.weight1_closed(case) == published
    print("PASS criterion 1: 15 weight-one dimensions, profile == closed form")


def test_criterion_2_census_closed_forms():
    for dim in range(2, 19, 2):
        m = dim // 2
        plus = quadspace.singular_census(quadspace.standard_plus(dim))
        minus = quadspace.singular_census(quadspace.standard_minus(dim))
        assert plus == quadspace.lnum_closed(m, True), dim
        assert minus == quadspace.lnum_closed(m, False), dim
    print("PASS criterion 2: singular censuses match closed forms, dims 2-18")


def test_criterion_3_label_census():
    sizes = modlabels.rx_census()
    assert sizes == (1, 3, 480, 7280, 32032, 25740, 98304, 98304)
    assert sum(sizes) == 262144
    rng = random.Random(20260810)
    checked = 0
    while checked < 10**4:
        lbl = modlabels.random_label(rng, twisted=False)
        if lbl.lam() == (0, 0, 0):
            continue  # zero coset: rows split by sign, not by coset norms
        oc = modlabels.orbit_class(lbl)
        assert oc.lowest_weight == Fraction(modlabels.coset_min_norm(lbl), 2)
        checked += 1
    print("PASS criterion 3: 2^18 label census and 10^4 min-norm samples")


def test_criterion_4_pair_cases():
    expect = {
        "pcl5_3": (132, 36, (0, 28, 24, 8, 72)),
        "pcl4_3": (288, 192, (48, 48, 0, 0, 192)),
        "pcl4_4": (216, 144, (16, 56, 0, 0, 144)),
        "pcl4_5": (144, 96, (16, 24, 8, 0, 96)),
        "pcl4_6": (72, 48, (0, 12, 12, 0, 48)),
        "niemeier_a17e7": (456, 144, (48, 112, 0, 8, 288)),
    }
    for case_id, (value, row3, terms) in expect.items():
        for seed in range(5):
            sub = framed.build_pair_case(case_id, seed=seed)
            inv = framed.rho_invariants(sub)  # asserts the projection identities
            data = framed.weight1_dim_pair(sub)  # asserts direct == formula
            assert data["value"] == value, (case_id, seed)
            assert data["direct"] == value
            assert data["terms"] == terms, (case_id, seed)
            assert data["row3_in_rho1"] == row3, (case_id, seed)
    print("PASS criterion 4: six pair cases, both computation paths, 5 seeds")


def test_criterion_5_small_census():
    r1 = framed.census_small(1)
    assert r1.total == 30 == framed.mts_count_formula(1)
    assert sum(r1.per_case.values()) == 30  # zero classification failures
    assert r1.built_distinct
    r2 = framed.census_small(2)
    # the enumerated total matches the product formula (2^0+1)...(2^5+1)
    assert r2.total == framed.mts_count_formula(2) == 151470
    assert sum(r2.per_case.values()) == r2.total
    assert r2.built_distinct
    print(
        "PASS criterion 5: full censuses classified; totals 30 and "
        f"{r2.total} match the product formula; built orbits distinct"
    )


def test_criterion_6_orbifold_identification():
    sub = framed.build_odd(5, 4, 0, seed=0)
    choices = framed.section47_orbifold_choices(sub, limit=3)
    assert len(choices) >= 3
    target = framed.even_case(5, 3, 0, "+")
    for s0, t0, w in choices:
        out = framed.z2_orbifold(sub, w)
        assert framed.classify_triple(out) == target
    print("PASS criterion 6: orbifold of odd(5,4,0) lands on even(5,3,0,+), 3 choices")


def test_criterion_7_lie_regression():
    table_report = liesolver.candidate_table_report()
    assert len(table_report) == 21
    for row in table_report:
        assert row["ok"], (row["case"], row["problems"])
    reports = liesolver.run_ledger()
    for rep in reports:
        assert rep.ok, (rep.case_id, rep.problems)
    exact = {
        "even(5,4,1,+)": {"E8,2 B8,1"},
        "even(5,5,0,+)": {"(E8,1)^3", "D16,1 E8,1"},
        "odd(5,4,0)": {"A15,1 D9,1"},
        "pcl5_3": {"A8,2 F4,2"},
        "pcl4_3": {"C10,1 B6,1"},
    }
    for rep in reports:
        if rep.case_id in exact:
            assert set(rep.solutions) == exact[rep.case_id], rep.case_id
    by_case = {r.case_id: r for r in reports}
    for case_id, dim, alg, number, _ in TA8_ROWS + TA16_ROWS:
        rep = by_case[case_id]
        assert rep.dim_computed == dim
        assert liesolver.parse_decomposition(rep.answer) == liesolver.parse_decomposition(alg)
        assert rep.schellekens == number
    print("PASS criterion 7: candidate tables, ledger membership, published tables")


def test_criterion_8_codes():
    assert codes_mod.dual(codes_mod.reed_muller(1, 4)) == codes_mod.reed_muller(2, 4)
    de8 = codes_mod.doubling(codes_mod.builtin("e8"))
    assert (de8.length, de8.dim) == (16, 5)
    assert codes_mod.is_triply_even(de8) and codes_mod.contains_all_ones(de8)
    triple = codes_mod.direct_sum(codes_mod.direct_sum(de8, de8), de8)
    mixed = codes_mod.direct_sum(de8, codes_mod.doubling(codes_mod.builtin("d16plus")))
    for c in (triple, mixed):
        assert c.length == 48
        assert codes_mod.is_triply_even(c)
        assert codes_mod.contains_all_ones(c)
    d16p = codes_mod.builtin("d16plus")
    assert codes_mod.is_self_dual(d16p) and codes_mod.is_doubly_even(d16p)
    we = codes_mod.weight_enumerator(codes_mod.builtin("g24"))
    assert (we[0], we[8], we[12], we[16], we[24]) == (1, 759, 2576, 759, 1)
    assert sum(we) == 4096
    print("PASS criterion 8: code constructions and parity certificates")


def test_criterion_9_property_suites():
    rng = random.Random(99)
    # fusion laws on 10^4 random triples
    for _ in range(10**4):
        a, b, c = (modlabels.random_label(rng) for _ in range(3))
        ab = modlabels.rx_add(a, b)
        assert ab == modlabels.rx_add(b, a)
        assert modlabels.rx_add(ab, c) == modlabels.rx_add(a, modlabels.rx_add(b, c))
        assert modlabels.rx_add(a, a) == modlabels.ZERO_PLUS
        assert modlabels.rx_add(modlabels.ZERO_PLUS, a) == a
    # polarization identities on all ambient shapes in play
    for dim in (10, 18, 28):
        space = quadspace.standard_plus(dim)
        for _ in range(500):
            x, y = rng.getrandbits(dim), rng.getrandbits(dim)
            assert space.bilinear(x, y) == space.q(x ^ y) ^ space.q(x) ^ space.q(y)
    # label-side pairings
    for _ in range(500):
        lam = modlabels.random_label(rng, twisted=False)
        plus = modlabels.RXLabel(0, lam.eps, lam.c, lam.delta, 0)
        minus = modlabels.RXLabel(0, lam.eps, lam.c, lam.delta, 1)
        tw = modlabels.random_label(rng, twisted=True)
        wa = modlabels.label_to_w(plus)
        wb = modlabels.label_to_w(modlabels.random_label(rng, twisted=False))
        dot = sum(x * y for x, y in zip(wa, wb))
        assert modlabels.pairing(plus, modlabels.label_from_w(wb)) == (dot // 4) % 2
        assert modlabels.pairing(plus, modlabels.CHI0_PLUS) == 0
        assert modlabels.pairing(minus, modlabels.CHI0_PLUS) == 1
        assert modlabels.pairing(modlabels.ZERO_MINUS, tw) == 1
    # seed invariance: every builder case at m = 1..6 (seeds 0-9) and m = 10
    # (seed 0) classifies to itself with its closed-form profile
    published = dict(zip(CASE_ORDER, PUBLISHED_W1))
    sweep = [(c, seed) for m in range(1, 7) for c in framed.valid_params(m) for seed in range(10)]
    sweep += [(c, 0) for c in framed.valid_params(10)]
    for case, seed in sweep:
        sub = framed.build_case(case, seed=seed)
        sub.validate()  # perp-idempotence and maximality
        assert framed.classify_triple(sub) == case, (case, seed)
        assert framed.profile(sub) == framed.lnumber_closed(case), (case, seed)
        if str(case) in published:
            assert framed.weight1_dim_triple(sub) == published[str(case)]
    for case_id, value in (("pcl5_3", 132), ("pcl4_4", 216)):
        for seed in (1, 2):
            assert framed.build_pair_case_weight1(case_id, seed=seed) == value
    print("PASS criterion 9: fusion laws, polarization, pairings, seed invariance")
