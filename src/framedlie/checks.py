"""The acceptance checks of `framedlie verify`, with their exact expected values.

`verify_checks` yields the one list of named checks: `framedlie verify`
runs it and `tests/test_acceptance.py` makes one test of each full-mode
check.  A check passes by returning; it fails by raising
`FalsificationError`, through `expect` or from inside the package, so the
checks hold under `python -O` too.  Importing this module does no work.
"""

from __future__ import annotations

import random

from . import codes, framed, liesolver, modlabels, quadspace, tables
from .gf2 import FalsificationError


def expect(what: str, got, want) -> None:
    """Raise FalsificationError naming what was checked, the value got and
    the value wanted, unless got == want.  The message reads
    "<what> <got>, expected <want>" and is built only on failure."""
    if got != want:
        raise FalsificationError(f"{what} {got}, expected {want}")


def verify_checks(quick: bool, records: tuple[liesolver.CaseRecord, ...]):
    """Yield (name, callable) pairs over the ledger's records; a callable raises
    FalsificationError on a mismatch.  Quick mode leaves out the three slowest censuses."""
    published = {row[0]: row[1] for row in tables.TA8_ROWS}
    cases = framed.valid_params(5)

    def weight_one(case_str):
        expect("m = 5 builder cases", sorted(map(str, cases)), sorted(published))
        case = next(c for c in cases if str(c) == case_str)
        sub = framed.build_case(case, seed=0)
        expect(f"{case} seed 0: profile", framed.profile(sub), framed.lnumber_closed(case))
        weight1 = framed.weight1_dim_triple(sub)
        expect(f"{case} seed 0: weight-one value", weight1, published[case_str])
        expect(f"{case} seed 0: classified as", framed.classify_triple(sub), case)

    for case_str in published:
        yield f"weight_one_{case_str}", (lambda c=case_str: weight_one(c))

    def lnum(name, dim, plus):
        space = quadspace.standard_plus(dim) if plus else quadspace.standard_minus(dim)
        got = quadspace.singular_census(space)
        expect(f"{name}: singular census", got, quadspace.lnum_closed(dim // 2, plus))

    for dim in range(2, 19, 2):
        for plus in (True, False):
            name = f"lnum_{'plus' if plus else 'minus'}_{dim}"
            yield name, (lambda n=name, d=dim, p=plus: lnum(n, d, p))

    def label_census():  # the row sizes sum to 2^18
        sizes = (1, 3, 480, 7280, 32032, 25740, 98304, 98304)
        expect("label census row sizes", modlabels.rx_census(), sizes)

    if not quick:
        yield "table2_census", label_census

    def minnorm_sample():
        rng = random.Random(20260810)
        n = 0
        while n < 10**4:
            lbl = modlabels.random_label(rng, twisted=False)
            if lbl.lam() == (0, 0, 0):
                continue  # the zero coset is split by sign, not by norms
            modlabels.orbit_class(lbl, verify=True)  # raises on disagreement
            n += 1

    yield "table2_minnorm_sample", minnorm_sample

    # weight-one value, row-3 count of the full X projection, formula terms
    pair_expect = {
        "pcl5_3": (132, 36, (0, 28, 24, 8, 72)),
        "pcl4_3": (288, 192, (48, 48, 0, 0, 192)),
        "pcl4_4": (216, 144, (16, 56, 0, 0, 144)),
        "pcl4_5": (144, 96, (16, 24, 8, 0, 96)),
        "pcl4_6": (72, 48, (0, 12, 12, 0, 48)),
        "niemeier_a17e7": (456, 144, (48, 112, 0, 8, 288)),
    }

    def pair(case_id):
        value, row3, terms = pair_expect[case_id]
        want = (value, row3, terms)
        for seed in range(5):
            # runs rho_invariants, which raises FalsificationError unless
            # the projection identities hold
            data = framed.weight1_dim_pair(framed.build_pair_case(case_id, seed=seed))
            got = (data["direct"], data["row3_in_rho1"], data["terms"])
            expect(f"{case_id} seed {seed}: (direct, row 3, terms)", got, want)

    for case_id in pair_expect:
        yield f"pair_{case_id}", (lambda c=case_id: pair(c))

    # (subspaces, orbits) per case; census_small checks that every orbit
    # size divides the order of the wreath group, 2^10 * 3^7 at m = 2
    census_expect = {
        1: {"cond1": (8, 1), "cond2": (8, 1), "even(1,1,0,+)": (12, 1), "odd(1,0,0)": (2, 1)},
        2: {
            "cond1": (10422, 4),
            "cond2": (62208, 3),
            "even(2,0,0,+)": (46656, 1),
            "even(2,0,0,-)": (1728, 1),
            "even(2,1,1,+)": (17496, 1),
            "even(2,2,0,+)": (1296, 1),
            "odd(2,1,0)": (11664, 1),
        },
    }

    def census(m, total, orbits):
        report = framed.census_small(m)
        got = (report.total, framed.mts_count_formula(m), sum(report.per_case.values()))
        expect(f"m = {m} census: (subspaces, product formula, per-case sum)", got, (total,) * 3)
        got = {c: (n, report.per_case_orbits.get(c)) for c, n in report.per_case.items()}
        expect(f"m = {m} census: (subspaces, orbits) per case", got, census_expect[m])
        expect(f"m = {m} census: orbits", report.orbit_count, orbits)
        by_orbit: dict[int, list[str]] = {}
        for case, label in report.built_case_orbits.items():
            by_orbit.setdefault(label, []).append(case)
        shared = "; ".join(", ".join(cases) for cases in by_orbit.values() if len(cases) > 1)
        expect(f"m = {m} census: built cases share an orbit:", shared or "none", "none")

    yield "census_m1", lambda: census(1, 30, 4)
    if not quick:
        yield "census_m2", lambda: census(2, 151470, 12)

    def orbifold():
        sub = framed.build_case(framed.odd_case(5, 4, 0), seed=0)
        choices = framed.section47_orbifold_choices(sub, limit=3)
        expect("odd(5,4,0) seed 0: orbifold choices", len(choices), 3)
        want = framed.even_case(5, 3, 0, "+")
        for s0, t0, w in choices:
            got = framed.classify_triple(framed.z2_orbifold(sub, w))
            expect(f"odd(5,4,0) seed 0: orbifold at t0 = {t0}, s0 = {s0} is", got, want)

    yield "orbifold_section47", orbifold

    def candidate_tables():
        rep = liesolver.candidate_table_report(records)
        expect("candidate tables", len(rep), 21)
        bad = [(r["case"], r["problems"]) for r in rep if not r["ok"]]
        expect("candidate tables with problems", bad, [])

    yield "lie_candidate_tables", candidate_tables

    ledger_runs = []  # one ledger run serves all three ledger checks

    def ledger_reports():
        if not ledger_runs:
            ledger_runs.append(liesolver.run_ledger(records))
        return ledger_runs[0]

    def ledger():
        reports = ledger_reports()
        bad = [(r.record.case_id, r.problems) for r in reports if not r.ok]
        expect("ledger cases with problems", bad, [])
        expect("ledger cases", len(reports), 21)

    yield "lie_ledger", ledger

    exact_solutions = {
        "even(5,4,1,+)": {"E8,2 B8,1"},
        "even(5,5,0,+)": {"(E8,1)^3", "D16,1 E8,1"},
        "odd(5,4,0)": {"A15,1 D9,1"},
        "pcl5_3": {"A8,2 F4,2"},
        "pcl4_3": {"C10,1 B6,1"},
    }

    def published_tables():
        reports = ledger_reports()
        by_case = {r.record.case_id: r for r in reports}
        unmatched = liesolver.unmatched_rows(reports, tables.TA8_ROWS + tables.TA16_ROWS)
        wrong = [  # what the report holds, and why it was not sound
            (case_id, "missing")
            if (rep := by_case.get(case_id)) is None
            else (case_id, rep.dim_computed, str(rep.record.answer), rep.record.schellekens,
                  rep.problems)
            for case_id, *_ in unmatched
        ]
        expect("published rows that disagree with the ledger reports", wrong, [])
        # the exact sets follow from the dimension alone
        constrained = [
            r.record.case_id
            for r in reports
            if r.record.case_id in exact_solutions and r.record.constraints
        ]
        expect("exact-set cases with constraints", constrained, [])
        got = {c: set(map(str, by_case[c].solutions)) for c in exact_solutions}
        expect("exact solution sets", got, exact_solutions)

    yield "lie_published_tables", published_tables

    def coverage():
        cov = liesolver.lieframed_coverage(ledger_reports())
        uncovered = [(c["no"], c["dim"], str(c["algebra"])) for c in cov if not c["ok"]]
        expect("uncovered lieframed rows (no, dim, algebra)", uncovered, [])
        got = (len(cov), len(tables.LIEFRAMED_ROWS))
        expect("lieframed rows (covered, published)", got, (17, 17))

    yield "lie_lieframed_coverage", coverage

    def codes_rm():
        expect("dual of RM(1,4)", codes.dual(codes.reed_muller(1, 4)), codes.reed_muller(2, 4))

    yield "codes_rm_duality", codes_rm

    def codes_doubling():
        d = codes.doubling(codes.builtin("e8"))
        got = (d.ambient_width, d.dim, codes.is_triply_even(d), codes.contains_all_ones(d))
        expect("doubled e8: (length, dim, triply even, holds all-ones)", got, (16, 5, True, True))

    yield "codes_doubling_e8", codes_doubling

    def codes_48():
        de8 = codes.doubling(codes.builtin("e8"))
        trip = codes.direct_sum(codes.direct_sum(de8, de8), de8)
        mixed = codes.direct_sum(de8, codes.doubling(codes.builtin("d16plus")))
        for name, c in (("d(e8)^3", trip), ("d(e8) + d(d16plus)", mixed)):
            got = (c.ambient_width, codes.is_triply_even(c), codes.contains_all_ones(c))
            expect(f"{name}: (length, triply even, holds all-ones)", got, (48, True, True))

    yield "codes_length48_conditions", codes_48

    def codes_d16plus():
        c = codes.builtin("d16plus")
        got = (codes.is_self_dual(c), codes.is_doubly_even(c), c.dim)
        expect("d16plus: (self-dual, doubly even, dim)", got, (True, True, 8))

    yield "codes_d16plus", codes_d16plus

    def codes_golay():
        we = codes.weight_enumerator(codes.builtin("g24"))
        got = {w: n for w, n in enumerate(we) if n}
        expect("g24 weight enumerator", got, {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1})

    yield "codes_golay_enumerator", codes_golay

    def fusion_laws():
        rng, add, zero = random.Random(7), modlabels.rx_add, modlabels.ZERO_PLUS
        abc = [[modlabels.random_label(rng) for _ in range(3)] for _ in range(10**4)]
        bad = ((a, b, c) for a, b, c in abc
               if (p := add(a, b)) != add(b, a) or add(p, c) != add(a, add(b, c)))
        expect("fusion product not commutative and associative on", next(bad, None), None)
        bad = (a for a, _, _ in abc if add(a, a) != zero or add(zero, a) != a)
        expect("fusion product not of exponent 2 with unit 0 on", next(bad, None), None)
        # the product itself, not only its laws: the sum of the lattice
        # representatives, compared bit for bit; and 0- moves every label
        ab = [[modlabels.random_label(rng, twisted=False) for _ in range(2)] for _ in range(1000)]
        w, sums = modlabels.label_to_w, [add(a, b) for a, b in ab]
        lattice = (
            modlabels.label_from_w([x + y for x, y in zip(w(a), w(b))], 0, a.sign ^ b.sign)
            for a, b in ab
        )
        bad = ((a, b) for (a, b), p, q in zip(ab, sums, lattice) if p.packed != q.packed)
        expect(
            "fusion product is not the sum of lattice representatives on", next(bad, None), None
        )
        bad = (p for p in sums if add(modlabels.ZERO_MINUS, p) == p)
        expect("fusion product with 0- fixes", next(bad, None), None)

    yield "fusion_group_laws", fusion_laws

    def polarization():
        rng = random.Random(8)
        for dim in (10, 18, 28):
            s = quadspace.standard_plus(dim)
            ab = [(rng.getrandbits(dim), rng.getrandbits(dim)) for _ in range(500)]
            bad = ((a, b) for a, b in ab if s.bilinear(a, b) != s.q(a ^ b) ^ s.q(a) ^ s.q(b))
            expect(f"polarization identity fails in dim {dim} at", next(bad, None), None)

    yield "polarization_identity", polarization

    def pairings():
        rng, pairing, chi0 = random.Random(9), modlabels.pairing, modlabels.CHI0_PLUS
        samples = []
        for _ in range(500):
            lam = modlabels.random_label(rng, twisted=False)
            plus, minus = (modlabels.RXLabel(0, lam.eps, lam.c, lam.delta, s) for s in (0, 1))
            tw = modlabels.random_label(rng, twisted=True)
            wb = modlabels.label_to_w(modlabels.random_label(rng, twisted=False))
            dot = sum(x * y for x, y in zip(modlabels.label_to_w(plus), wb))
            samples.append((plus, minus, tw, modlabels.label_from_w(wb), dot))
        bad = ((p, b) for p, _, _, b, dot in samples if pairing(p, b) != (dot // 4) % 2)
        expect("pairing is not the lattice pairing on", next(bad, None), None)
        bad = (p for p, m, *_ in samples if pairing(p, chi0) != 0 or pairing(m, chi0) != 1)
        expect("pairing with chi0 does not read the sign on", next(bad, None), None)
        bad = (t for _, _, t, _, _ in samples if pairing(modlabels.ZERO_MINUS, t) != 1)
        expect("pairing of 0- with a twisted label is not 1 on", next(bad, None), None)

    yield "label_pairings", pairings

    if not quick:

        def coords_census():
            coords = modlabels.coordinatize()
            got = quadspace.singular_census(coords.space)
            expect("label coordinate census", got, (131327, 130816))
            # the pair walks' row table, against the labels it stands for
            table, rng = modlabels.coordinate_row_table(), random.Random(10)
            xs = [rng.getrandbits(18) for _ in range(2000)]
            bad = (
                (x, table[x], row)
                for x in xs
                if table[x] != (row := modlabels.orbit_class(coords.from_coords(x)))
            )
            expect("coordinate row table (x, row, orbit row)", next(bad, None), None)

        yield "label_coordinates_census", coords_census

    def rv_check():
        rv = modlabels.rv_model()
        expect("small label census", quadspace.singular_census(rv.space), (527, 496))
        # doubled lowest weights: 0 the zero label, 2 nonzero singular, 1 nonsingular
        got = {w: rv.lowest2.count(w) for w in (0, 1, 2)}
        expect("small label doubled lowest weights", got, {0: 1, 2: 527, 1: 496})

    yield "small_label_classifier", rv_check

    def seeds():
        case = framed.even_case(5, 4, 1, "+")
        for seed in range(3):
            got = framed.weight1_dim_triple(framed.build_case(case, seed))
            expect(f"{case} seed {seed}: weight-one value", got, 384)

    yield "seed_invariance", seeds

    def roundtrips():
        sub = framed.build_case(framed.even_case(2, 0, 0, "-"), seed=0)
        got = framed.from_text(framed.to_text(sub)).sub.rows
        expect("subspace text round trip", got, sub.sub.rows)

    yield "serialization_roundtrips", roundtrips
