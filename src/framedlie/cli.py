"""Batch command-line front end.

Commands: qspace, frame (build/classify/census/orbifold/pair), lie
(solve/ledger/tables) and verify.  JSON is the canonical output format;
csv and markdown render the same rows for eyeballing.  Exit codes:
0 success, 1 falsification or mismatch, 2 usage, 3 resource guard.
`main` may be called many times in one process: the argument parser is
built on the first call and reused, and no call leaves state for the next.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import sys
import time
from fractions import Fraction

from . import __version__
from . import codes as codes_mod
from . import framed, liesolver, modlabels, quadspace, tables
from .gf2 import FalsificationError, ResourceLimitError, UsageError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _emit(payload: dict, rows: list[dict] | None, args) -> None:
    """Print the payload as JSON, or its rows (the payload itself when rows
    is None) as csv or markdown.  The payload leads with the schema version
    and the command; JSON also records the package version and the run's
    --seed."""
    command = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
    payload = {"schema_version": SCHEMA_VERSION, "command": command, **payload}
    fmt = args.format
    if fmt == "json":
        payload = {**payload, "version": __version__, "seed": args.seed}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    if rows is None:
        rows = [payload]
    headers: list[str] = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    if fmt == "csv":  # quoted where a field holds a comma, as case names do
        writer = csv.DictWriter(sys.stdout, headers, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    else:  # markdown
        print("| " + " | ".join(headers) + " |")
        print("|" + "|".join("---" for _ in headers) + "|")
        for row in rows:
            print("| " + " | ".join(str(row.get(h, "")) for h in headers) + " |")


# ---------------------------------------------------------------------------
# qspace
# ---------------------------------------------------------------------------


def cmd_qspace(args) -> int:
    if args.dim % 2 or args.dim <= 0:
        raise UsageError("--dim must be even and positive")
    space = (
        quadspace.standard_plus(args.dim)
        if args.type == "plus"
        else quadspace.standard_minus(args.dim)
    )
    singular, nonsingular = quadspace.singular_census(space)
    expect = quadspace.lnum_closed(args.dim // 2, args.type == "plus")
    payload = {
        "dim": args.dim,
        "type": args.type,
        "singular_nonzero": singular,
        "nonsingular": nonsingular,
        "closed_form_match": (singular, nonsingular) == expect,
        "arf_type": str(quadspace.type_of(space)),
    }
    _emit(payload, None, args)
    return EXIT_OK if payload["closed_form_match"] else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# frame
# ---------------------------------------------------------------------------


def _parse_case_token(token: str) -> framed.TCCase:
    kind, _, rest = token.partition(":")
    bits = rest.split(",")
    if kind == "even" and len(bits) == 4:
        return framed.even_case(*liesolver._ints(bits[:3], token), bits[3])
    if kind == "odd" and len(bits) == 3:
        return framed.odd_case(*liesolver._ints(bits, token))
    raise UsageError(f"bad case token {token!r}; use even:m,k1,k2,[+-] or odd:m,k1,k2")


def cmd_frame_build(args) -> int:
    if args.type is None:
        case = framed.odd_case(args.m, args.k1, args.k2)
    else:
        eps = {"plus": "+", "minus": "-"}[args.type]
        case = framed.even_case(args.m, args.k1, args.k2, eps)
    sub = framed.build_case(case, seed=args.seed)
    n1, n2 = framed.profile(sub)
    payload = {
        "case": str(case),
        "profile": [n1, n2],
        "profile_closed_form": list(framed.lnumber_closed(case)),
        "weight1": 8 * n1 + n2,
        "classified": str(framed.classify_triple(sub)),
        "subspace": framed.to_text(sub).splitlines(),
    }
    _emit(payload, None, args)
    ok = payload["classified"] == str(case) and payload["profile"] == payload[
        "profile_closed_form"
    ]
    return EXIT_OK if ok else EXIT_FALSIFIED


def cmd_frame_classify(args) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input) as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"cannot read --input {args.input!r}: {exc}") from None
    sub = framed.from_text(text)
    payload = {
        "classified": str(framed.classify_triple(sub)),
        "profile": list(framed.profile(sub)),
    }
    _emit(payload, None, args)
    return EXIT_OK


def cmd_frame_census(args) -> int:
    report = framed.census_small(args.m)
    payload = {
        "m": report.m,
        "total": report.total,
        "product_formula": framed.mts_count_formula(args.m),
        "per_case": report.per_case,
        "orbit_count": report.orbit_count,
        "per_case_orbits": report.per_case_orbits,
        "built_cases_in_distinct_orbits": report.built_distinct,
    }
    rows = [
        {"case": c, "count": n, "orbits": report.per_case_orbits.get(c, 0)}
        for c, n in report.per_case.items()
    ]
    _emit(payload, rows, args)
    return EXIT_OK if report.built_distinct else EXIT_FALSIFIED


def cmd_frame_orbifold(args) -> int:
    if args.choices < 1:
        raise UsageError(f"--choices must be positive, got {args.choices}")
    base = _parse_case_token(args.base)
    sub = framed.build_case(base, seed=args.seed)
    choices = framed.section47_orbifold_choices(sub, limit=args.choices)
    if not choices:
        raise UsageError("no valid orbifold vector for this base case")
    rows = []
    for s0, t0, w in choices:
        out = framed.z2_orbifold(sub, w)
        rows.append(
            {
                "t0": t0,
                "s0": s0,
                "classified": str(framed.classify_triple(out)),
            }
        )
    payload = {
        "base": str(base),
        "results": rows,
    }
    _emit(payload, rows, args)
    return EXIT_OK


def cmd_frame_pair(args) -> int:
    sub = framed.build_pair_case(args.case, seed=args.seed)
    data = framed.weight1_dim_pair(sub)
    payload = {
        "case": args.case,
        "dim_rho1": data["dim_rho1"],
        "dim_rho1_of_kernel": data["dim_rho1_of_kernel"],
        "dim_rho2_of_kernel": data["dim_rho2_of_kernel"],
        "weight1_formula": sum(data["terms"]),
        "weight1_direct": data["direct"],
        "terms": list(data["terms"]),
        "row3_in_rho1": data["row3_in_rho1"],
        "kernel_rows": {str(k): v for k, v in data["kernel_rows"].items() if v},
        "subspace": framed.to_text(sub).splitlines(),
    }
    _emit(payload, None, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# lie
# ---------------------------------------------------------------------------


def cmd_lie_solve(args) -> int:
    constraints = [liesolver.parse_constraint(t) for t in args.constraint]
    sols = liesolver.decompose(args.dim, constraints)
    payload = {
        "dim": args.dim,
        "ratio": str(liesolver.ratio_from_dim(args.dim)),
        "constraints": args.constraint,
        "solutions": [str(s) for s in sols],
        "unique": len(sols) == 1,
    }
    rows = [{"solution": str(s), "rank": s.total_rank} for s in sols]
    _emit(payload, rows, args)
    return EXIT_OK


def cmd_lie_ledger(args) -> int:
    reports = liesolver.run_ledger(args.ledger)
    rows = [
        {
            "case": r.case_id,
            "dim": r.dim_computed,
            "published_dim": r.dim_published,
            "answer": str(r.answer),
            "solutions": len(r.solutions),
            "uniqueness": r.uniqueness,
            "status": "MATCH" if r.ok else "MISMATCH: " + "; ".join(r.problems),
        }
        for r in reports
    ]
    payload = {
        "cases": rows,
        "identification_notes": [
            {"case": r.case_id, "identified": r.identified}
            for r in reports
            if r.identified
        ],
        "all_match": all(r.ok for r in reports),
    }
    _emit(payload, rows, args)
    return EXIT_OK if payload["all_match"] else EXIT_FALSIFIED


def _matches_published(rep: liesolver.CaseReport, dim: int, alg: str, number: int) -> bool:
    """A published table row agrees with the ledger report of its case."""
    published = (dim, liesolver.parse_decomposition(alg), number)
    return (rep.dim_computed, rep.answer, rep.schellekens) == published


def cmd_lie_tables(args) -> int:
    ok = True
    if args.which in ("ta8", "ta16"):
        published = tables.TA8_ROWS if args.which == "ta8" else tables.TA16_ROWS
        reports = {r.case_id: r for r in liesolver.run_ledger(args.ledger)}
        rows = []
        for case_id, dim, alg, number, ref in published:
            rep = reports[case_id]
            match = rep.ok and _matches_published(rep, dim, alg, number)
            ok &= match
            rows.append(
                {
                    "case": case_id,
                    "dim": dim,
                    "algebra": alg,
                    "no": number,
                    "ref": ref,
                    "status": "MATCH" if match else "MISMATCH",
                }
            )
    else:  # lieframed
        cov = liesolver.lieframed_coverage(liesolver.run_ledger(args.ledger))
        rows = [
            {
                "no": c["no"],
                "dim": c["dim"],
                "algebra": str(c["algebra"]),
                "sources": "; ".join(c["sources"]),
                "status": "COVERED" if c["ok"] else "UNCOVERED",
            }
            for c in cov
        ]
        ok = all(c["ok"] for c in cov)
    payload = {
        "which": args.which,
        "rows": rows,
        "all_match": ok,
    }
    _emit(payload, rows, args)
    return EXIT_OK if ok else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _labels(*labels: modlabels.RXLabel) -> str:
    """Labels in their text form, for a check's failure message."""
    return ", ".join(f"[{modlabels.format_label(label)}]" for label in labels)


def verify_checks(quick: bool, ledger_path: str | None):
    """Yield (name, callable) pairs; callables raise on failure.

    The one list of acceptance checks: `framedlie verify` runs it and
    `tests/test_acceptance.py` makes one test of each full-mode check.
    Quick mode leaves out the three slowest censuses.
    """
    if not __debug__:  # python -O strips assert statements, which most checks still are
        raise UsageError("the verify checks are assert statements; run without python -O")
    published = {row[0]: row[1] for row in tables.TA8_ROWS}
    cases = framed.valid_params(5)

    def weight_one(case_str):
        if len(cases) != 15 or {str(c) for c in cases} != set(published):
            raise FalsificationError(
                f"m = 5 builder cases {sorted(map(str, cases))} are not the 15 published ones"
            )
        case = next(c for c in cases if str(c) == case_str)
        sub = framed.build_case(case, seed=0)
        n1, n2 = framed.profile(sub)
        closed = framed.lnumber_closed(case)
        if (n1, n2) != closed:
            raise FalsificationError(f"{case} seed 0: profile {(n1, n2)}, closed form {closed}")
        if 8 * n1 + n2 != published[case_str]:
            raise FalsificationError(
                f"{case} seed 0: weight-one value {8 * n1 + n2}, published {published[case_str]}"
            )
        got = framed.classify_triple(sub)
        if got != case:
            raise FalsificationError(f"{case} seed 0: classified as {got}")

    for case_str in published:
        yield f"weight_one_{case_str}", (lambda c=case_str: weight_one(c))

    def lnum(dim, plus):
        space = (
            quadspace.standard_plus(dim) if plus else quadspace.standard_minus(dim)
        )
        got = quadspace.singular_census(space)
        assert got == quadspace.lnum_closed(dim // 2, plus), got

    for dim in range(2, 19, 2):
        for plus in (True, False):
            name = f"lnum_{'plus' if plus else 'minus'}_{dim}"
            yield name, (lambda d=dim, p=plus: lnum(d, p))

    def label_census():
        sizes = modlabels.rx_census()
        if sizes != (1, 3, 480, 7280, 32032, 25740, 98304, 98304) or sum(sizes) != 1 << 18:
            raise FalsificationError(f"label census row sizes {sizes}")

    if not quick:
        yield "table2_census", label_census

    def minnorm_sample():
        rng = random.Random(20260810)
        n = 0
        while n < 10**4:
            lbl = modlabels.random_label(rng, twisted=False)
            if lbl.lam() == (0, 0, 0):
                continue  # the zero coset is split by sign, not by norms
            modlabels.orbit_class(lbl, verify=True)
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
        for seed in range(5):
            # runs rho_invariants, which asserts the projection identities
            data = framed.weight1_dim_pair(framed.build_pair_case(case_id, seed=seed))
            got = (data["value"], data["direct"], data["row3_in_rho1"], data["terms"])
            assert got == (value, value, row3, terms), (seed, got)

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
        formula = framed.mts_count_formula(m)
        if not report.total == formula == total:
            raise FalsificationError(
                f"m = {m} census: {report.total} subspaces, product formula {formula}, "
                f"expected {total}"
            )
        if sum(report.per_case.values()) != total:
            raise FalsificationError(
                f"m = {m} census: per-case counts {report.per_case} do not sum to {total}"
            )
        got = {c: (n, report.per_case_orbits.get(c)) for c, n in report.per_case.items()}
        if got != census_expect[m]:
            raise FalsificationError(
                f"m = {m} census: (subspaces, orbits) per case {got}, expected {census_expect[m]}"
            )
        if report.orbit_count != orbits:
            raise FalsificationError(
                f"m = {m} census: {report.orbit_count} orbits, expected {orbits}"
            )
        if not report.built_distinct:
            by_orbit: dict[int, list[str]] = {}
            for case, label in report.built_case_orbits.items():
                by_orbit.setdefault(label, []).append(case)
            shared = "; ".join(", ".join(cases) for cases in by_orbit.values() if len(cases) > 1)
            raise FalsificationError(f"m = {m} census: built cases share an orbit: {shared}")

    yield "census_m1", lambda: census(1, 30, 4)
    if not quick:
        yield "census_m2", lambda: census(2, 151470, 12)

    def orbifold():
        sub = framed.build_odd(5, 4, 0, seed=0)
        choices = framed.section47_orbifold_choices(sub, limit=3)
        if len(choices) < 3:
            raise FalsificationError(
                f"odd(5,4,0) seed 0: {len(choices)} orbifold choices, expected 3"
            )
        expect = framed.even_case(5, 3, 0, "+")
        for s0, t0, w in choices:
            got = framed.classify_triple(framed.z2_orbifold(sub, w))
            if got != expect:
                raise FalsificationError(
                    f"odd(5,4,0) seed 0: orbifold at t0 = {t0}, s0 = {s0} is {got}, not {expect}"
                )

    yield "orbifold_section47", orbifold

    def candidate_tables():
        rep = liesolver.candidate_table_report()
        assert len(rep) == 21, len(rep)
        bad = [(r["case"], r["problems"]) for r in rep if not r["ok"]]
        assert not bad, bad

    yield "lie_candidate_tables", candidate_tables

    ledger_runs = []  # one ledger run serves all three ledger checks

    def ledger_reports():
        if not ledger_runs:
            ledger_runs.append(liesolver.run_ledger(ledger_path))
        return ledger_runs[0]

    def ledger():
        bad = [(r.case_id, r.problems) for r in ledger_reports() if not r.ok]
        assert not bad, bad
        assert len(ledger_reports()) == 21, len(ledger_reports())

    yield "lie_ledger", ledger

    exact_solutions = {
        "even(5,4,1,+)": {"E8,2 B8,1"},
        "even(5,5,0,+)": {"(E8,1)^3", "D16,1 E8,1"},
        "odd(5,4,0)": {"A15,1 D9,1"},
        "pcl5_3": {"A8,2 F4,2"},
        "pcl4_3": {"C10,1 B6,1"},
    }

    def published_tables():
        by_case = {r.case_id: r for r in ledger_reports()}
        for case_id, dim, alg, number, _ in tables.TA8_ROWS + tables.TA16_ROWS:
            rep = by_case[case_id]
            got = (rep.dim_computed, str(rep.answer), rep.schellekens)
            assert _matches_published(rep, dim, alg, number), (case_id, got)
        # the exact sets follow from the dimension alone
        for rec in liesolver.load_ledger(ledger_path):
            assert not (rec.case_id in exact_solutions and rec.constraints), rec.case_id
        for case_id, solutions in exact_solutions.items():
            got = set(map(str, by_case[case_id].solutions))
            assert got == solutions, (case_id, got)

    yield "lie_published_tables", published_tables

    def coverage():
        cov = liesolver.lieframed_coverage(ledger_reports())
        assert all(c["ok"] for c in cov), [c for c in cov if not c["ok"]]
        assert len(cov) == len(tables.LIEFRAMED_ROWS) == 17, len(cov)

    yield "lie_lieframed_coverage", coverage

    def codes_rm():
        assert codes_mod.dual(codes_mod.reed_muller(1, 4)) == codes_mod.reed_muller(2, 4)

    yield "codes_rm_duality", codes_rm

    def codes_doubling():
        d = codes_mod.doubling(codes_mod.builtin("e8"))
        assert d.length == 16 and d.dim == 5
        assert codes_mod.is_triply_even(d) and codes_mod.contains_all_ones(d)

    yield "codes_doubling_e8", codes_doubling

    def codes_48():
        de8 = codes_mod.doubling(codes_mod.builtin("e8"))
        trip = codes_mod.direct_sum(codes_mod.direct_sum(de8, de8), de8)
        mixed = codes_mod.direct_sum(de8, codes_mod.doubling(codes_mod.builtin("d16plus")))
        for c in (trip, mixed):
            assert c.length == 48
            assert codes_mod.is_triply_even(c) and codes_mod.contains_all_ones(c)

    yield "codes_length48_conditions", codes_48

    def codes_d16plus():
        c = codes_mod.builtin("d16plus")
        assert codes_mod.is_self_dual(c) and codes_mod.is_doubly_even(c) and c.dim == 8

    yield "codes_d16plus", codes_d16plus

    def codes_golay():
        we = codes_mod.weight_enumerator(codes_mod.builtin("g24"))
        assert (we[0], we[8], we[12], we[16], we[24]) == (1, 759, 2576, 759, 1)
        assert sum(we) == 4096

    yield "codes_golay_enumerator", codes_golay

    def fusion_laws():
        rng = random.Random(7)
        add, zero = modlabels.rx_add, modlabels.ZERO_PLUS
        for _ in range(10**4):
            a, b, c = (modlabels.random_label(rng) for _ in range(3))
            ab = add(a, b)
            if ab != add(b, a) or add(ab, c) != add(a, add(b, c)):
                raise FalsificationError(
                    f"fusion product not commutative and associative on {_labels(a, b, c)}"
                )
            if add(a, a) != zero or add(zero, a) != a:
                raise FalsificationError(
                    f"fusion product not of exponent 2 with unit 0 on {_labels(a)}"
                )
        # the product itself, not only its laws: the sum of the lattice
        # representatives, compared bit for bit; and 0- moves every label
        for _ in range(1000):
            a, b = (modlabels.random_label(rng, twisted=False) for _ in range(2))
            ab = add(a, b)
            w = [x + y for x, y in zip(modlabels.label_to_w(a), modlabels.label_to_w(b))]
            if ab.packed != modlabels.label_from_w(w, 0, a.sign ^ b.sign).packed:
                raise FalsificationError(
                    f"fusion product is not the sum of lattice representatives on {_labels(a, b)}"
                )
            if add(modlabels.ZERO_MINUS, ab) == ab:
                raise FalsificationError(f"fusion product with 0- fixes {_labels(ab)}")

    yield "fusion_group_laws", fusion_laws

    def polarization():
        rng = random.Random(8)
        for dim in (10, 18, 28):
            space = quadspace.standard_plus(dim)
            for _ in range(500):
                a, b = rng.getrandbits(dim), rng.getrandbits(dim)
                assert space.bilinear(a, b) == space.q(a ^ b) ^ space.q(a) ^ space.q(b)

    yield "polarization_identity", polarization

    def pairings():
        rng = random.Random(9)
        pairing, chi0 = modlabels.pairing, modlabels.CHI0_PLUS
        for _ in range(500):
            lam = modlabels.random_label(rng, twisted=False)
            plus = modlabels.RXLabel(0, lam.eps, lam.c, lam.delta, 0)
            minus = modlabels.RXLabel(0, lam.eps, lam.c, lam.delta, 1)
            tw = modlabels.random_label(rng, twisted=True)
            wa = modlabels.label_to_w(plus)
            wb = modlabels.label_to_w(modlabels.random_label(rng, twisted=False))
            dot = sum(x * y for x, y in zip(wa, wb))
            b = modlabels.label_from_w(wb)
            if pairing(plus, b) != (dot // 4) % 2:
                raise FalsificationError(
                    f"pairing is not the lattice pairing on {_labels(plus, b)}"
                )
            if pairing(plus, chi0) != 0 or pairing(minus, chi0) != 1:
                raise FalsificationError(
                    f"pairing with chi0 does not read the sign on {_labels(plus)}"
                )
            if pairing(modlabels.ZERO_MINUS, tw) != 1:
                raise FalsificationError(
                    f"pairing of 0- with a twisted label is not 1 on {_labels(tw)}"
                )

    yield "label_pairings", pairings

    if not quick:

        def coords_census():
            coords = modlabels.coordinatize()
            got = quadspace.singular_census(coords.space)
            if got != (131327, 130816):
                raise FalsificationError(f"label coordinate census {got}")
            # the pair walks' row table, against the labels it stands for
            table, rng = modlabels.coordinate_row_table(), random.Random(10)
            for x in (rng.getrandbits(18) for _ in range(2000)):
                row = modlabels.orbit_class(coords.from_coords(x)).row
                if table[x] != row:
                    raise FalsificationError(
                        f"coordinate row table has row {table[x]}, not {row}, at {x}"
                    )

        yield "label_coordinates_census", coords_census

    def rv_check():
        rv = modlabels.rv_model()
        got = quadspace.singular_census(rv.space)
        if got != (527, 496):
            raise FalsificationError(f"small label census {got}")
        counts = {}
        for v in range(1 << 10):
            lw, _ = rv.lowest(v)
            counts[lw] = counts.get(lw, 0) + 1
        if counts != {Fraction(0): 1, Fraction(1): 527, Fraction(1, 2): 496}:
            raise FalsificationError(f"small label lowest weights {counts}")

    yield "small_label_classifier", rv_check

    def seeds():
        for seed in range(3):
            got = framed.weight1_dim_triple(framed.build_even(5, 4, 1, "+", seed))
            if got != 384:
                raise FalsificationError(
                    f"even(5,4,1,+) seed {seed}: weight-one value {got}, not 384"
                )
        for seed in range(2):
            got = framed.build_pair_case_weight1("pcl4_6", seed)
            if got != 72:
                raise FalsificationError(f"pcl4_6 seed {seed}: weight-one value {got}, not 72")

    yield "seed_invariance", seeds

    def roundtrips():
        sub = framed.build_even(2, 0, 0, "-", seed=0)
        assert framed.from_text(framed.to_text(sub)).sub.rows == sub.sub.rows
        code = codes_mod.builtin("g24")
        assert codes_mod.from_text(codes_mod.to_text(code)) == code
        lbl = modlabels.RXLabel(1, 0, 0b0110, 1, 1)
        assert modlabels.parse_label(modlabels.format_label(lbl)) == lbl

    yield "serialization_roundtrips", roundtrips


def cmd_verify(args) -> int:
    """Run the checks; text (the default) streams PASS/FAIL lines, and
    --format renders one record per check after the run."""
    t0 = time.time()
    checks = []
    for name, fn in verify_checks(args.quick, args.ledger):
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # report and continue: the summary decides
            status, error = "FAIL", f"{type(exc).__name__}: {exc}"
            line = f"FAIL {name}: {exc}"
        else:
            status, error, line = "PASS", None, f"PASS {name}"
        seconds = round(time.perf_counter() - start, 3)
        checks.append({"name": name, "status": status, "seconds": seconds, "error": error})
        if args.format is None:
            print(line)
    failed = sum(c["status"] == "FAIL" for c in checks)
    if args.format is None:
        print(
            f"verify: {len(checks) - failed}/{len(checks)} checks passed in "
            f"{time.time() - t0:.1f}s" + (" [quick]" if args.quick else "")
        )
    else:
        payload = {
            "quick": args.quick,
            "passed": len(checks) - failed,
            "failed": failed,
            "checks": checks,
        }
        _emit(payload, checks, args)
    return EXIT_OK if failed == 0 else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    Each subcommand stores its name as `cmd`; `main` looks `cmd_<name>` up
    on this module at call time, so the shared parser holds no function.
    """
    parser = argparse.ArgumentParser(
        prog="framedlie",
        description="GF(2) quadratic-space classification toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
        p.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("qspace", help="singular census of a standard space")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--type", choices=("plus", "minus"), required=True)
    add_common(q)
    q.set_defaults(cmd="qspace")

    f = sub.add_parser("frame", help="subspace builders and censuses")
    fsub = f.add_subparsers(dest="subcommand", required=True)

    fb = fsub.add_parser("build")
    fb.add_argument("--m", type=int, required=True)
    fb.add_argument("--k1", type=int, required=True)
    fb.add_argument("--k2", type=int, required=True)
    fb.add_argument("--type", choices=("plus", "minus"))
    add_common(fb)
    fb.set_defaults(cmd="frame_build")

    fc = fsub.add_parser("classify")
    fc.add_argument("--input", required=True, help="subspace text file, or - for stdin")
    add_common(fc)
    fc.set_defaults(cmd="frame_classify")

    fcen = fsub.add_parser("census")
    fcen.add_argument("--m", type=int, required=True)
    add_common(fcen)
    fcen.set_defaults(cmd="frame_census")

    fo = fsub.add_parser("orbifold")
    fo.add_argument("--base", required=True, help="e.g. odd:5,4,0")
    fo.add_argument("--choices", type=int, default=3)
    add_common(fo)
    fo.set_defaults(cmd="frame_orbifold")

    fp = fsub.add_parser("pair")
    fp.add_argument("--case", required=True, choices=framed.PAIR_CASE_IDS)
    add_common(fp)
    fp.set_defaults(cmd="frame_pair")

    l = sub.add_parser("lie", help="affine type identification")
    lsub = l.add_subparsers(dest="subcommand", required=True)

    ls = lsub.add_parser("solve")
    ls.add_argument("--dim", type=int, required=True)
    ls.add_argument("--constraint", action="append", default=[])
    add_common(ls)
    ls.set_defaults(cmd="lie_solve")

    ll = lsub.add_parser("ledger")
    ll.add_argument("--ledger", default=None)
    add_common(ll)
    ll.set_defaults(cmd="lie_ledger")

    lt = lsub.add_parser("tables")
    lt.add_argument("--which", required=True, choices=("ta8", "ta16", "lieframed"))
    lt.add_argument("--ledger", default=None)
    add_common(lt)
    lt.set_defaults(cmd="lie_tables")

    v = sub.add_parser("verify", help="run the acceptance checks")
    v.add_argument("--quick", action="store_true")
    v.add_argument("--ledger", default=None)
    add_common(v)
    v.set_defaults(cmd="verify", format=None)  # PASS/FAIL text unless --format

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.cmd}"](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimitError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except FalsificationError as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except BrokenPipeError:
        # the reader closed stdout; keep the interpreter's final flush quiet
        sys.stdout = open(os.devnull, "w")
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
