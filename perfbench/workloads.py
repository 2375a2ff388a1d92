"""Workload definitions: the ops of one pass and the oracle for each op.

An op is one ``framedlie`` command run in-process through ``cli.main``
with its stdout captured and its JSON checked, or, where the CLI cannot
express the work, the public library call the command would make.  The
workload seed picks each op's builder ``--seed`` and the op order; the
package sees only the generated argv.

Every oracle compares against values the repository already holds:
closed forms in the package, the published tables in ``tables``, the
ledger file, and the constants the ``verify`` command asserts.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from framedlie import cli, framed, liesolver, modlabels, quadspace, tables

WORKLOADS = ("frames", "labels", "census")

# Builder seeds are drawn from this range; any seed must give the same values.
BUILDER_SEEDS = 1000

# (weight-one dimension, row-3 count of the full X projection) per pair case,
# as asserted by `framedlie verify`.
PAIR_EXPECT = {
    "pcl5_3": (132, 36),
    "pcl4_3": (288, 192),
    "pcl4_4": (216, 144),
    "pcl4_5": (144, 96),
    "pcl4_6": (72, 48),
    "niemeier_a17e7": (456, 144),
}

# Singular census of the 18-dimensional label coordinates, from `verify`.
COORDS_CENSUS = (131327, 130816)

# Each m=5 case is built at several builder seeds: the ledger's values rest
# on these builds, and their 40-60 ms ops give frames a steady median.
M5_SEEDS = 3
# Each pair case is walked at several builder seeds, whose latencies
# differ; the tail of labels falls among the slowest walks.
PAIR_SEEDS = 4
# Fixed ledger records, so the seed changes no op in the mix, only builder
# seeds and order.  odd(5,1,1) is left out: its solve alone takes 0.25-0.5 s
# and would sit between the walks and the heavy ops; the ledger op still
# solves it.
LIE_SOLVE_CASES = ("even(5,1,0,+)", "even(5,2,1,-)", "odd(5,0,0)", "pcl4_6", "niemeier_a17e7")
# The qspace sweep takes about 0.2 s beside the 14 s m=2 census; it runs
# several times per pass so its millisecond ops give a steady median.
QSPACE_SWEEPS = 8
MINNORM_SAMPLE = 10**4
# Min-norm decode samples from the verify sample down, each a factor
# 2**(1/13) smaller, so their latencies spread evenly on a log scale; the
# median op of labels falls among them.  The median of a few narrow clusters
# of latencies jumps between the clusters' fast and slow values as the speed
# of a shared host drifts; a median inside an even spread moves only in
# proportion.
DECODE_SIZES = tuple(round(MINNORM_SAMPLE * 2 ** (-j / 13)) for j in range(60))


class OpFailure(Exception):
    """An op's output disagrees with its known value."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise OpFailure(what)


def _cli(argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return run


def _json_ok(result: tuple[int, str]) -> dict:
    code, text = result
    _expect(code == cli.EXIT_OK, f"exit code {code}")
    return json.loads(text)


# ---------------------------------------------------------------------------
# frames: per-case triple-ambient builds and classification
# ---------------------------------------------------------------------------


def _frame_build_op(case: framed.TCCase, seed: int, published: dict) -> Op:
    argv = ["frame", "build", "--m", str(case.m), "--k1", str(case.k1), "--k2", str(case.k2)]
    if case.kind == "even":
        argv += ["--type", "plus" if case.eps == "+" else "minus"]
    argv += ["--seed", str(seed)]
    closed = list(framed.lnumber_closed(case))

    def check(result) -> None:
        p = _json_ok(result)
        _expect(p["case"] == str(case), f"case {p['case']}")
        _expect(p["profile"] == closed == p["profile_closed_form"], f"profile {p['profile']}")
        _expect(p["classified"] == str(case), f"classified {p['classified']}")
        _expect(p["weight1"] == 8 * closed[0] + closed[1], f"weight1 {p['weight1']}")
        if str(case) in published:
            _expect(p["weight1"] == published[str(case)], "published weight-one value")

    return Op(f"frame_build_{case}", _cli(argv), check)


def _build_only_op(case: framed.TCCase, seed: int) -> Op:
    # build_case validates the result (half-dimensional, totally singular,
    # self-perpendicular) and raises otherwise
    def check(sub) -> None:
        _expect(isinstance(sub.ambient, framed.TripleAmbient), "ambient")
        _expect(sub.ambient.m == case.m and sub.dim == 3 * case.m, f"dim {sub.dim}")

    return Op(f"build_case_{case}", lambda: framed.build_case(case, seed=seed), check)


def _orbifold_op(seed: int) -> Op:
    target = str(framed.even_case(5, 3, 0, "+"))

    def check(result) -> None:
        rows = _json_ok(result)["results"]
        _expect(len(rows) == 3, f"{len(rows)} orbifold choices")
        _expect(all(r["classified"] == target for r in rows), "orbifold classification")

    argv = ["frame", "orbifold", "--base", "odd:5,4,0", "--seed", str(seed)]
    return Op("frame_orbifold_odd540", _cli(argv), check)


def frames_ops(rng: random.Random) -> list[Op]:
    published = {row[0]: row[1] for row in tables.TA8_ROWS}
    ops = [
        _frame_build_op(case, rng.randrange(BUILDER_SEEDS), published)
        for m, repeats in ((5, M5_SEEDS), (6, 1))
        for case in framed.valid_params(m)
        for _ in range(repeats)
    ]
    ops += [_build_only_op(case, rng.randrange(BUILDER_SEEDS)) for case in framed.valid_params(10)]
    ops.append(_orbifold_op(rng.randrange(BUILDER_SEEDS)))
    return ops


# ---------------------------------------------------------------------------
# labels: walks over the 2^18-element label group and the Lie ledger
# ---------------------------------------------------------------------------


def _pair_op(case_id: str, seed: int) -> Op:
    value, row3 = PAIR_EXPECT[case_id]

    def check(result) -> None:
        p = _json_ok(result)
        _expect(p["weight1_direct"] == p["weight1_formula"] == value, f"weight1 {p['weight1_direct']}")
        _expect(sum(p["terms"]) == value, f"terms {p['terms']}")
        _expect(p["row3_in_rho1"] == row3, f"row3 {p['row3_in_rho1']}")

    return Op(f"frame_pair_{case_id}", _cli(["frame", "pair", "--case", case_id, "--seed", str(seed)]), check)


def _ledger_op(records: list, seed: int) -> Op:
    dims = {r.case_id: r.dim for r in records}

    def check(result) -> None:
        p = _json_ok(result)
        _expect(p["all_match"] is True, "ledger all_match")
        got = {c["case"]: (c["dim"], c["status"]) for c in p["cases"]}
        _expect(got == {k: (d, "MATCH") for k, d in dims.items()}, "ledger rows")

    return Op("lie_ledger", _cli(["lie", "ledger", "--seed", str(seed)]), check)


def _lieframed_op(seed: int) -> Op:
    expected = [(no, dim) for no, dim, _ in tables.LIEFRAMED_ROWS]

    def check(result) -> None:
        p = _json_ok(result)
        _expect(p["all_match"] is True, "lieframed all_match")
        _expect([(r["no"], r["dim"]) for r in p["rows"]] == expected, "lieframed rows")
        _expect(all(r["status"] == "COVERED" for r in p["rows"]), "lieframed coverage")

    argv = ["lie", "tables", "--which", "lieframed", "--seed", str(seed)]
    return Op("lie_tables_lieframed", _cli(argv), check)


def _constraint_token(c) -> str:
    if isinstance(c, liesolver.TotalRank):
        return f"rank:{c.value}"
    if isinstance(c, liesolver.IdealExists):
        return f"ideal:{c.dim}" + ("" if c.rank is None else f":{c.rank}")
    if isinstance(c, liesolver.RootSpaceIdeal):
        return f"rootideal:{c.roots}"
    if isinstance(c, liesolver.RootSpacePartition):
        return "rootpart:" + ",".join(map(str, c.parts))
    if isinstance(c, liesolver.PartitionDims):
        return "partition:" + ",".join(f"{d}/{r}" for d, r in c.blocks)
    raise TypeError(f"no CLI token for {c!r}")


def _solve_op(rec, seed: int) -> Op:
    argv = ["lie", "solve", "--dim", str(rec.dim), "--seed", str(seed)]
    for c in rec.constraints:
        argv += ["--constraint", _constraint_token(c)]
    expected = rec.expected_set()

    def check(result) -> None:
        sols = {liesolver.parse_decomposition(s) for s in _json_ok(result)["solutions"]}
        _expect(sols == expected, f"solution set of {rec.case_id}")

    return Op(f"lie_solve_{rec.case_id}", _cli(argv), check)


def _rx_census_op() -> Op:
    def check(got) -> None:
        _expect(tuple(got) == modlabels.TABLE_ROW_SIZES and sum(got) == 1 << 18, f"census {got}")

    return Op("rx_census", lambda: modlabels.rx_census(), check)


def _minnorm_op(seed: int, size: int) -> Op:
    """The min-norm decode sample of `verify` at `size` labels, seeded from
    the workload."""

    def run() -> int:
        rng = random.Random(seed)
        n = 0
        while n < size:
            lbl = modlabels.random_label(rng, twisted=False)
            if lbl.lam() == (0, 0, 0):
                continue  # the zero coset is split by sign, not by norms
            modlabels.orbit_class(lbl, verify=True)  # raises on disagreement
            n += 1
        return n

    return Op(f"minnorm_{size}", run, lambda n: _expect(n == size, f"{n} labels"))


def labels_ops(rng: random.Random) -> list[Op]:
    ledger_text = Path(liesolver.default_ledger_path()).read_text(encoding="utf-8")
    records = liesolver.parse_ledger(ledger_text)
    ops = [_pair_op(c, rng.randrange(BUILDER_SEEDS)) for c in framed.PAIR_CASE_IDS for _ in range(PAIR_SEEDS)]
    ops.append(_ledger_op(records, rng.randrange(BUILDER_SEEDS)))
    ops.append(_lieframed_op(rng.randrange(BUILDER_SEEDS)))
    by_case = {rec.case_id: rec for rec in records}
    ops += [_solve_op(by_case[c], rng.randrange(BUILDER_SEEDS)) for c in LIE_SOLVE_CASES]
    ops.append(_rx_census_op())
    ops += [_minnorm_op(rng.randrange(1 << 32), size) for size in DECODE_SIZES]
    return ops


# ---------------------------------------------------------------------------
# census: exhaustive censuses
# ---------------------------------------------------------------------------


def _frame_census_op(m: int, seed: int) -> Op:
    total = framed.mts_count_formula(m)

    def check(result) -> None:
        p = _json_ok(result)
        _expect(p["total"] == p["product_formula"] == total, f"total {p['total']}")
        _expect(sum(p["per_case"].values()) == total, "per-case counts")
        _expect(p["built_cases_in_distinct_orbits"] is True, "built cases share an orbit")

    return Op(f"frame_census_m{m}", _cli(["frame", "census", "--m", str(m), "--seed", str(seed)]), check)


def _qspace_op(dim: int, kind: str, seed: int) -> Op:
    expected = list(quadspace.lnum_closed(dim // 2, kind == "plus"))

    def check(result) -> None:
        p = _json_ok(result)
        got = [p["singular_nonzero"], p["nonsingular"]]
        _expect(got == expected and p["closed_form_match"] is True, f"census {got}")
        _expect(p["arf_type"] == kind, f"type {p['arf_type']}")

    argv = ["qspace", "--dim", str(dim), "--type", kind, "--seed", str(seed)]
    return Op(f"qspace_{kind}_{dim}", _cli(argv), check)


def _coords_census_op() -> Op:
    def run():
        return quadspace.singular_census(modlabels.coordinatize().space)

    return Op("coords_census", run, lambda got: _expect(got == COORDS_CENSUS, f"census {got}"))


def census_ops(rng: random.Random) -> list[Op]:
    ops = [_frame_census_op(m, rng.randrange(BUILDER_SEEDS)) for m in (1, 2)]
    ops += [
        _qspace_op(dim, kind, rng.randrange(BUILDER_SEEDS))
        for _ in range(QSPACE_SWEEPS)
        for dim in range(2, 19, 2)
        for kind in ("plus", "minus")
    ]
    ops.append(_coords_census_op())
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    """The ops of one pass, in the order the seed gives them."""
    rng = random.Random(f"{workload}:{seed}")
    ops = {"frames": frames_ops, "labels": labels_ops, "census": census_ops}[workload](rng)
    rng.shuffle(ops)
    return ops
