from fractions import Fraction

import pytest

from framedlie.gf2 import UsageError
from framedlie.liesolver import (
    Decomposition,
    IdealExists,
    PartitionDims,
    RootSpaceIdeal,
    RootSpacePartition,
    SimpleType,
    TotalRank,
    candidates,
    candidate_table_report,
    decompose,
    default_ledger_path,
    leveled,
    load_ledger,
    parse_decomposition,
    parse_ledger,
    ratio_from_dim,
    run_case,
)


ROOT_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
}
EXCEPTIONAL_ROOTS = {("E", 6): 72, ("E", 7): 126, ("E", 8): 240, ("F", 4): 48, ("G", 2): 12}


def test_simple_type_data():
    for fam, lo in (("A", 1), ("B", 3), ("C", 2), ("D", 4)):
        for n in range(lo, 25):
            st = SimpleType(fam, n)
            assert st.dim - st.rank == ROOT_COUNTS[fam](n)
    for (fam, n), roots in EXCEPTIONAL_ROOTS.items():
        st = SimpleType(fam, n)
        assert st.dim - st.rank == roots


def test_naming_convention():
    with pytest.raises(UsageError):
        SimpleType("B", 2)  # reported as C2
    with pytest.raises(UsageError):
        SimpleType("D", 3)  # reported as A3
    with pytest.raises(UsageError):
        SimpleType("D", 2)
    with pytest.raises(UsageError):
        SimpleType("E", 5)
    with pytest.raises(UsageError):
        leveled("A3,0")


def test_decomposition_parse_and_str():
    d = parse_decomposition("D4,4 (A2,2)^4")
    assert d.total_dim == 60 and d.total_rank == 12
    assert str(d) == "D4,4 (A2,2)^4"
    assert parse_decomposition(str(d)) == d
    assert parse_decomposition("A2,2 D4,4 A2,2 A2,2 A2,2") == d


def test_ratio_from_dim():
    assert ratio_from_dim(60) == Fraction(3, 2)
    assert ratio_from_dim(744) == 30
    assert ratio_from_dim(48) == 1
    with pytest.raises(UsageError):
        ratio_from_dim(24)


def test_candidates_examples():
    got = {str(c) for c in candidates(Fraction(3, 2), 60)}
    assert got == {"A2,2", "A5,4", "C2,2", "B5,6", "C5,4", "D4,4", "F4,6"}
    got = {str(c) for c in candidates(Fraction(15), 384)}
    assert got == {"A14,1", "B8,1", "E8,2"}
    got = {str(c) for c in candidates(Fraction(30), 744)}
    assert got == {"D16,1", "E8,1"}


def test_candidate_tables_regression():
    report = candidate_table_report()
    assert len(report) == 21
    for row in report:
        assert row["ok"], (row["case"], row["problems"])
        # printed rows are always a subset of the computed set
        assert set(row["printed"]) <= set(row["computed"])
    extras = {row["case"]: row["extra"] for row in report if row["extra"]}
    assert extras == {"pcl4_3": ["D12,2"]}


def test_decompose_examples():
    sols = decompose(60, [IdealExists(28, 4)])
    assert [str(s) for s in sols] == ["D4,4 (A2,2)^4"]
    sols = decompose(384, [])
    assert [str(s) for s in sols] == ["E8,2 B8,1"]
    sols = decompose(744, [])
    assert {str(s) for s in sols} == {"(E8,1)^3", "D16,1 E8,1"}


def brute_decompositions(dim, cands):
    out = set()

    def rec(i, rem, acc):
        if rem == 0:
            if sum(p.rank for p in acc) <= 24:
                out.add(Decomposition(acc))
            return
        if i == len(cands) or rem < 0:
            return
        c = cands[i]
        for k in range(rem // c.dim + 1):
            rec(i + 1, rem - k * c.dim, acc + [c] * k)

    rec(0, dim, [])
    return out


def test_decompose_complete_vs_bruteforce():
    for dim in (60, 84, 132, 192, 216, 240, 288, 384, 408, 456, 744):
        cands = candidates(ratio_from_dim(dim), dim)
        if len(cands) > 10:
            continue
        assert set(decompose(dim, [])) == brute_decompositions(dim, cands), dim


def test_constraints():
    d = parse_decomposition("E7,2 B5,1 F4,1")
    assert TotalRank(16).check(d.parts)
    assert not TotalRank(15).check(d.parts)
    assert IdealExists(133, 7).check(d.parts)
    assert IdealExists(107).check(d.parts)  # B5,1 + F4,1
    assert not IdealExists(100).check(d.parts)
    assert RootSpaceIdeal(126).check(d.parts)
    assert not RootSpaceIdeal(127).check(d.parts)
    d2 = parse_decomposition("(A5,2)^2 C2,1 (A2,1)^2")
    assert RootSpacePartition((8, 12, 30, 30)).check(d2.parts)
    assert not RootSpacePartition((8, 12, 29, 31)).check(d2.parts)
    d3 = parse_decomposition("(A3,4)^3 A1,2")
    assert PartitionDims(((3, 1), (15, 3), (15, 3), (15, 3))).check(d3.parts)
    assert not PartitionDims(((3, 1), (15, 3), (15, 3), (15, 4))).check(d3.parts)


def test_ledger_loads_and_validates():
    records = load_ledger()
    assert len(records) == 21
    ids = [r.case_id for r in records]
    assert len(set(ids)) == 21
    by_table = {"ta8": 0, "ta16": 0}
    for rec in records:
        by_table[rec.table] += 1
        assert rec.answer.total_dim == rec.dim
    assert by_table == {"ta8": 15, "ta16": 6}


def test_ledger_rejects_bad_text():
    with pytest.raises(UsageError):
        parse_ledger("case x\ndim 60\n")  # unterminated record
    with pytest.raises(UsageError):
        parse_ledger("dim 60\n")  # field outside record
    bad = "case x\ntable ta8\ndim 60\nschellekens 1\nanswer A2,2\nuniqueness arithmetic\nend\n"
    with pytest.raises(UsageError):
        parse_ledger(bad)  # answer dimension off


def test_ledger_error_keeps_record_message():
    text = open(default_ledger_path()).read()
    bad = text.replace("answer C10,1 B6,1", "answer (A10,1)^2 B6,1")  # pcl4_3, dim 318
    # the record is checked at its 'end' line
    message = r"^ledger line \d+: case pcl4_3: answer dimension is off$"
    with pytest.raises(UsageError, match=message):
        parse_ledger(bad)


def test_corrupted_ledger_detected():
    records = parse_ledger(open(default_ledger_path()).read())
    target = next(r for r in records if r.case_id == "even(5,4,1,+)")
    target.answer = parse_decomposition("(B8,1)^2 A14,1")  # dim 496: wrong on purpose
    target.dim = 496
    rep = run_case(target, computed_dim=384)
    assert not rep.ok
    assert any("computed dimension" in p for p in rep.problems)

    target2 = next(r for r in records if r.case_id == "pcl5_3")
    target2.answer = parse_decomposition("B5,2 B5,2 A2,2")  # not a valid solution
    rep2 = run_case(target2, computed_dim=132)
    assert not rep2.ok
    assert any("not a solver output" in p for p in rep2.problems)
