import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framedlie.gf2 import FalsificationError, UsageError
from framedlie.liesolver import (
    CaseRecord,
    Decomposition,
    IdealExists,
    LeveledType,
    PartitionDims,
    RootSpaceIdeal,
    RootSpacePartition,
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
            st = LeveledType(fam, n, 1)
            assert st.dim - st.rank == ROOT_COUNTS[fam](n)
    for (fam, n), roots in EXCEPTIONAL_ROOTS.items():
        st = LeveledType(fam, n, 1)
        assert st.dim - st.rank == roots


def test_naming_convention():
    with pytest.raises(UsageError, match="^B2 is outside the naming convention$"):
        LeveledType("B", 2, 1)  # reported as C2
    with pytest.raises(UsageError, match="^D3 is outside the naming convention$"):
        LeveledType("D", 3, 1)  # reported as A3
    with pytest.raises(UsageError, match="^D2 is outside the naming convention$"):
        LeveledType("D", 2, 1)
    with pytest.raises(UsageError, match="^unknown simple type E5$"):
        LeveledType("E", 5, 1)
    # a token that parses keeps the type's own message
    with pytest.raises(UsageError, match="^levels are positive integers$"):
        leveled("A3,0")
    with pytest.raises(UsageError, match="^A30 is outside the naming convention$"):
        leveled("A30,1")
    with pytest.raises(UsageError, match="^unknown simple type E9$"):
        leveled("E9,1")
    with pytest.raises(UsageError, match="^bad type token 'Ax,1'$"):
        leveled("Ax,1")


def test_decomposition_parse_and_str():
    d = parse_decomposition("D4,4 (A2,2)^4")
    assert d.total_dim == 60 and d.total_rank == 12
    assert str(d) == "D4,4 (A2,2)^4"
    assert parse_decomposition(str(d)) == d
    assert parse_decomposition("A2,2 D4,4 A2,2 A2,2 A2,2") == d


@pytest.mark.parametrize(
    "text, token",
    [
        (",2", ",2"),  # no type name
        ("(A2,1)^x", "(A2,1)^x"),
        ("D4,4 (A2,1)^0", "(A2,1)^0"),  # would drop the part
        ("(A2,1)^-2", "(A2,1)^-2"),
        ("(A1,1)^25", "(A1,1)^25"),  # more parts than a rank-24 V1 holds
    ],
)
def test_decomposition_rejects_bad_tokens(text, token):
    with pytest.raises(UsageError, match=re.escape(repr(token))):
        parse_decomposition(text)


def test_ratio_from_dim():
    assert ratio_from_dim(60) == Fraction(3, 2)
    assert ratio_from_dim(744) == 30
    assert ratio_from_dim(48) == 1
    with pytest.raises(UsageError):
        ratio_from_dim(24)


def test_candidates_need_a_positive_ratio():
    for ratio in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(UsageError, match="the ratio must be positive"):
            candidates(ratio, 100)


def test_candidates_examples():
    got = {str(c) for c in candidates(Fraction(3, 2), 60)}
    assert got == {"A2,2", "A5,4", "C2,2", "B5,6", "C5,4", "D4,4", "F4,6"}
    got = {str(c) for c in candidates(Fraction(15), 384)}
    assert got == {"A14,1", "B8,1", "E8,2"}
    got = {str(c) for c in candidates(Fraction(30), 744)}
    assert got == {"D16,1", "E8,1"}


def test_candidate_tables_regression():
    report = candidate_table_report(load_ledger())
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
        sols = decompose(dim, [])
        assert len(sols) == len(set(sols)), dim
        assert set(sols) == brute_decompositions(dim, cands), dim


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


def _ideal_reach(parts, dim, rank):
    """The reach-set check that IdealExists used before the split search."""
    reach = {(0, 0)}
    for p in parts:
        reach |= {(d + p.dim, r + p.rank) for d, r in reach if d + p.dim <= dim}
    if rank is None:
        return any(d == dim for d, _ in reach)
    return (dim, rank) in reach


def _root_ideal_reach(parts, roots):
    """The reach-set check that RootSpaceIdeal used before the split search."""
    reach = {0}
    for p in parts:
        reach |= {v + p.n_roots for v in reach if v + p.n_roots <= roots}
    return roots in reach


def _partition_backtrack(comps, targets, measure):
    """The plain backtracking search that the partition constraints used
    before the split search; measures are ints or int tuples."""

    def add(total, m):
        if isinstance(total, tuple):
            return tuple(a + b for a, b in zip(total, m))
        return total + m

    zero = (0, 0) if targets and isinstance(targets[0], tuple) else 0
    comps = sorted(comps, key=lambda p: -p.dim)

    def rec(i, fills):
        if i == len(comps):
            return all(f == t for f, t in zip(fills, targets))
        m = measure(comps[i])
        seen = set()
        for b in range(len(targets)):
            nxt = add(fills[b], m)
            if (targets[b], nxt) in seen:
                continue
            seen.add((targets[b], nxt))
            ok = (
                nxt <= targets[b]
                if not isinstance(nxt, tuple)
                else all(x <= y for x, y in zip(nxt, targets[b]))
            )
            if ok and rec(i + 1, fills[:b] + [nxt] + fills[b + 1 :]):
                return True
        return False

    return rec(0, [zero] * len(targets))


def _oracle(c, parts):
    if isinstance(c, TotalRank):
        return sum(p.rank for p in parts) == c.value
    if isinstance(c, IdealExists):
        return _ideal_reach(parts, c.dim, c.rank)
    if isinstance(c, RootSpaceIdeal):
        return _root_ideal_reach(parts, c.roots)
    if isinstance(c, RootSpacePartition):
        return _partition_backtrack(parts, list(c.parts), lambda p: p.n_roots)
    return _partition_backtrack(parts, list(c.blocks), lambda p: (p.dim, p.rank))


def test_split_search_matches_old_checks_on_ledger():
    checks = 0
    for rec in load_ledger():
        for dec in decompose(rec.dim, []):
            for c in rec.constraints:
                assert c.check(dec.parts) == _oracle(c, dec.parts), (rec.case_id, str(dec), c)
                checks += 1
    assert checks == 202


def test_ideal_larger_than_every_component_sum():
    # the second block [total - want] is negative and stays unfilled
    d = parse_decomposition("(A1,2)^16")  # 32 roots, dimension 48, rank 16
    for c in (RootSpaceIdeal(56), IdealExists(49), IdealExists(48, 17), IdealExists(30, 40)):
        assert not c.check(d.parts) and not _oracle(c, d.parts), c


def test_impossible_root_split_finishes():
    # the root counts 8+12+30+30 exceed every dimension-48 candidate total,
    # so the sum check rejects each split before any search
    assert decompose(48, [RootSpacePartition((8, 12, 30, 30))]) == []


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


def test_expected_set_needs_an_answer():
    rec = CaseRecord("pcl4_6", "ta16", 72, 1)
    with pytest.raises(FalsificationError, match="case pcl4_6: no answer to expect"):
        rec.expected_set()
    rec.answer = parse_decomposition("A2,1")
    assert rec.expected_set() == {rec.answer}


def test_ledger_rejects_bad_text():
    with pytest.raises(UsageError):
        parse_ledger("case x\ndim 60\n")  # unterminated record
    with pytest.raises(UsageError):
        parse_ledger("dim 60\n")  # field outside record
    bad = "case x\ntable ta8\ndim 60\nschellekens 1\nanswer A2,2\nuniqueness arithmetic\nend\n"
    with pytest.raises(UsageError):
        parse_ledger(bad)  # answer dimension off
    bad = "case even(5,1,0)\ntable ta8\ndim 60\nschellekens 13\nanswer D4,4 (A2,2)^4\nuniqueness arithmetic\nend\n"
    with pytest.raises(UsageError, match=r"^ledger line 1: case even\(5,1,0\): not a pair case, and "):
        parse_ledger(bad)  # neither a pair id nor a builder case: the sign is missing


def test_ledger_error_keeps_record_message():
    text = Path(default_ledger_path()).read_text(encoding="utf-8")
    bad = text.replace("answer C10,1 B6,1", "answer (A10,1)^2 B6,1")  # pcl4_3, dim 318
    # a record-level error points at the record's 'case' line
    message = r"^ledger line 162: case pcl4_3: answer dimension is off$"
    with pytest.raises(UsageError, match=message):
        parse_ledger(bad)


def test_corrupted_ledger_detected():
    records = parse_ledger(Path(default_ledger_path()).read_text(encoding="utf-8"))
    target = next(r for r in records if r.case_id == "even(5,4,1,+)")
    target.answer = parse_decomposition("(B8,1)^2 A14,1")  # dim 496: wrong on purpose
    target.dim = 496
    rep = run_case(target)  # computes 384
    assert not rep.ok
    assert any("computed dimension" in p for p in rep.problems)

    target2 = next(r for r in records if r.case_id == "pcl5_3")
    target2.answer = parse_decomposition("B5,2 B5,2 A2,2")  # not a valid solution
    rep2 = run_case(target2)  # computes 132
    assert not rep2.ok
    assert any("not a solver output" in p for p in rep2.problems)


LEDGER_LINES = Path(default_ledger_path()).read_text(encoding="utf-8").splitlines()
FIELD_LINES = [i for i, ln in enumerate(LEDGER_LINES) if ln.strip() and not ln.startswith("#")]


def _first_line(prefix):
    return next(i for i, ln in enumerate(LEDGER_LINES) if ln.startswith(prefix))


@settings(deadline=None, max_examples=100)
@given(
    i=st.sampled_from(FIELD_LINES),
    j=st.integers(0, 15),
    op=st.sampled_from(["drop", "duplicate", "truncate"]),
    cut=st.integers(0, 40),
)
@example(i=_first_line("constraint ideal"), j=1, op="truncate", cut=6)  # ideal:
@example(i=_first_line("constraint rootideal"), j=1, op="truncate", cut=9)  # rootideal
def test_mutated_ledger_parses_or_raises_usage_error(i, j, op, cut):
    # a comment is one token: mutating the words inside it changes nothing parsed
    head, sep, comment = LEDGER_LINES[i].partition(" #")
    toks = head.split() + ([sep.strip() + comment] if sep else [])
    j %= len(toks)
    if op == "drop":
        del toks[j]
    elif op == "duplicate":
        toks.insert(j, toks[j])
    else:
        toks[j] = toks[j][: cut % len(toks[j])]
    lines = list(LEDGER_LINES)
    lines[i] = " ".join(toks)
    try:
        assert parse_ledger("\n".join(lines))
    except UsageError:
        pass
