"""Affine Lie algebra identification from weight-one dimensions.

The dimension of a semisimple weight-one algebra fixes the common ratio
(dual Coxeter number)/(level) of its simple parts to (dim - 24)/24; levels
must be positive integers.  Candidate generation enumerates the leveled
simple types meeting the ratio within a dimension budget, and the solver
searches multisets of candidates adding up to the full dimension under
declarative per-case constraints shipped in a ledger data file.

Ledger schema (plain text, one record per case; '#' starts a comment
anywhere on a line):

    case <case-id>            a pair id, or a builder case as str(TCCase) prints it
    table <ta8|ta16>
    dim <int>                 published weight-one dimension
    schellekens <int>         row number in the reference list
    constraint <token>        one `lie solve --constraint` token (below)
    answer <algebra>          the published structure
    also <algebra>            other members of the exact solution set
    uniqueness <arithmetic|ledger-asserted|identification-only>
    identified <text>         lattice-model identification, when published
    end

Constraint tokens: rank:R, ideal:DIM[:RANK], rootideal:ROOTS,
rootpart:V1,V2,... and partition:D1/R1,D2/R2,...  Each is a fact about a
solution's simple components.  `rank` fixes their rank sum; `ideal` and
`rootideal` ask for some sub-multiset with that dim (and rank) or root
count.  `rootpart` and `partition` use every component, in exactly the
listed blocks; block sums that differ from the components' sum are
rejected before any search.

All rationals are exact; no floating point enters this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .gf2 import FalsificationError, UsageError

MAX_TOTAL_RANK = 24

_FAMILY_RANGES = {"A": (1, 24), "B": (3, 24), "C": (2, 24), "D": (4, 24)}
_EXCEPTIONAL = {  # (family, rank) -> (dim, h_vee)
    ("E", 6): (78, 12), ("E", 7): (133, 18), ("E", 8): (248, 30),
    ("F", 4): (52, 9), ("G", 2): (14, 4),
}


@dataclass(frozen=True, order=True)
class LeveledType:
    family: str
    rank: int
    level: int

    def __post_init__(self) -> None:
        if self.family in _FAMILY_RANGES:
            lo, hi = _FAMILY_RANGES[self.family]
            if not lo <= self.rank <= hi:
                raise UsageError(f"{self.family}{self.rank} is outside the naming convention")
        elif (self.family, self.rank) not in _EXCEPTIONAL:
            raise UsageError(f"unknown simple type {self.family}{self.rank}")
        if self.level < 1:
            raise UsageError("levels are positive integers")

    @property
    def dim(self) -> int:
        n = self.rank
        if self.family == "A":
            return n * (n + 2)
        if self.family in ("B", "C"):
            return n * (2 * n + 1)
        if self.family == "D":
            return n * (2 * n - 1)
        return _EXCEPTIONAL[self.family, n][0]

    @property
    def h_vee(self) -> int:
        n = self.rank
        if self.family in ("A", "C"):
            return n + 1
        if self.family == "B":
            return 2 * n - 1
        if self.family == "D":
            return 2 * n - 2
        return _EXCEPTIONAL[self.family, n][1]

    @property
    def n_roots(self) -> int:
        return self.dim - self.rank

    def __str__(self) -> str:
        return f"{self.family}{self.rank},{self.level}"


def leveled(token: str) -> LeveledType:
    """Parse one 'A8,2'-style token."""
    name, _, lvl = token.partition(",")
    if not lvl:
        raise UsageError(f"missing level in {token!r}")
    try:
        rank, level = int(name[1:]), int(lvl)
    except ValueError as exc:
        raise UsageError(f"bad type token {token!r}") from exc
    return LeveledType(name[:1], rank, level)


class Decomposition:
    """A multiset of leveled simple types, held, compared and hashed as its
    canonically sorted parts."""

    def __init__(self, parts: Iterable[LeveledType]):
        self.parts = tuple(sorted(parts, key=lambda p: (-p.dim, str(p))))

    @property
    def total_dim(self) -> int:
        return sum(p.dim for p in self.parts)

    @property
    def total_rank(self) -> int:
        return sum(p.rank for p in self.parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Decomposition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __str__(self) -> str:
        return " ".join(
            f"({part})^{mult}" if (mult := len(list(group))) > 1 else str(part)
            for part, group in itertools.groupby(self.parts)
        )


def parse_decomposition(text: str) -> Decomposition:
    parts: list[LeveledType] = []
    for token in text.split():
        if token.startswith("("):
            body, _, mult = token[1:].partition(")^")
            try:
                n = int(mult)
            except ValueError:
                n = 0
            # every part has rank >= 1, and a V1 has rank at most MAX_TOTAL_RANK
            if not 1 <= n <= MAX_TOTAL_RANK:
                raise UsageError(f"bad multiplicity token {token!r}")
            parts.extend([leveled(body)] * n)
        else:
            parts.append(leveled(token))
    if not parts:
        raise UsageError("empty decomposition")
    return Decomposition(parts)


def ratio_from_dim(dim_v1: int) -> Fraction:
    """(dim - 24)/24: the forced ratio h_vee/level of every simple part."""
    if dim_v1 <= 24:
        raise UsageError(
            "dimension at most 24 is the abelian-or-zero branch; no candidates"
        )
    return Fraction(dim_v1 - 24, 24)


def candidates(ratio: Fraction, dim_budget: int) -> list[LeveledType]:
    """All leveled simple types with h_vee/level == ratio and dim <= budget."""
    if ratio <= 0:
        raise UsageError("the ratio must be positive")
    out = []
    types = [(fam, n) for fam, (lo, hi) in _FAMILY_RANGES.items() for n in range(lo, hi + 1)]
    for fam, n in types + sorted(_EXCEPTIONAL):
        st = LeveledType(fam, n, 1)
        level = Fraction(st.h_vee) / ratio
        if level.denominator != 1 or level < 1:
            continue
        if st.dim <= dim_budget:
            out.append(LeveledType(fam, n, int(level)))
    out.sort(key=lambda lt: (-lt.dim, str(lt)))
    return out


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TotalRank:
    value: int

    def check(self, parts: Sequence[LeveledType]) -> bool:
        return sum(p.rank for p in parts) == self.value


@dataclass(frozen=True)
class IdealExists:
    dim: int
    rank: int | None = None

    def check(self, parts: Sequence[LeveledType]) -> bool:
        if self.rank is None:
            return _ideal_exists([(p.dim,) for p in parts], (self.dim,))
        return _ideal_exists([(p.dim, p.rank) for p in parts], (self.dim, self.rank))


@dataclass(frozen=True)
class RootSpaceIdeal:
    roots: int

    def check(self, parts: Sequence[LeveledType]) -> bool:
        return _ideal_exists([(p.n_roots,) for p in parts], (self.roots,))


@dataclass(frozen=True)
class RootSpacePartition:
    parts: tuple[int, ...]

    def check(self, comps: Sequence[LeveledType]) -> bool:
        return _split_exists([(p.n_roots,) for p in comps], [(v,) for v in self.parts])


@dataclass(frozen=True)
class PartitionDims:
    blocks: tuple[tuple[int, int], ...]  # (dim, rank) per block

    def check(self, comps: Sequence[LeveledType]) -> bool:
        return _split_exists([(p.dim, p.rank) for p in comps], self.blocks)


Constraint = TotalRank | IdealExists | RootSpaceIdeal | RootSpacePartition | PartitionDims


def parse_constraint(token: str) -> Constraint:
    """One constraint token, as `lie solve --constraint` and the ledger's
    `constraint` lines write it.  Constraint values count dimensions, ranks
    or roots, so none may be negative."""

    def counts(parts: list[str]) -> list[int]:
        try:
            values = [int(x) for x in parts]
        except ValueError:
            raise UsageError(f"expected integers in {token!r}") from None
        for v in values:
            if v < 0:
                raise UsageError(f"constraint values are non-negative counts, got {v}")
        return values

    kind, _, rest = token.partition(":")
    if kind == "rank":
        return TotalRank(*counts([rest]))
    if kind == "ideal":
        bits = counts(rest.split(":"))
        if len(bits) > 2:
            raise UsageError(f"ideal takes dim or dim:rank: {token!r}")
        return IdealExists(bits[0], bits[1] if len(bits) > 1 else None)
    if kind == "rootideal":
        return RootSpaceIdeal(*counts([rest]))
    if kind == "rootpart":
        return RootSpacePartition(tuple(counts(rest.split(","))))
    if kind == "partition":
        blocks = [b.split("/") for b in rest.split(",")]
        if any(len(b) != 2 for b in blocks):
            raise UsageError(f"partition blocks are dim/rank: {token!r}")
        return PartitionDims(tuple(tuple(counts(b)) for b in blocks))
    raise UsageError(f"unknown constraint {token!r}")


def _ideal_exists(measures: list[tuple[int, ...]], want: tuple[int, ...]) -> bool:
    """Some sub-multiset of measures sums to want: the split [want, total - want]."""
    rest = tuple(sum(m[k] for m in measures) - w for k, w in enumerate(want))
    return _split_exists(measures, [want, rest])


def _split_exists(measures: list[tuple[int, ...]], targets: Sequence[tuple[int, ...]]) -> bool:
    """Can the measures (nonnegative int tuples) be split into blocks whose
    sums are exactly targets, each measure in one block?  Failed states are
    memoized on (index, sorted (target, fill) pairs), so interchangeable
    blocks are one state."""
    width = len(targets[0]) if targets else 0
    if any(sum(m[k] for m in measures) != sum(t[k] for t in targets) for k in range(width)):
        return False
    measures = sorted(measures, reverse=True)
    failed: set = set()

    def rec(i: int, state: tuple) -> bool:
        if i == len(measures):
            return all(target == fill for target, fill in state)
        if (i, state) in failed:
            return False
        m = measures[i]
        for b, (target, fill) in enumerate(state):
            if b and state[b - 1] == (target, fill):
                continue
            nxt = tuple(f + x for f, x in zip(fill, m))
            if all(f <= t for f, t in zip(nxt, target)) and rec(
                i + 1, tuple(sorted(state[:b] + ((target, nxt),) + state[b + 1 :]))
            ):
                return True
        failed.add((i, state))
        return False

    zero = (0,) * width
    return rec(0, tuple(sorted((t, zero) for t in targets)))


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


def decompose(dim_v1: int, constraints: Sequence[Constraint] = ()) -> list[Decomposition]:
    """Every multiset of ratio-compatible types of total dimension dim_v1.

    Complete depth-first search with dimension and rank pruning; the start
    index never moves back, so each multiset of the distinct candidates is
    met once.  The result list is canonically ordered.
    """
    cands = candidates(ratio_from_dim(dim_v1), dim_v1)
    out: list[Decomposition] = []
    chosen: list[LeveledType] = []
    min_dim = min((c.dim for c in cands), default=0)

    def rec(start: int, remaining: int, rank: int) -> None:
        if remaining == 0:
            dec = Decomposition(chosen)
            if all(c.check(dec.parts) for c in constraints):
                out.append(dec)
            return
        if remaining < min_dim:
            return
        for i in range(start, len(cands)):
            c = cands[i]
            if c.dim > remaining or rank + c.rank > MAX_TOTAL_RANK:
                continue
            chosen.append(c)
            rec(i, remaining - c.dim, rank + c.rank)
            chosen.pop()

    rec(0, dim_v1, 0)
    out.sort(key=lambda d: tuple(str(p) for p in d.parts))
    return out


# ---------------------------------------------------------------------------
# the case ledger
# ---------------------------------------------------------------------------


@dataclass
class CaseRecord:
    case_id: str
    table: str
    dim: int
    schellekens: int
    constraints: list[Constraint] = field(default_factory=list)
    answer: Decomposition | None = None
    also: list[Decomposition] = field(default_factory=list)
    uniqueness: str = ""
    identified: str | None = None
    # what case_id names, set by _validate_record: a pair case id or a TCCase
    case: object = field(default=None, init=False, compare=False, repr=False)

    def expected_set(self) -> set[Decomposition]:
        if self.answer is None:
            raise FalsificationError(f"case {self.case_id}: no answer to expect")
        return {self.answer, *self.also}


def default_ledger_path() -> str:
    import importlib.resources

    return str(importlib.resources.files("framedlie").joinpath("data/cases.ledger"))


# fields that take exactly this many whitespace-separated values
_ARITY = {
    "case": 1, "table": 1, "dim": 1, "schellekens": 1, "constraint": 1, "uniqueness": 1, "end": 0
}


def parse_ledger(text: str) -> list[CaseRecord]:
    records: list[CaseRecord] = []
    cur: CaseRecord | None = None
    case_line = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.partition("#")[0]
        if not line.strip():
            continue
        key, *values = line.split()
        where = lineno
        try:
            if key in _ARITY and len(values) != _ARITY[key]:
                raise UsageError(f"{key!r} takes {_ARITY[key]} value(s), got {len(values)}")
            if key == "case":
                if cur is not None:
                    raise UsageError("record not closed before a new 'case'")
                cur = CaseRecord(case_id=values[0], table="", dim=-1, schellekens=-1)
                case_line = lineno
            elif cur is None:
                raise UsageError(f"field {key!r} outside a record")
            elif key == "table":
                cur.table = values[0]
            elif key == "dim":
                cur.dim = int(values[0])
            elif key == "schellekens":
                cur.schellekens = int(values[0])
            elif key == "constraint":
                cur.constraints.append(parse_constraint(values[0]))
            elif key == "answer":
                cur.answer = parse_decomposition(" ".join(values))
            elif key == "also":
                cur.also.append(parse_decomposition(" ".join(values)))
            elif key == "uniqueness":
                cur.uniqueness = values[0]
            elif key == "identified":
                cur.identified = " ".join(values)
            elif key == "end":
                where = case_line  # a record-level error points at its 'case' line
                _validate_record(cur)
                records.append(cur)
                cur = None
            else:
                raise UsageError(f"unknown ledger field {key!r}")
        except UsageError as exc:
            raise UsageError(f"ledger line {where}: {exc}") from exc
        except ValueError as exc:  # an int() parse; each field's arity is checked first
            raise UsageError(f"ledger line {lineno}: {raw!r}") from exc
    if cur is not None:
        raise UsageError("ledger ended inside a record")
    return records


def _validate_record(rec: CaseRecord) -> None:
    if rec.table not in ("ta8", "ta16"):
        raise UsageError(f"case {rec.case_id}: bad table {rec.table!r}")
    if rec.dim <= 24:
        raise UsageError(f"case {rec.case_id}: missing or abelian-branch dim")
    if rec.answer is None:
        raise UsageError(f"case {rec.case_id}: missing answer")
    if rec.uniqueness not in ("arithmetic", "ledger-asserted", "identification-only"):
        raise UsageError(f"case {rec.case_id}: bad uniqueness {rec.uniqueness!r}")
    if rec.answer.total_dim != rec.dim:
        raise UsageError(f"case {rec.case_id}: answer dimension is off")
    for alt in rec.also:
        if alt.total_dim != rec.dim:
            raise UsageError(f"case {rec.case_id}: alternate dimension is off")
    rec.case = _resolve_case(rec.case_id)


def _resolve_case(case_id: str) -> object:
    """A pair case id as is, or the builder case that case_id spells."""
    from . import framed

    if case_id in framed.PAIR_CASE_IDS:
        return case_id
    try:
        return framed.parse_case(case_id)
    except UsageError as exc:
        raise UsageError(f"case {case_id}: not a pair case, and {exc}") from None


def load_ledger(path: str | None = None) -> tuple[CaseRecord, ...]:
    p = path if path is not None else default_ledger_path()
    try:
        with open(p, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read --ledger {p!r}: {exc}") from None
    return tuple(parse_ledger(text))


# ---------------------------------------------------------------------------
# regression runs
# ---------------------------------------------------------------------------


@dataclass
class CaseReport:
    record: CaseRecord
    dim_computed: int
    solutions: list[Decomposition]
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems


def _computed_dim(case: object) -> int:
    """Weight-one dimension of a case that _resolve_case returned."""
    from . import framed

    if isinstance(case, str):
        return framed.weight1_dim_pair(framed.build_pair_case(case, seed=0))["direct"]
    return framed.weight1_dim_triple(framed.build_case(case, seed=0))


def run_case(rec: CaseRecord) -> CaseReport:
    problems: list[str] = []
    dim = _computed_dim(rec.case)
    if dim != rec.dim:
        problems.append(f"computed dimension {dim} != published {rec.dim}")
    sols = decompose(rec.dim, rec.constraints)
    got = set(sols)
    if rec.answer not in got:
        problems.append("published decomposition is not a solver output")
    if got != rec.expected_set():
        problems.append(
            "solution set mismatch: "
            + " | ".join(sorted(str(s) for s in got ^ rec.expected_set()))
        )
    if rec.uniqueness == "arithmetic" and len(got) != 1:
        problems.append("marked arithmetic-unique but the solver found more")
    if rec.uniqueness != "arithmetic" and len(got) > 3:
        problems.append("asserted cases must leave at most three candidates")
    return CaseReport(rec, dim, sols, problems)


def run_ledger(records: Sequence[CaseRecord]) -> list[CaseReport]:
    """Solve every ledger case and compare with the published data."""
    return [run_case(rec) for rec in records]


def unmatched_rows(reports: Sequence[CaseReport], rows: Sequence[tuple]) -> list[tuple]:
    """The published table rows (case, dim, algebra, number, ref) that no
    report without problems agrees with on dimension, algebra and number.
    A case missing from the reports leaves its row unmatched."""
    agreed = {
        (r.record.case_id, r.dim_computed, r.record.answer, r.record.schellekens)
        for r in reports
        if r.ok
    }
    return [
        row
        for row in rows
        if (row[0], row[1], parse_decomposition(row[2]), row[3]) not in agreed
    ]


def candidate_table_report(records: Sequence[CaseRecord]) -> list[dict]:
    """Regenerate every stored candidate table, with the dimension budget
    from the ledger records, and compare as exact sets."""
    from . import tables

    dims = {rec.case_id: rec.dim for rec in records}
    out = []
    for case_id, (ratio_s, printed, extra) in tables.CANDIDATE_TABLES.items():
        printed_set = {tok for tok, _, _ in printed}
        expected = printed_set | set(extra)
        problems = []
        if case_id not in dims:
            got = set()
            problems.append("case not in the ledger")
        elif (got := {str(c) for c in candidates(Fraction(ratio_s), dims[case_id])}) != expected:
            problems.append(f"set mismatch: {sorted(got ^ expected)}")
        for tok, h, d in printed:
            lt = leveled(tok)
            if lt.h_vee != h or lt.dim != d:
                problems.append(f"{tok}: printed data disagrees with type data")
        out.append(
            {
                "case": case_id,
                "ratio": ratio_s,
                "computed": sorted(got),
                "printed": sorted(printed_set),
                "extra": sorted(extra),
                "ok": not problems,
                "problems": problems,
            }
        )
    return out


def lieframed_coverage(reports: Sequence[CaseReport]) -> list[dict]:
    """Match every row of the final classification table to its sources:
    the ledger cases in ``reports`` without problems (the rule of
    ``unmatched_rows``) and the reference rows."""
    from . import tables

    by_alg: dict[tuple[int, Decomposition], list[str]] = {}
    for rep in reports:
        if rep.ok:
            by_alg.setdefault((rep.record.dim, rep.record.answer), []).append(rep.record.case_id)
    out = []
    for no, dim, alg in tables.LIEFRAMED_ROWS:
        dec = parse_decomposition(alg)
        sources = list(by_alg.get((dim, dec), []))
        for dno, ddim, dalg in tables.LIEDEX_ROWS:
            if (dno, ddim) == (no, dim) and parse_decomposition(dalg) == dec:
                sources.append("exceptional-code reference data")
        out.append({"no": no, "dim": dim, "algebra": dec, "sources": sources, "ok": bool(sources)})
    return out
