"""Batch command-line front end.

Commands: qspace, frame (build/classify/census/orbifold/pair), lie
(solve/ledger/tables) and verify.  JSON is the canonical output format;
csv and markdown render the same rows for eyeballing.  Exit codes:
0 success, 1 falsification or mismatch, 2 usage, 3 resource guard, 4
internal error (any other exception, printed with its traceback).
`main` may be called many times in one process: the argument parser is
built on the first call and reused, and no call leaves state for the next.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
import traceback

from . import __version__
from . import checks, framed, liesolver, quadspace, tables
from .gf2 import FalsificationError, ResourceLimitError, UsageError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4


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
        "arf_type": quadspace.type_of(space),
    }
    _emit(payload, None, args)
    agree = payload["closed_form_match"] and payload["arf_type"] == args.type
    return EXIT_OK if agree else EXIT_FALSIFIED


# ---------------------------------------------------------------------------
# frame
# ---------------------------------------------------------------------------


def _parse_case_token(token: str) -> framed.TCCase:
    """A --base token: the case text with ':' for '(' and no ')', as in odd:5,4,0."""
    kind, _, rest = token.partition(":")
    try:
        return framed.parse_case(f"{kind}({rest})")
    except UsageError as exc:
        raise UsageError(f"--base {token!r}, use even:m,k1,k2,[+-] or odd:m,k1,k2: {exc}") from None


def _emit_case(case: framed.TCCase | str, args) -> dict:
    """Weigh a builder or pair case at --seed and print its fields between its
    name and its subspace rows; the printed payload is returned."""
    sub, _, fields = framed.weigh(case, args.seed)
    payload = {"case": str(case), **fields, "subspace": framed.to_text(sub).splitlines()}
    _emit(payload, None, args)
    return payload


def cmd_frame_build(args) -> int:
    if args.type is None:
        case = framed.odd_case(args.m, args.k1, args.k2)
    else:
        eps = {"plus": "+", "minus": "-"}[args.type]
        case = framed.even_case(args.m, args.k1, args.k2, eps)
    payload = _emit_case(case, args)
    ok = payload["classified"] == str(case) and payload["profile"] == payload[
        "profile_closed_form"
    ]
    return EXIT_OK if ok else EXIT_FALSIFIED


def cmd_frame_classify(args) -> int:
    if args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, encoding="utf-8") as fh:
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
    _emit_case(args.case, args)
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
    reports = liesolver.run_ledger(liesolver.load_ledger(args.ledger))
    rows = [
        {
            "case": r.record.case_id,
            "dim": r.dim_computed,
            "published_dim": r.record.dim,
            "answer": str(r.record.answer),
            "solutions": len(r.solutions),
            "uniqueness": r.record.uniqueness,
            "status": "MATCH" if r.ok else "MISMATCH: " + "; ".join(r.problems),
        }
        for r in reports
    ]
    payload = {
        "cases": rows,
        "identification_notes": [
            {"case": r.record.case_id, "identified": r.record.identified}
            for r in reports
            if r.record.identified
        ],
        "all_match": all(r.ok for r in reports),
    }
    _emit(payload, rows, args)
    return EXIT_OK if payload["all_match"] else EXIT_FALSIFIED


def cmd_lie_tables(args) -> int:
    reports = liesolver.run_ledger(liesolver.load_ledger(args.ledger))
    if args.which in ("ta8", "ta16"):
        published = tables.TA8_ROWS if args.which == "ta8" else tables.TA16_ROWS
        unmatched = liesolver.unmatched_rows(reports, published)
        keys = ("case", "dim", "algebra", "no", "ref")
        rows = [
            dict(zip(keys, row), status="MISMATCH" if row in unmatched else "MATCH")
            for row in published
        ]
        ok = not unmatched
    else:  # lieframed
        cov = liesolver.lieframed_coverage(reports)
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


def cmd_verify(args) -> int:
    """Run the checks; text (the default) streams one PASS, FAIL or ERROR
    line per check, and --format renders one record per check after the
    run.  A check that raises FalsificationError fails; any other exception
    is an error in the program, reported with its traceback."""
    t0 = time.time()
    records = liesolver.load_ledger(args.ledger)  # an unreadable or malformed --ledger exits 2 here
    results = []
    for name, fn in checks.verify_checks(args.quick, records):
        start = time.perf_counter()
        try:
            fn()
        except FalsificationError as exc:  # report and continue: the summary decides
            status, error, line = "FAIL", f"{type(exc).__name__}: {exc}", f"FAIL {name}: {exc}"
        except Exception:
            status, error = "ERROR", traceback.format_exc().rstrip()
            line = f"ERROR {name}: {error}"
        else:
            status, error, line = "PASS", None, f"PASS {name}"
        seconds = round(time.perf_counter() - start, 3)
        results.append({"name": name, "status": status, "seconds": seconds, "error": error})
        if args.format is None:
            print(line)
    statuses = [c["status"] for c in results]
    passed = statuses.count("PASS")
    if args.format is None:
        print(
            f"verify: {passed}/{len(results)} checks passed in "
            f"{time.time() - t0:.1f}s" + (" [quick]" if args.quick else "")
        )
    else:
        payload = {
            "quick": args.quick,
            "passed": passed,
            "failed": len(results) - passed,
            "checks": results,
        }
        _emit(payload, results, args)
    if "ERROR" in statuses:
        return EXIT_INTERNAL
    return EXIT_FALSIFIED if "FAIL" in statuses else EXIT_OK


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
    leaves = []

    def command(group, name, *, cmd, **kwargs):
        p = group.add_parser(name, **kwargs)
        p.set_defaults(cmd=cmd)
        leaves.append(p)
        return p

    q = command(sub, "qspace", cmd="qspace", help="singular census of a standard space")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--type", choices=("plus", "minus"), required=True)

    f = sub.add_parser("frame", help="subspace builders and censuses")
    fsub = f.add_subparsers(dest="subcommand", required=True)

    fb = command(fsub, "build", cmd="frame_build")
    fb.add_argument("--m", type=int, required=True)
    fb.add_argument("--k1", type=int, required=True)
    fb.add_argument("--k2", type=int, required=True)
    fb.add_argument("--type", choices=("plus", "minus"))

    fc = command(fsub, "classify", cmd="frame_classify")
    fc.add_argument("--input", required=True, help="subspace text file, or - for stdin")

    command(fsub, "census", cmd="frame_census").add_argument("--m", type=int, required=True)

    fo = command(fsub, "orbifold", cmd="frame_orbifold")
    fo.add_argument("--base", required=True, help="e.g. odd:5,4,0")
    fo.add_argument("--choices", type=int, default=3)

    fp = command(fsub, "pair", cmd="frame_pair")
    fp.add_argument("--case", required=True, choices=framed.PAIR_CASE_IDS)

    l = sub.add_parser("lie", help="affine type identification")
    lsub = l.add_subparsers(dest="subcommand", required=True)

    ls = command(lsub, "solve", cmd="lie_solve")
    ls.add_argument("--dim", type=int, required=True)
    ls.add_argument("--constraint", action="append", default=[])

    command(lsub, "ledger", cmd="lie_ledger").add_argument("--ledger", default=None)

    lt = command(lsub, "tables", cmd="lie_tables")
    lt.add_argument("--which", required=True, choices=("ta8", "ta16", "lieframed"))
    lt.add_argument("--ledger", default=None)

    v = command(sub, "verify", cmd="verify", help="run the acceptance checks")
    v.add_argument("--quick", action="store_true")
    v.add_argument("--ledger", default=None)

    for p in leaves:  # after each command's own flags, so usage lines end with them
        p.add_argument("--format", choices=("json", "csv", "markdown"), default="json")
        p.add_argument("--seed", type=int, default=0)
    v.set_defaults(format=None)  # PASS/FAIL text unless --format; after the loop's default

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = globals()[f"cmd_{args.cmd}"](args)
        sys.stdout.flush()  # a closed reader surfaces here, not in the interpreter's final flush
        return code
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
        # the reader closed stdout: point its descriptor, not the bound stream, at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except Exception:  # an error in the program, not a finding: exit 1 means a mismatch
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
