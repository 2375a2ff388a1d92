"""Golden outputs: the exact stdout and exit code of a fixed command list.

`tests/test_golden.py` replays every command in COMMANDS in-process through
`cli.main` and compares its stdout and exit code with the files here, byte
for byte.  `run` writes every `"seconds"` timing field as 0, so the
`verify --quick --format json` record compares; full `verify` is not
pinned, as its m = 2 census alone takes about a second.  Rewrite the files after an intended output change with

    PYTHONPATH=src python tests/golden/regen.py

and name each changed file, and why it changed, in CHANGES.md.
`classify_input.txt` is an input, not an output: it is committed once and
never rewritten.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

from framedlie import cli, framed

GOLDEN = Path(__file__).resolve().parent
EXIT_CODES = GOLDEN / "exit_codes.json"
CLASSIFY_INPUT = GOLDEN / "classify_input.txt"


def _build_command(case: framed.TCCase, fmt: str = "json") -> tuple[str, list[str]]:
    argv = ["frame", "build", "--m", str(case.m), "--k1", str(case.k1), "--k2", str(case.k2)]
    name = f"frame_build_{case.kind}_{case.m}_{case.k1}_{case.k2}"
    if case.kind == "even":
        kind = {"+": "plus", "-": "minus"}[case.eps]
        argv += ["--type", kind]
        name += f"_{kind}"
    if fmt != "json":
        name += f"_{fmt}"
    return name, argv + ["--format", fmt, "--seed", "0"]


def commands() -> list[tuple[str, list[str]]]:
    """(file stem, argv) of every golden command."""
    out = [_build_command(case) for m in (5, 6) for case in framed.valid_params(m)]
    out.append(("frame_orbifold_odd_5_4_0", ["frame", "orbifold", "--base", "odd:5,4,0"]))
    out.append(
        ("frame_orbifold_odd_5_4_0_all", ["frame", "orbifold", "--base", "odd:5,4,0", "--choices", "200"])
    )
    out += [(f"frame_pair_{c}", ["frame", "pair", "--case", c]) for c in framed.PAIR_CASE_IDS]
    out.append(("frame_pair_pcl4_4_csv", ["frame", "pair", "--case", "pcl4_4", "--format", "csv"]))
    out.append(("frame_pair_pcl5_3_markdown", ["frame", "pair", "--case", "pcl5_3", "--format", "markdown"]))
    out.append(("frame_pair_niemeier_a17e7_seed7", ["frame", "pair", "--case", "niemeier_a17e7", "--seed", "7"]))
    out.append(("frame_classify", ["frame", "classify", "--input", str(CLASSIFY_INPUT)]))
    out += [(f"frame_census_m{m}", ["frame", "census", "--m", str(m)]) for m in (1, 2)]
    out += [
        (f"qspace_{kind}_{d}", ["qspace", "--dim", str(d), "--type", kind])
        for d in range(2, 29, 2)
        for kind in ("plus", "minus")
    ]
    out.append(("qspace_minus_18_csv", ["qspace", "--dim", "18", "--type", "minus", "--format", "csv"]))
    out.append(("qspace_plus_16_markdown", ["qspace", "--dim", "16", "--type", "plus", "--format", "markdown"]))
    out.append(_build_command(framed.even_case(5, 2, 1, "+"), "csv"))
    out += [(f"lie_tables_{w}", ["lie", "tables", "--which", w]) for w in ("ta8", "ta16", "lieframed")]
    out.append(("lie_tables_ta8_markdown", ["lie", "tables", "--which", "ta8", "--format", "markdown"]))
    out.append(("lie_tables_lieframed_csv", ["lie", "tables", "--which", "lieframed", "--format", "csv"]))
    out.append(("lie_ledger", ["lie", "ledger"]))
    out.append(("lie_ledger_csv", ["lie", "ledger", "--format", "csv"]))
    out.append(("lie_solve_60_ideal_28_4", ["lie", "solve", "--dim", "60", "--constraint", "ideal:28:4"]))
    out.append(
        (
            "lie_solve_60_ideal_28_4_markdown",
            ["lie", "solve", "--dim", "60", "--constraint", "ideal:28:4", "--format", "markdown"],
        )
    )
    out.append(("verify_quick_json", ["verify", "--quick", "--format", "json"]))
    return out


def run(argv: list[str]) -> tuple[int, str]:
    """cli.main's exit code and stdout for argv, each `"seconds": <float>`
    timing field written as 0."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, re.sub(r'"seconds": [0-9.e+-]+', '"seconds": 0', buf.getvalue())


def main() -> int:
    codes = {}
    for name, argv in commands():
        codes[name], out = run(argv)
        (GOLDEN / f"{name}.out").write_text(out)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} golden outputs to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
