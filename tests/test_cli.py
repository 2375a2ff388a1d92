import argparse
import ast
import csv
import dataclasses
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from framedlie import __version__, checks, cli, liesolver, modlabels, quadspace
from framedlie.cli import main
from framedlie.gf2 import FalsificationError
from framedlie.liesolver import default_ledger_path, load_ledger, parse_decomposition


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def checks_only(monkeypatch, prefix):
    """Make verify run only the registry's checks whose names start with prefix."""
    registry = checks.verify_checks

    def some_checks(quick, records):
        return ((n, fn) for n, fn in registry(quick, records) if n.startswith(prefix))

    monkeypatch.setattr(checks, "verify_checks", some_checks)


def assert_run_metadata(data, seed):
    assert (data["schema_version"], data["version"], data["seed"]) == (1, __version__, seed)


def test_qspace_json(capsys):
    code, out = run(capsys, "qspace", "--dim", "10", "--type", "plus")
    assert code == 0
    data = json.loads(out)
    assert data["singular_nonzero"] == 527
    assert data["nonsingular"] == 496
    assert_run_metadata(data, 0)


def test_qspace_minus(capsys):
    code, out = run(capsys, "qspace", "--dim", "2", "--type", "minus")
    assert code == 0
    assert json.loads(out)["singular_nonzero"] == 0


def test_qspace_usage_error(capsys):
    code, _ = run(capsys, "qspace", "--dim", "3", "--type", "plus")
    assert code == 2


def test_bad_flags_exit_2(monkeypatch):
    monkeypatch.setattr(cli.framed, "build_case", None)  # argparse rejects before any build
    for argv in (
        ["qspace", "--dim", "10", "--type", "banana"],
        ["frame", "orbifold", "--base", "odd:5,4,0", "--w", "other"],
        ["frame", "pair", "--case", "nope"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_frame_build(capsys):
    code, out = run(
        capsys, "frame", "build", "--m", "5", "--k1", "3", "--k2", "0", "--type", "minus"
    )
    assert code == 0
    data = json.loads(out)
    assert data["weight1"] == 240
    assert data["classified"] == "even(5,3,0,-)"


def test_frame_build_odd(capsys):
    code, out = run(capsys, "frame", "build", "--m", "5", "--k1", "4", "--k2", "0")
    assert code == 0
    assert json.loads(out)["weight1"] == 408


def test_frame_build_usage(capsys):
    code, _ = run(capsys, "frame", "build", "--m", "5", "--k1", "2", "--k2", "0", "--type", "plus")
    assert code == 2


def test_frame_build_wide(capsys):
    # profile and classification run to the width cap 6m <= 64
    for argv, case in (
        (("--m", "7", "--k1", "2", "--k2", "1", "--type", "minus"), "even(7,2,1,-)"),
        (("--m", "10", "--k1", "5", "--k2", "5", "--type", "plus"), "even(10,5,5,+)"),
    ):
        code, out = run(capsys, "frame", "build", *argv)
        assert code == 0
        data = json.loads(out)
        assert data["profile"] == data["profile_closed_form"]
        assert data["classified"] == data["case"] == case


def test_frame_classify_roundtrip(capsys, tmp_path):
    for argv, case in (
        (("--m", "2", "--k1", "1", "--k2", "1", "--type", "plus"), "even(2,1,1,+)"),
        (("--m", "7", "--k1", "3", "--k2", "1"), "odd(7,3,1)"),
    ):
        code, out = run(capsys, "frame", "build", *argv)
        built = json.loads(out)
        p = tmp_path / "sub.txt"
        p.write_text("\n".join(built["subspace"]) + "\n")
        code, out = run(capsys, "frame", "classify", "--input", str(p))
        assert code == 0
        data = json.loads(out)
        assert data["classified"] == case
        assert data["profile"] == built["profile"]


def test_frame_classify_reads_stdin(capsys, monkeypatch):
    golden = Path(__file__).parent / "golden"
    text = (golden / "classify_input.txt").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out = run(capsys, "frame", "classify", "--input", "-")
    assert code == 0
    assert out.encode() == (golden / "frame_classify.out").read_bytes()


def test_frame_classify_bad_input_exits_2(capsys, tmp_path):
    texts = [
        header + "\n" + "0" * 12 + "\n"
        for header in ("ambient=triple m=x", "ambient=triple m=11", "ambient=triple m=0")
    ]
    # well-formed, but not a maximal totally singular subspace: no rows, and
    # three singular rows of which e1 and e2 pair to 1
    texts += ["ambient=triple m=1\n", "ambient=triple m=1\n100000\n010000\n001000\n"]
    p = tmp_path / "bad.txt"
    for text in texts:
        p.write_text(text)
        code = main(["frame", "classify", "--input", str(p)])
        assert code == 2, text
        assert capsys.readouterr().err.startswith("usage error: "), text
    code, _ = run(capsys, "frame", "classify", "--input", str(tmp_path / "missing.txt"))
    assert code == 2
    p.write_bytes(b"ambient=triple m=1\n\xff\xfe\n")  # not UTF-8
    code = main(["frame", "classify", "--input", str(p)])
    assert code == 2
    assert capsys.readouterr().err.startswith("usage error: cannot read --input ")


def test_bad_tokens_exit_2(capsys):
    for argv in (
        ("lie", "solve", "--dim", "60", "--constraint", "ideal:x"),
        ("lie", "solve", "--dim", "60", "--constraint", "partition:3"),
        ("frame", "orbifold", "--base", "even:5"),
        ("frame", "orbifold", "--base", "odd:5,4,0", "--choices", "0"),
        ("frame", "orbifold", "--base", "odd:5,4,0", "--choices", "-1"),
        ("lie", "solve", "--dim", "60", "--constraint", "ideal:28:4:9"),
        ("frame", "census", "--m", "0"),
        ("frame", "census", "--m", "-1"),
    ):
        code, _ = run(capsys, *argv)
        assert code == 2, argv


def test_qspace_guard_before_work(capsys, monkeypatch):
    def no_work(self, x):
        raise AssertionError("q evaluated before the census guard")

    monkeypatch.setattr(quadspace.QuadraticSpace, "q", no_work)
    assert main(["qspace", "--dim", "30", "--type", "plus"]) == 3
    assert "resource guard: census of 2^30 vectors refused" in capsys.readouterr().err


def test_qspace_refuses_a_wide_dim_before_building_the_form(capsys):
    tracemalloc.start()
    try:
        code = main(["qspace", "--dim", "40000", "--type", "minus"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err == "usage error: width must be in 1..64, got 40000\n"
    assert peak < 2**21, peak  # the form's 40000 rows of up to 40000 bits take about 160 MB


def test_closed_stdout_exits_0(monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["qspace", "--dim", "4", "--type", "plus"])
    sys.stdout.close()  # the devnull handle main swapped in
    assert code == 0


def test_frame_census_m1(capsys):
    code, out = run(capsys, "frame", "census", "--m", "1")
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 30
    assert data["built_cases_in_distinct_orbits"]


def test_frame_census_guard(capsys):
    code, _ = run(capsys, "frame", "census", "--m", "3")
    assert code == 3


def test_frame_pair(capsys):
    code, out = run(capsys, "frame", "pair", "--case", "pcl4_6")
    assert code == 0
    data = json.loads(out)
    assert data["weight1_formula"] == 72 == data["weight1_direct"]
    assert_run_metadata(data, 0)


def test_frame_orbifold(capsys):
    code, out = run(capsys, "frame", "orbifold", "--base", "odd:5,4,0")
    assert code == 0
    data = json.loads(out)
    assert len(data["results"]) == 3
    assert all(r["classified"] == "even(5,3,0,+)" for r in data["results"])


def test_lie_solve(capsys):
    code, out = run(capsys, "lie", "solve", "--dim", "60", "--constraint", "ideal:28:4")
    assert code == 0
    data = json.loads(out)
    assert data["solutions"] == ["D4,4 (A2,2)^4"] and data["unique"]
    assert_run_metadata(data, 0)


def test_lie_solve_impossible_root_split(capsys):
    code, out = run(capsys, "lie", "solve", "--dim", "48", "--constraint", "rootpart:8,12,30,30")
    assert code == 0
    data = json.loads(out)
    assert data["solutions"] == [] and not data["unique"]


def test_lie_ledger(capsys):
    code, out = run(capsys, "lie", "ledger")
    assert code == 0
    data = json.loads(out)
    assert data["all_match"] and len(data["cases"]) == 21
    notes = {n["case"] for n in data["identification_notes"]}
    assert "even(5,5,0,+)" in notes and "niemeier_a17e7" in notes


def test_lie_tables(capsys):
    for which, rows in (("ta8", 15), ("ta16", 5), ("lieframed", 17)):
        code, out = run(capsys, "lie", "tables", "--which", which)
        assert code == 0
        data = json.loads(out)
        assert data["all_match"] and len(data["rows"]) == rows


def test_corrupted_ledger_exits_1(capsys, tmp_path):
    code, out = run(capsys, "lie", "ledger", "--ledger", str(_consistent_corruption(tmp_path)))
    assert code == 1
    data = json.loads(out)
    row = next(r for r in data["cases"] if r["case"] == "pcl5_3")
    assert "MISMATCH" in row["status"]


def test_output_formats(capsys):
    code, out = run(capsys, "lie", "solve", "--dim", "384", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "solution,rank"
    code, out = run(capsys, "lie", "solve", "--dim", "384", "--format", "markdown")
    assert code == 0
    assert out.startswith("| solution | rank |")
    code, out = run(capsys, "frame", "census", "--m", "1", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {r["case"] for r in rows} == {"cond1", "cond2", "even(1,1,0,+)", "odd(1,0,0)"}


def test_output_determinism(capsys):
    # identical (command, config) must give bit-identical output
    outs = set()
    for _ in range(2):
        code, out = run(
            capsys, "frame", "build", "--m", "5", "--k1", "2", "--k2", "1",
            "--type", "minus", "--seed", "7",
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    outs = set()
    for _ in range(2):
        _, out = run(capsys, "frame", "pair", "--case", "pcl4_5", "--seed", "3")
        outs.add(out)
    assert len(outs) == 1


def test_verify_quick(capsys):
    code, out = run(capsys, "verify", "--quick")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) >= 40
    assert all(ln.startswith("PASS") for ln in lines)
    code, out = run(capsys, "verify", "--quick", "--format", "json", "--seed", "5")
    assert code == 0
    data = json.loads(out)
    assert_run_metadata(data, 5)
    summary = (data["command"], data["quick"], data["passed"], data["failed"])
    assert summary == ("verify", True, len(lines), 0)
    assert [c["name"] for c in data["checks"]] == [ln.split()[1] for ln in lines]
    assert all(c["status"] == "PASS" and c["error"] is None for c in data["checks"])


def _consistent_corruption(tmp_path):
    """A ledger with a parseable, dimension-consistent answer that is not a
    solution: `lie ledger` and the verify checks find the mismatch."""
    text = Path(default_ledger_path()).read_text(encoding="utf-8")
    bad = text.replace("answer A8,2 F4,2", "answer A7,1 A5,1 A4,1 C2,1", 1)
    assert bad != text
    p = tmp_path / "bad.ledger"
    p.write_text(bad)
    return p


def test_ledger_rewritten_between_calls_is_read_again(capsys, tmp_path):
    good = Path(default_ledger_path()).read_text(encoding="utf-8")
    p = tmp_path / "one.ledger"
    codes = []
    for text in (good, _consistent_corruption(tmp_path).read_text(), good):
        p.write_text(text)
        codes.append(main(["lie", "ledger", "--ledger", str(p)]))
        capsys.readouterr()
    assert codes == [0, 1, 0]


def test_verify_fails_on_corrupted_ledger_under_optimized_python(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    p = _consistent_corruption(tmp_path)
    argv = [sys.executable, "-O", "-m", "framedlie.cli", "verify", "--quick", "--ledger", str(p)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert "FAIL lie_ledger: " in done.stdout and "ERROR" not in done.stdout


def test_python_dash_m_framedlie():
    # a checkout with src on PYTHONPATH and no install runs as python -m framedlie
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argvs = (
        ["qspace", "--dim", "4", "--type", "plus"],
        ["qspace", "--dim", "0", "--type", "plus"],
        ["frame", "census", "--m", "3"],
    )
    done = [
        subprocess.run([sys.executable, "-m", "framedlie", *argv], env=env, capture_output=True, text=True, timeout=60)
        for argv in argvs
    ]
    assert [d.returncode for d in done] == [0, 2, 3], [d.stderr for d in done]
    assert json.loads(done[0].stdout)["singular_nonzero"] == 9
    assert done[2].stderr == "resource guard: full census only at m = 1 and 2\n"


def test_runs_clean_under_dev_mode_with_warnings_as_errors():
    # unclosed files, default-encoding opens and other warnings fail the run
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    flags = ["-X", "dev", "-X", "warn_default_encoding", "-W", "error", "-m", "framedlie"]
    for argv in (
        ["verify", "--quick"],
        ["frame", "classify", "--input", str(root / "tests" / "golden" / "classify_input.txt")],
    ):
        done = subprocess.run([sys.executable, *flags, *argv], env=env, capture_output=True,
                              text=True, timeout=300)
        assert (done.returncode, done.stderr) == (0, ""), argv


def test_importing_the_main_module_runs_nothing(capsys):
    # perfbench imports every framedlie module by a package walk
    import framedlie.__main__  # noqa: F401

    assert capsys.readouterr() == ("", "")


def test_package_has_no_assert_statements():
    # python -O strips asserts, so every check in the package raises instead
    src = Path(__file__).resolve().parents[1] / "src" / "framedlie"
    files = sorted(src.glob("*.py"))
    assert len(files) >= 9
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], (path.name, lines)


def test_package_imports_only_the_standard_library():
    # no runtime dependencies: every absolute import is stdlib or framedlie
    src = Path(__file__).resolve().parents[1] / "src" / "framedlie"
    files = sorted(src.glob("*.py"))
    assert len(files) >= 9
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 0]
        foreign = [n for n in names
                   if n.split(".")[0] not in sys.stdlib_module_names | {"framedlie"}]
        assert foreign == [], (path.name, foreign)


def test_check_that_raises_another_exception_is_an_error(capsys, monkeypatch):
    registry = checks.verify_checks

    def with_broken(quick, records):
        for name, fn in registry(quick, records):
            if name.startswith("codes_"):
                yield name, (lambda: 1 // 0) if name == "codes_rm_duality" else fn

    monkeypatch.setattr(checks.codes, "is_self_dual", lambda c: False)  # a mismatch
    monkeypatch.setattr(checks, "verify_checks", with_broken)
    code, out = run(capsys, "verify", "--quick")
    assert code == 4  # an error outranks a mismatch
    first, *rest = out.splitlines()
    assert first == "ERROR codes_rm_duality: Traceback (most recent call last):"
    assert "ZeroDivisionError: integer division or modulo by zero" in rest
    want = "(self-dual, doubly even, dim) (False, True, 8), expected (True, True, 8)"
    assert f"FAIL codes_d16plus: d16plus: {want}" in rest
    assert rest[-1].startswith("verify: 3/5 checks passed in ")
    code, out = run(capsys, "verify", "--quick", "--format", "json")
    assert code == 4
    data = json.loads(out)
    assert (data["passed"], data["failed"]) == (3, 2)
    bad = {c["name"]: (c["status"], c["error"]) for c in data["checks"] if c["status"] != "PASS"}
    assert bad.keys() == {"codes_rm_duality", "codes_d16plus"}
    status, error = bad["codes_rm_duality"]
    assert status == "ERROR" and error.startswith("Traceback (most recent call last):")
    assert error.endswith("ZeroDivisionError: integer division or modulo by zero")
    assert bad["codes_d16plus"][0] == "FAIL"
    # the mismatch alone exits 1
    monkeypatch.setattr(checks, "verify_checks", registry)
    checks_only(monkeypatch, "codes_")
    code, out = run(capsys, "verify", "--quick")
    assert code == 1
    assert [ln.split()[0] for ln in out.splitlines()] == ["PASS"] * 3 + ["FAIL", "PASS", "verify:"]


def test_uncaught_exception_exits_4(capsys, monkeypatch):
    def crash(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_qspace", crash)
    code = main(["qspace", "--dim", "4", "--type", "plus"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_INTERNAL == 4
    assert err.startswith("Traceback (most recent call last):")
    assert err.endswith("KeyError: 'boom'\n")


def test_ledger_bad_case_id_exits_2(capsys, monkeypatch, tmp_path):
    checks_only(monkeypatch, "lie_")  # the checks that read the ledger
    text = Path(default_ledger_path()).read_text(encoding="utf-8")
    p = tmp_path / "bad.ledger"
    for old, new in (
        ("case even(5,1,0,+)", "case even(5,1,0)"),
        ("case even(5,1,0,-)", "case even(5,x,0,-)"),
        ("case odd(5,0,0)", "case odd(5,1,0)"),
        ("case pcl4_6", "case pcl4_7"),
    ):
        assert old in text
        p.write_text(text.replace(old, new, 1))
        code = main(["lie", "ledger", "--ledger", str(p)])
        err = capsys.readouterr().err
        assert code == 2, new
        assert err.startswith("usage error: ledger line ") and new[5:] + ":" in err, err
        code = main(["verify", "--ledger", str(p), "--format", "json"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), new  # before any check runs
        assert captured.err == err


def test_ledger_record_guards_exit_2(capsys, tmp_path):
    text = Path(default_ledger_path()).read_text(encoding="utf-8")
    p = tmp_path / "bad.ledger"
    for old, new, message in (
        ("\ndim 60\n", "\ndim x\n", "line 11: 'dim x'"),
        ("\ndim 60\n", "\ndim 24\n", "line 9: case even(5,1,0,+): missing or abelian-branch dim"),
        ("\nanswer D4,4 (A2,2)^4\n", "\n", "line 9: case even(5,1,0,+): missing answer"),
        ("\ntable ta8\n", "\ntable ta24\n", "line 9: case even(5,1,0,+): bad table 'ta24'"),
        ("\nalso (E8,1)^3\n", "\nalso (E8,1)^2\n", "line 46: case even(5,5,0,+): alternate dimension is off"),
        ("case pcl4_6\n", "case pcl9_9\n", "line 190: case pcl9_9: not a pair case, and bad case "
         "'pcl9_9'; write even(m,k1,k2,+|-) or odd(m,k1,k2)"),
    ):
        assert old in text
        p.write_text(text.replace(old, new, 1))
        code = main(["lie", "ledger", "--ledger", str(p)])
        err = capsys.readouterr().err
        assert code == 2, new
        assert err == f"usage error: ledger {message}\n", err


@pytest.mark.parametrize("argv", [
    ["verify", "--quick", "--format", "json"],
    ["lie", "ledger"],
    *(["lie", "tables", "--which", which] for which in ("ta8", "ta16", "lieframed")),
])
def test_each_command_reads_and_runs_its_ledger_once(capsys, monkeypatch, argv):
    loads, runs = [], []
    load, run_ledger = liesolver.load_ledger, liesolver.run_ledger
    monkeypatch.setattr(liesolver, "load_ledger", lambda path=None: loads.append(path) or load(path))
    monkeypatch.setattr(liesolver, "run_ledger", lambda records: runs.append(1) or run_ledger(records))
    assert main(argv) == 0
    assert (loads, len(runs)) == ([None], 1)


def test_base_token_is_strict(capsys):
    for base in ("odd:05,4,0", "odd(5,4,0)", "odd:5,4,0)", "odd:5,4,0,", "odd: 5,4,0", "cond1:", "even:5,3,0"):
        assert main(["frame", "orbifold", "--base", base]) == 2, base
        assert capsys.readouterr().err.startswith("usage error: "), base


def test_negative_constraint_value_exits_2(capsys, tmp_path):
    for token in ("rank:-1", "ideal:-5", "ideal:28:-4", "rootideal:-56", "rootpart:-1,2",
                  "partition:-1/2,3/4", "partition:3/-1"):
        code = main(["lie", "solve", "--dim", "60", "--constraint", token])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", token
        assert captured.err.startswith("usage error: constraint values are "), captured.err
    text = Path(default_ledger_path()).read_text(encoding="utf-8")
    p = tmp_path / "bad.ledger"
    for old, new, line in (
        ("constraint rank:16", "constraint rank:-1", 61),
        ("ideal:28:4", "ideal:28:-4", 13),
        ("rootideal:56", "rootideal:-56", 60),
        ("rootpart:8,12,30,30", "rootpart:8,-12,30,30", 128),
        ("partition:3/1,15/3", "partition:3/1,-15/3", 99),
    ):
        assert old in text
        p.write_text(text.replace(old, new, 1))
        code = main(["lie", "ledger", "--ledger", str(p)])
        err = capsys.readouterr().err
        assert code == 2, new
        assert err.startswith(f"usage error: ledger line {line}: constraint values are "), err


def test_ledger_constraint_missing_key_exits_2(capsys, tmp_path):
    text = Path(default_ledger_path()).read_text(encoding="utf-8")
    p = tmp_path / "bad.ledger"
    for old, new, message in (
        ("ideal:28:4", "ideal:", "line 13: expected integers in 'ideal:'"),
        ("rootideal:56", "rootideal", "line 60: expected integers in 'rootideal'"),
        ("constraint rank:16", "constraint rank 16", "line 61: 'constraint' takes 1 value(s), got 2"),
        ("ideal:28:4", "bogus:28", "line 13: unknown constraint 'bogus:28'"),
        ("partition:3/1,", "partition:3,", "line 99: partition blocks are dim/rank: 'partition:3,15/3,15/3,15/3'"),
    ):
        assert old in text
        p.write_text(text.replace(old, new, 1))
        code = main(["lie", "ledger", "--ledger", str(p)])
        err = capsys.readouterr().err
        assert code == 2, new
        assert err == f"usage error: ledger {message}\n", err


def test_ledger_extra_tokens_exit_2(capsys, tmp_path):
    text = Path(default_ledger_path()).read_text(encoding="utf-8")
    p = tmp_path / "bad.ledger"
    for old, new, line in (
        ("\ndim 60\n", "\ndim 60 84\n", 11),
        ("\nschellekens 13\n", "\nschellekens 13 22\n", 12),
        ("\ntable ta8\n", "\ntable ta8 ta16\n", 10),
        ("\ncase even(5,1,0,+)\n", "\ncase even(5,1,0,+) odd(5,0,0)\n", 9),
        ("\nuniqueness arithmetic\n", "\nuniqueness arithmetic exact\n", 15),
        ("\nend\n", "\nend now\n", 16),
    ):
        assert old in text
        p.write_text(text.replace(old, new, 1))
        code = main(["lie", "ledger", "--ledger", str(p)])
        err = capsys.readouterr().err
        assert code == 2, new
        key, *values = new.split()  # each edit adds one value
        want = f"line {line}: {key!r} takes {len(values) - 1} value(s), got {len(values)}"
        assert err == f"usage error: ledger {want}\n", err


def _ledger_tokens():
    """Each ledger record with its constraint tokens as the ledger text
    writes them."""
    tokens: dict[str, list[str]] = {}
    for line in Path(default_ledger_path()).read_text(encoding="utf-8").splitlines():
        words = line.partition("#")[0].split()
        if words[:1] == ["case"]:
            case_tokens = tokens.setdefault(words[1], [])
        elif words[:1] == ["constraint"]:
            case_tokens += words[1:]
    assert sum(map(len, tokens.values())) == 21  # the ledger's constraint lines
    return [(rec, tokens[rec.case_id]) for rec in load_ledger()]


LEDGER_TOKENS = _ledger_tokens()


@pytest.mark.parametrize("rec,tokens", LEDGER_TOKENS, ids=[r.case_id for r, _ in LEDGER_TOKENS])
def test_lie_solve_on_ledger_tokens(capsys, rec, tokens):
    argv = ["lie", "solve", "--dim", str(rec.dim)]
    for token in tokens:
        argv += ["--constraint", token]
    code, out = run(capsys, *argv)
    assert code == 0
    solutions = json.loads(out)["solutions"]
    assert {parse_decomposition(s) for s in solutions} == rec.expected_set()


def _usage_expansions(text):
    """Every argv that a usage line spells: a|b is either word and [...]
    an optional group."""
    choices = []
    for item in re.findall(r"\[[^\]]*\]|\S+", text):
        if item.startswith("["):
            choices.append([[], *_usage_expansions(item[1:-1])])
        else:
            choices.append([[alt] for alt in item.split("|")])
    return [sum(combo, []) for combo in itertools.product(*choices)]


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [ln.partition("#")[0] for ln in block.splitlines() if ln.startswith("framedlie ")]
    assert len(lines) == 11
    parser = cli.build_parser()
    assert parser is cli.build_parser()  # main parses with this same parser
    for line in lines:
        for argv in _usage_expansions(line):
            assert argv[0] == "framedlie"
            parser.parse_args(argv[1:])  # argparse exits 2 on a stale flag


def test_shared_parser_keeps_no_constraints_between_calls(capsys):
    # --constraint appends to a default list; a reused parser must not grow it
    for tokens in (["ideal:28:4"], ["rank:12", "ideal:28:4"], []):
        argv = ["lie", "solve", "--dim", "60"]
        for token in tokens:
            argv += ["--constraint", token]
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["constraints"] == tokens


# each subcommand's minimal argv, its usage text at 80 columns, and the values it
# parses to beside the command names and the common defaults --format json, --seed 0
PARSER_PINS = [
    (["qspace", "--dim", "2", "--type", "plus"],
     "usage: framedlie qspace [-h] --dim DIM --type {plus,minus}\n"
     "                        [--format {json,csv,markdown}] [--seed SEED]\n",
     {"cmd": "qspace", "dim": 2, "type": "plus"}),
    (["frame", "build", "--m", "5", "--k1", "1", "--k2", "0"],
     "usage: framedlie frame build [-h] --m M --k1 K1 --k2 K2 [--type {plus,minus}]\n"
     "                             [--format {json,csv,markdown}] [--seed SEED]\n",
     {"cmd": "frame_build", "m": 5, "k1": 1, "k2": 0, "type": None}),
    (["frame", "classify", "--input", "-"],
     "usage: framedlie frame classify [-h] --input INPUT\n"
     "                                [--format {json,csv,markdown}] [--seed SEED]\n",
     {"cmd": "frame_classify", "input": "-"}),
    (["frame", "census", "--m", "1"],
     "usage: framedlie frame census [-h] --m M [--format {json,csv,markdown}]\n"
     "                              [--seed SEED]\n",
     {"cmd": "frame_census", "m": 1}),
    (["frame", "orbifold", "--base", "odd:5,4,0"],
     "usage: framedlie frame orbifold [-h] --base BASE [--choices CHOICES]\n"
     "                                [--format {json,csv,markdown}] [--seed SEED]\n",
     {"cmd": "frame_orbifold", "base": "odd:5,4,0", "choices": 3}),
    (["frame", "pair", "--case", "pcl4_3"],
     "usage: framedlie frame pair [-h] --case\n"
     "                            {pcl5_3,pcl4_3,pcl4_4,pcl4_5,pcl4_6,niemeier_a17e7}\n"
     "                            [--format {json,csv,markdown}] [--seed SEED]\n",
     {"cmd": "frame_pair", "case": "pcl4_3"}),
    (["lie", "solve", "--dim", "60"],
     "usage: framedlie lie solve [-h] --dim DIM [--constraint CONSTRAINT]\n"
     "                           [--format {json,csv,markdown}] [--seed SEED]\n",
     {"cmd": "lie_solve", "dim": 60, "constraint": []}),
    (["lie", "ledger"],
     "usage: framedlie lie ledger [-h] [--ledger LEDGER]\n"
     "                            [--format {json,csv,markdown}] [--seed SEED]\n",
     {"cmd": "lie_ledger", "ledger": None}),
    (["lie", "tables", "--which", "ta8"],
     "usage: framedlie lie tables [-h] --which {ta8,ta16,lieframed}\n"
     "                            [--ledger LEDGER] [--format {json,csv,markdown}]\n"
     "                            [--seed SEED]\n",
     {"cmd": "lie_tables", "which": "ta8", "ledger": None}),
    (["verify"],
     "usage: framedlie verify [-h] [--quick] [--ledger LEDGER]\n"
     "                        [--format {json,csv,markdown}] [--seed SEED]\n",
     {"cmd": "verify", "quick": False, "ledger": None, "format": None}),
]


def test_parser_usage_and_namespaces_are_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines at the terminal width

    def subparsers(parser):
        return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {})

    parser = cli.build_parser()
    leaves = [
        [name, *([sub] if sub else [])]
        for name, p in subparsers(parser).items()
        for sub in subparsers(p) or [None]
    ]
    def command_names(argv):
        return argv[:2] if argv[0] in ("frame", "lie") else argv[:1]

    assert sorted(leaves) == sorted(command_names(argv) for argv, _, _ in PARSER_PINS)
    for argv, usage, values in PARSER_PINS:
        names = command_names(argv)
        leaf = parser
        for name in names:
            leaf = subparsers(leaf)[name]
        assert leaf.format_usage() == usage, argv
        want = {"command": names[0], **({"subcommand": names[1]} if names[1:] else {})}
        want = {**want, "format": "json", "seed": 0, **values}
        assert vars(parser.parse_args(argv)) == want, argv


def test_main_reaches_cmd_patched_after_the_parser_is_built(capsys, monkeypatch):
    assert run(capsys, "qspace", "--dim", "4", "--type", "plus")[0] == 0
    seen = []
    for name, code in (("qspace", 41), ("lie_ledger", 42)):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args, c=code: seen.append(args.cmd) or c)
    assert main(["qspace", "--dim", "4", "--type", "plus"]) == 41
    assert main(["lie", "ledger"]) == 42
    assert seen == ["qspace", "lie_ledger"]


def test_import_builds_no_parser_and_no_row_table():
    # both are built on first use, so importing the CLI stays cheap
    code = (
        "import framedlie.cli as cli, framedlie.modlabels as m; "
        "print(cli.build_parser.cache_info().currsize, "
        "m.coordinate_row_table.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0 0\n"), done.stderr


def test_unreadable_ledger_exits_2(capsys, monkeypatch, tmp_path):
    not_utf8 = tmp_path / "latin1.ledger"
    not_utf8.write_bytes("case caf\xe9\n".encode("latin-1"))
    checks_only(monkeypatch, "lie_")  # the checks that read the ledger
    for path in (tmp_path / "missing.ledger", tmp_path, not_utf8):
        for argv in (
            ["lie", "ledger"],
            ["lie", "tables", "--which", "ta8"],
            ["lie", "tables", "--which", "ta16"],
            ["lie", "tables", "--which", "lieframed"],
            ["verify", "--quick"],  # before any check runs
        ):
            code = main([*argv, "--ledger", str(path)])  # an internal error would exit 4
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, ""), (argv, path)
            assert captured.err.startswith(f"usage error: cannot read --ledger {str(path)!r}: ")


def test_verify_quick_detects_corruption(capsys, monkeypatch, tmp_path):
    checks_only(monkeypatch, "lie_")  # the checks that read the ledger
    p = _consistent_corruption(tmp_path)
    code, out = run(capsys, "verify", "--quick", "--ledger", str(p), "--format", "json")
    assert code == 1
    ledger = next(c for c in json.loads(out)["checks"] if c["name"] == "lie_ledger")
    assert ledger["status"] == "FAIL"
    assert ledger["error"].startswith("FalsificationError: ledger cases with problems [('pcl5_3', ")
    # a malformed ledger is a usage error, found before any check runs
    text = Path(default_ledger_path()).read_text(encoding="utf-8")
    p = tmp_path / "malformed.ledger"
    p.write_text(text.replace("answer C10,1 B6,1", "answer (A10,1)^2 B6,1"))
    code = main(["verify", "--quick", "--ledger", str(p), "--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.endswith("case pcl4_3: answer dimension is off\n"), captured.err


def test_ledger_flag_reaches_lieframed_coverage(capsys, monkeypatch, tmp_path):
    text = Path(default_ledger_path()).read_text(encoding="utf-8")
    # row 13 of the lieframed table has this ledger case as its only source
    p = tmp_path / "bad.ledger"
    p.write_text(text.replace("answer D4,4 (A2,2)^4", "answer D4,1 (A2,1)^4", 1))
    code, out = run(capsys, "lie", "tables", "--which", "lieframed", "--ledger", str(p))
    assert code == 1
    data = json.loads(out)
    assert [r["no"] for r in data["rows"] if r["status"] == "UNCOVERED"] == [13]
    checks_only(monkeypatch, "lie_")  # the checks that read the ledger
    code, out = run(capsys, "verify", "--quick", "--ledger", str(p))
    assert code == 1
    assert "FAIL lie_lieframed_coverage" in out


def test_unsound_case_is_no_lieframed_source(capsys, monkeypatch, tmp_path):
    # the solver does not find this extra solution, so the case has a
    # problem; row 13 of the lieframed table has this case as its only source
    text = Path(default_ledger_path()).read_text(encoding="utf-8")
    end = text.index("end\n", text.index("case even(5,1,0,+)"))
    p = tmp_path / "also.ledger"
    p.write_text(text[:end] + "also A6,1 (A1,1)^4\n" + text[end:])
    code, out = run(capsys, "lie", "tables", "--which", "ta8", "--ledger", str(p))
    assert code == 1
    assert [r["no"] for r in json.loads(out)["rows"] if r["status"] == "MISMATCH"] == [13]
    code, out = run(capsys, "lie", "tables", "--which", "lieframed", "--ledger", str(p))
    assert code == 1
    rows = {r["no"]: r for r in json.loads(out)["rows"]}
    assert rows[13]["status"] == "UNCOVERED" and rows[13]["sources"] == ""
    assert [no for no, r in rows.items() if r["status"] != "COVERED"] == [13]
    checks_only(monkeypatch, "lie_lieframed_coverage")
    code, out = run(capsys, "verify", "--quick", "--ledger", str(p), "--format", "json")
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "FAIL"


def test_ledger_missing_a_published_case_is_a_mismatch(capsys, monkeypatch, tmp_path):
    text = Path(default_ledger_path()).read_text(encoding="utf-8")
    record = text[text.index("case odd(5,3,1)") :]
    record = record[: record.index("end\n") + 4]
    p = tmp_path / "short.ledger"
    p.write_text(text.replace(record, "", 1))
    code, out = run(capsys, "lie", "tables", "--which", "ta8", "--ledger", str(p))
    assert code == 1
    status = {r["case"]: r["status"] for r in json.loads(out)["rows"]}
    assert status.pop("odd(5,3,1)") == "MISMATCH"
    assert set(status.values()) == {"MATCH"}
    checks_only(monkeypatch, "lie_")  # the checks that read the ledger
    code, out = run(capsys, "verify", "--quick", "--ledger", str(p), "--format", "json")
    assert code == 1
    results = json.loads(out)["checks"]
    assert {c["status"] for c in results} == {"FAIL"}  # all four, and no ERROR
    errors = {c["name"]: c["error"] for c in results}
    assert errors == {
        "lie_candidate_tables": "FalsificationError: candidate tables with problems "
        "[('odd(5,3,1)', ['case not in the ledger'])], expected []",
        "lie_ledger": "FalsificationError: ledger cases 20, expected 21",
        "lie_published_tables": "FalsificationError: published rows that disagree with the "
        "ledger reports [('odd(5,3,1)', 'missing')], expected []",
        "lie_lieframed_coverage": "FalsificationError: uncovered lieframed rows (no, dim, "
        "algebra) [(53, 240, 'E7,2 B5,1 F4,1')], expected []",
    }


def test_lie_tables_and_verify_agree_on_an_unsound_case(capsys, monkeypatch, tmp_path):
    # even(5,5,0,+) has two solutions, so calling it arithmetic-unique is a
    # problem of the case even though its row values agree with TA8
    text = Path(default_ledger_path()).read_text(encoding="utf-8")
    record = text.index("case even(5,5,0,+)")
    flipped = text[record:].replace("uniqueness identification-only", "uniqueness arithmetic", 1)
    p = tmp_path / "flipped.ledger"
    p.write_text(text[:record] + flipped)
    code, out = run(capsys, "lie", "tables", "--which", "ta8", "--ledger", str(p))
    assert code == 1
    rows = json.loads(out)["rows"]
    assert [r["case"] for r in rows if r["status"] == "MISMATCH"] == ["even(5,5,0,+)"]
    checks_only(monkeypatch, "lie_published_tables")
    code, out = run(capsys, "verify", "--quick", "--ledger", str(p), "--format", "json")
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["status"] == "FAIL"
    assert check["error"] == (
        "FalsificationError: published rows that disagree with the ledger reports "
        "[('even(5,5,0,+)', 744, 'D16,1 E8,1', 69, "
        "['marked arithmetic-unique but the solver found more'])], expected []"
    )


def test_lie_ledger_output_ignores_the_hash_seed():
    # the ledger builds sets of solutions; their order must not reach stdout
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": "123"}
    argv = [sys.executable, "-m", "framedlie", "lie", "ledger"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    golden = Path(__file__).resolve().parent / "golden" / "lie_ledger.out"
    assert (done.returncode, done.stdout) == (0, golden.read_text()), done.stderr


def test_fusion_laws_check_raises_falsification(capsys, monkeypatch):
    add = modlabels.rx_add

    def lopsided(a, b):  # keeps the sign of the first factor: not commutative
        x = add(a, b).packed & ~modlabels._SIGN | a.packed & modlabels._SIGN
        return modlabels.RXLabel.from_packed(x)

    monkeypatch.setattr(modlabels, "rx_add", lopsided)
    checks_only(monkeypatch, "fusion_")
    code, out = run(capsys, "verify", "--format", "json")
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert (check["name"], check["status"]) == ("fusion_group_laws", "FAIL")
    assert check["error"].startswith(
        "FalsificationError: fusion product not commutative and associative on (RXLabel(twist="
    ), check["error"]
    assert check["error"].count("RXLabel(twist=") == 3, check["error"]


@pytest.mark.parametrize("fault", ["per_case", "shared_orbit"])
def test_census_check_raises_falsification(capsys, monkeypatch, fault):
    real = cli.framed.census_small(1)
    if fault == "per_case":  # one subspace moved from cond1 to cond2; the total holds
        per_case = dict(real.per_case, cond1=7, cond2=9)
        wrong = dataclasses.replace(real, per_case=per_case)
        want = "m = 1 census: (subspaces, orbits) per case {'cond1': (7, 1), 'cond2': (9, 1),"
    else:
        orbits = dict.fromkeys(real.built_case_orbits, 0)
        wrong = dataclasses.replace(real, built_case_orbits=orbits, built_distinct=False)
        want = "m = 1 census: built cases share an orbit: even(1,1,0,+), odd(1,0,0)"
    monkeypatch.setattr(cli.framed, "census_small", lambda m: wrong)
    checks_only(monkeypatch, "census_m1")
    code, out = run(capsys, "verify", "--format", "json")
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert (check["name"], check["status"]) == ("census_m1", "FAIL")
    assert check["error"].startswith(f"FalsificationError: {want}"), check["error"]


def test_minnorm_cross_check_catches_a_wrong_row(capsys, monkeypatch):
    # send untwisted labels with eps = delta = sign = 0 and wt(c) = 4 to row 5
    table = bytearray(modlabels._ROW_TABLE)
    assert table[4] == 4
    table[4] = 5
    monkeypatch.setattr(modlabels, "_ROW_TABLE", bytes(table))
    modlabels.coordinate_row_table.cache_clear()  # it is built from _ROW_TABLE
    try:
        label = modlabels.RXLabel(0, 0, 0b11110, 0, 0)
        assert modlabels.orbit_class(label) == 5
        with pytest.raises(FalsificationError, match="min-norm decoder disagree"):
            modlabels.orbit_class(label, verify=True)
        checks_only(monkeypatch, "table2_")
        code, out = run(capsys, "verify", "--quick")
        assert code == 1
        assert out.startswith("FAIL table2_minnorm_sample: orbit table and min-norm decoder disagree")
    finally:
        modlabels.coordinate_row_table.cache_clear()
