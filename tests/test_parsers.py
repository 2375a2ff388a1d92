"""Property tests of the text parsers: every input gives a value or a
UsageError (exit 2 at the CLI), never another exception.  The CLI itself,
run on argv drawn from its grammar, exits 0, 1, 2 or 3 and raises nothing
but argparse's own exit 2; exit 4, an internal error, fails."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framedlie import cli, framed, liesolver
from framedlie.gf2 import UsageError

# characters that the parsers give meaning to, drawn more often than the rest
SYNTAX = "01 \n:=+-tecdsambientriplpair"

FRAME_TEXTS = [
    framed.to_text(sub)
    for sub in (
        framed.build_case(framed.even_case(2, 1, 1, "+"), seed=0),
        framed.build_case(framed.odd_case(3, 0, 0), seed=0),
        framed.build_pair_case("pcl4_5", seed=0),
    )
]
ANSWER_TEXTS = sorted({str(rec.answer) for rec in liesolver.load_ledger()})


@st.composite
def mutated(draw, texts):
    """One of the valid texts after one to three character or line edits,
    half of them in the header line."""
    text = draw(texts)
    char = st.one_of(st.sampled_from(SYNTAX), st.characters())
    for _ in range(draw(st.integers(1, 3))):
        header = text.find("\n") + 1 or len(text)
        i = draw(st.integers(0, draw(st.sampled_from([header, len(text)]))))
        op = draw(st.sampled_from(["delete", "insert", "replace", "truncate", "line"]))
        if op == "delete":
            text = text[:i] + text[i + 1 :]
        elif op == "insert":
            text = text[:i] + draw(char) + text[i:]
        elif op == "replace":
            text = text[:i] + draw(char) + text[i + 1 :]
        elif op == "truncate":
            text = text[:i]
        else:  # drop, duplicate or swap whole lines
            lines = text.split("\n")
            j = draw(st.integers(0, len(lines) - 1))
            k = draw(st.integers(0, len(lines) - 1))
            how = draw(st.sampled_from(["drop", "duplicate", "swap"]))
            if how == "drop":
                del lines[j]
            elif how == "duplicate":
                lines.insert(k, lines[j])
            else:
                lines[j], lines[k] = lines[k], lines[j]
            text = "\n".join(lines)
    return text


# parser, printer and valid texts of each text form
PARSERS = {
    "frame": (framed.from_text, framed.to_text, st.sampled_from(FRAME_TEXTS)),
    "decomposition": (liesolver.parse_decomposition, str, st.sampled_from(ANSWER_TEXTS)),
}


def _parses_or_usage_error(kind, text):
    """A parsed value prints to text that parses back to the same value."""
    parse, unparse, _ = PARSERS[kind]
    try:
        value = parse(text)
    except UsageError:
        return
    assert parse(unparse(value)) == value


@pytest.mark.parametrize("kind", list(PARSERS))
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_parser_on_any_text(kind, data):
    _parses_or_usage_error(kind, data.draw(st.one_of(st.text(), st.text(alphabet=SYNTAX))))


@pytest.mark.parametrize("kind", list(PARSERS))
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_parser_on_mutated_valid_text(kind, data):
    _parses_or_usage_error(kind, data.draw(mutated(PARSERS[kind][2])))


# tokens of `frame orbifold --base` and `lie solve --constraint`: a kind
# prefix, then a tail over the characters their grammars use
TOKENS = st.tuples(
    st.sampled_from(["even:", "odd:", "rank:", "ideal:", "rootideal:", "rootpart:", "partition:"]),
    st.text(alphabet="0123456789:,/+- "),
).map("".join)


@pytest.mark.parametrize(
    "parse", [cli._parse_case_token, liesolver.parse_constraint], ids=["case", "constraint"]
)
@settings(deadline=None, max_examples=300)
@given(token=TOKENS)
def test_cli_token_parser_on_any_token(parse, token):
    try:
        parse(token)
    except UsageError:
        pass


@pytest.fixture(scope="module")
def ledgers(tmp_path_factory):
    """Corrupted ledger files by kind: the first three make every command
    that reads --ledger exit 2; the last is parseable but wrong, exit 1."""
    root = tmp_path_factory.mktemp("ledgers")
    text = open(liesolver.default_ledger_path()).read()
    paths = {kind: root / f"{kind}.ledger" for kind in ("missing", "latin1", "malformed", "wrong")}
    paths["latin1"].write_bytes("case caf\xe9\n".encode("latin-1"))
    paths["malformed"].write_text(text.replace("answer C10,1 B6,1", "answer (A10,1)^2 B6,1"))
    paths["wrong"].write_text(text.replace("answer A8,2 F4,2", "answer A7,1 A5,1 A4,1 C2,1"))
    return {kind: str(path) for kind, path in paths.items()}


@st.composite
def argvs(draw, ledgers):
    """argv of one cheap command.  Sizes stay where a run takes milliseconds,
    and verify runs only on ledgers that stop it before its first check."""
    def num(lo, hi):
        return str(draw(st.integers(lo, hi)))

    kinds = ["qspace", "build", "census", "orbifold", "pair", "solve", "ledger", "tables", "verify"]
    kind = draw(st.sampled_from(kinds))
    if kind == "qspace":
        dim = draw(st.one_of(st.integers(-4, 28), st.integers(30, 70)))
        argv = ["qspace", "--dim", str(dim), "--type", draw(st.sampled_from(["plus", "minus"]))]
    elif kind == "build":
        argv = ["frame", "build", "--m", num(-1, 6), "--k1", num(-1, 6), "--k2", num(-1, 6)]
        argv += draw(st.sampled_from([[], ["--type", "plus"], ["--type", "minus"]]))
    elif kind == "census":
        argv = ["frame", "census", "--m", str(draw(st.sampled_from([-1, 0, 1, 3])))]
    elif kind == "orbifold":
        base = draw(st.one_of(TOKENS, st.sampled_from(["odd:5,4,0", "odd:3,0,0", "even:5,4,1,+"])))
        argv = ["frame", "orbifold", "--base", base, "--choices", num(-1, 4)]
    elif kind == "pair":
        case = draw(st.one_of(st.sampled_from(framed.PAIR_CASE_IDS), st.text()))
        argv = ["frame", "pair", "--case", case, "--seed", str(draw(st.integers()))]
    elif kind == "solve":
        argv = ["lie", "solve", "--dim", num(-5, 1000)]
        for token in draw(st.lists(TOKENS, max_size=3)):
            argv += ["--constraint", token]
    elif kind == "ledger":
        argv = ["lie", "ledger", "--ledger", draw(st.sampled_from(sorted(ledgers.values())))]
    elif kind == "tables":
        which = draw(st.sampled_from(["ta8", "ta16", "lieframed"]))
        ledger = draw(st.sampled_from(sorted(ledgers.values())))
        argv = ["lie", "tables", "--which", which, "--ledger", ledger]
    else:
        ledger = ledgers[draw(st.sampled_from(["missing", "latin1", "malformed"]))]
        argv = ["verify", "--quick", "--ledger", ledger]
    return argv + ["--format", draw(st.sampled_from(["json", "csv", "markdown"]))]


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_cli_exit_code_on_any_argv(ledgers, data):
    argv = data.draw(argvs(ledgers))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            assert exc.code == 2, argv
            return
    assert code in (0, 1, 2, 3), argv
