"""A usage error travels to the command boundary: no handler in the package swallows one."""

import ast
import pathlib

import framedlie
from framedlie.gf2 import UsageError

SRC = pathlib.Path(framedlie.__file__).parent


def _names(node: ast.AST) -> set[str]:
    """The names and attribute names in node; only Name nodes have an id, only Attribute ones an attr."""
    return {getattr(n, "id", getattr(n, "attr", "")) for n in ast.walk(node)}


def _usage_error_sinks(source: str, boundary: str = "") -> list[str]:
    """Lines where a UsageError can stop: an except naming it that does not end in raise,
    outside the function named boundary, or a suppress call naming it."""
    tree = ast.parse(source)
    scope = {}
    for fn in ast.walk(tree):  # outer functions first, so the innermost one wins
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.update(dict.fromkeys(ast.walk(fn), fn.name))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type and "UsageError" in _names(node.type):
            if not isinstance(node.body[-1], ast.Raise) and scope.get(node) != boundary:
                out.append(f"{node.lineno}: except UsageError without raise")
        if isinstance(node, ast.Call) and "suppress" in _names(node.func):
            if any("UsageError" in _names(a) for a in node.args):
                out.append(f"{node.lineno}: suppress(UsageError)")
    return sorted(out, key=lambda s: int(s.partition(":")[0]))


def test_no_usage_error_is_swallowed():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        # cli.main turns a usage error into its message and exit code 2
        sinks = _usage_error_sinks(path.read_text(encoding="utf-8"), "main" if path.name == "cli.py" else "")
        if sinks:
            found[path.name] = sinks
    assert found == {}


def test_the_lint_sees_each_sink():
    source = (
        "import contextlib\n"
        "def f():\n"
        "    with contextlib.suppress(UsageError):\n"
        "        g()\n"
        "    try:\n"
        "        g()\n"
        "    except (KeyError, gf2.UsageError):\n"
        "        pass\n"
        "    try:\n"
        "        g()\n"
        "    except UsageError as exc:\n"
        "        raise RuntimeError(str(exc)) from None\n"
        "def main():\n"
        "    try:\n"
        "        g()\n"
        "    except UsageError:\n"
        "        return 2\n"
    )
    assert _usage_error_sinks(source, "main") == ["3: suppress(UsageError)", "7: except UsageError without raise"]
    assert _usage_error_sinks(source)[-1] == "16: except UsageError without raise"


def test_usage_error_is_no_value_error():
    # so an `except ValueError` around an int() parse cannot catch one
    assert not issubclass(UsageError, ValueError)
