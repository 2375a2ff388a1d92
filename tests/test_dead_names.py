"""No dead names: every top-level function and method of the package is referenced
somewhere in the package outside its own body, or is allowed below with its reason."""

import ast
import pathlib
from collections import Counter

import framedlie

SRC = pathlib.Path(framedlie.__file__).parent

ALLOWED = {
    # removing a name that perfbench/tracing.py wraps is a benchmark change (ROADMAP item 6)
    "quadspace.max_ts_extend": "a WRAPPED name of the benchmark's tracer",
    "modlabels.RVModel.lowest": "a WRAPPED name of the benchmark's tracer",
    "modlabels.nu": "the tests' fusion oracle reads it",
}


def _references(node: ast.AST) -> Counter:
    """How often each name is read in node: Name ids, Attribute attrs, and cmd_<name> for
    each cmd=<name> keyword, as cli.main looks each subcommand's handler up that way."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.keyword) and n.arg == "cmd" and isinstance(n.value, ast.Constant):
            refs[f"cmd_{n.value.value}"] += 1
    return refs


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, node) of each top-level function and method; dunder
    methods are left out, as Python calls them by protocol."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub


def dead_names(sources: dict[str, str]) -> list[str]:
    """The qualified names in sources (module name -> text) that nothing outside their own
    body references."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    return sorted(
        qualified
        for module, tree in trees.items()
        for qualified, name, node in _definitions(tree, module)
        if refs[name] - _references(node)[name] <= 0
    )


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_every_function_and_method_is_referenced():
    assert dead_names(_package_sources()) == sorted(ALLOWED)


def test_the_lint_sees_a_dead_name():
    sources = _package_sources()
    sources["framed"] += (
        "\n\ndef _even_builder(m, k1, k2, eps, seed=0):\n"
        "    return build_case(even_case(m, k1, k2, eps), seed)\n"
    )
    assert dead_names(sources) == sorted([*ALLOWED, "framed._even_builder"])
    # a call from its own body only does not count
    sources["framed"] += "\n\ndef _loop(n):\n    return _loop(n - 1) if n else 0\n"
    assert dead_names(sources) == sorted([*ALLOWED, "framed._even_builder", "framed._loop"])
