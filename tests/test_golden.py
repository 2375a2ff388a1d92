"""Byte-for-byte replay of the golden outputs in tests/golden/.

Each command runs in-process through `cli.main`; its stdout and exit code
must equal the committed files.  `tests/golden/regen.py` rewrites them.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REGEN = Path(__file__).resolve().parent / "golden" / "regen.py"
_spec = importlib.util.spec_from_file_location("golden_regen", REGEN)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

COMMANDS = regen.commands()
EXIT_CODES = json.loads(regen.EXIT_CODES.read_text())


def test_corpus_is_complete():
    names = [name for name, _ in COMMANDS]
    assert sorted(names) == sorted(EXIT_CODES)
    assert sorted(p.stem for p in regen.GOLDEN.glob("*.out")) == sorted(names)


@pytest.mark.parametrize("name,argv", COMMANDS, ids=[name for name, _ in COMMANDS])
def test_golden_output(name, argv):
    code, out = regen.run(argv)
    assert code == EXIT_CODES[name]
    assert out == (regen.GOLDEN / f"{name}.out").read_text()
