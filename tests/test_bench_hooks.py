"""Every function the benchmark's tracer wraps still exists in framedlie.

`perfbench/run.py --trace 1` rebinds the names in `perfbench/tracing.py`
`WRAPPED`; a name deleted or renamed in the package would break it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)  # imports only the standard library
    return mod.WRAPPED


@pytest.mark.parametrize("layer,dotted", [(l, d) for l, ds in _wrapped().items() for d in ds])
def test_wrapped_name_resolves(layer, dotted):
    obj = importlib.import_module(f"framedlie.{layer}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    assert callable(obj), f"framedlie.{layer}.{dotted}"
