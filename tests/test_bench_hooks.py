"""The package still meets what the benchmark in perfbench/ relies on.

`perfbench/run.py --trace 1` rebinds the names in `perfbench/tracing.py`
`WRAPPED`; a name deleted or renamed in the package would break it.  A
benchmark pass fails when an lru_cache in the package already holds
entries once its ops are built.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_building_the_ops_fills_no_cache():
    # in a fresh process, as the benchmark worker runs: import, then build every workload's ops
    code = (
        "import tracing, workloads\n"
        "for w in workloads.WORKLOADS:\n"
        "    workloads.make_ops(w, 0)\n"
        "print(tracing.stale_caches())\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
