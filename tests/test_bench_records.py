"""Layout of the committed benchmark records, BENCH_*.json at the repo root.

Each record holds the alternating parent/change runs of one workload of
`perfbench/run.py` and a summary of their medians and quartiles.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
METRICS = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
KEYS = ["workload", "command", "machine", "parent", "change", "pairs", "summary", "runs"]


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_layout(path):
    record = json.loads(path.read_text())
    assert list(record) == KEYS
    assert path.name == f"BENCH_{record['workload']}.json"
    assert f"--workload {record['workload']} " in record["command"]
    runs = record["runs"]
    assert [r["order"] for r in runs] == list(range(len(runs)))
    for run in runs:
        result = run["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) >= set(METRICS)
    assert set(record["summary"]) == set(METRICS)
    for side in ("parent", "change"):
        side_runs = [r for r in runs if r["side"] == side]
        assert len(side_runs) >= 5
        for name in METRICS:
            values = [r["result"]["metrics"][name]["value"] for r in side_runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            got = record["summary"][name][side]
            assert got == pytest.approx({"median": median, "q1": q1, "q3": q3}, abs=1e-4)
