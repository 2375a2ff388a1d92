"""One pass of one workload, in a fresh process.

Usage: python3 perfbench/worker.py --workload W --seed N [--trace-dump PATH]
       [--setup-only]

Prints one JSON line: the monotonic time at which the first op started,
each op's latency and failure, the pass wall time and peak RSS.  A fresh
process per pass matters: ``framed.census_small`` and
``liesolver.load_ledger`` are ``lru_cache``d, and a second pass in one
process would time a dict lookup where CLI users pay the full cost.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import framedlie  # noqa: E402

if not Path(framedlie.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"framedlie imported from {framedlie.__file__}, not from this checkout")

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace-dump", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    ops = workloads.make_ops(args.workload, args.seed)
    # nothing may carry work into the ops from import or input generation
    stale = tracing.stale_caches()
    tracer = None
    if args.trace_dump:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    first = time.monotonic()
    if args.setup_only:
        print(json.dumps({"first_op": first, "stale_caches": stale}))
        return 0

    records = []
    for op_id, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            result = tracer.run_op(op_id, op.run) if tracer else op.run()
        except (Exception, SystemExit):
            ms, error = (time.perf_counter() - t0) * 1e3, traceback.format_exc(limit=3)
        else:
            ms = (time.perf_counter() - t0) * 1e3
            try:
                op.check(result)
                error = None
            except Exception:
                error = traceback.format_exc(limit=3)
        records.append([op.name, ms, error])
    wall = time.monotonic() - first
    if tracer:
        tracer.dump(args.trace_dump)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "first_op": first,
        "wall_s": wall,
        "peak_rss_mb": peak_kb / 1024,
        "stale_caches": stale,
        "ops": records,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
