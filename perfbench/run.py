"""framedlie benchmark: three workloads of real operations, checked.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {frames,labels,census} --seed N \
        --seconds S --trace {0,1}

Load is one closed-loop client: ops run one at a time in one process
with no extra threads, because the reference box has two cores.  Each
pass of a workload's ops runs in a fresh process (see worker.py), one
pass after another.  ``--seconds`` sets how many passes a run makes,
from the pass time measured when the benchmark was defined, so every
commit does the same work per run.

--trace 0 prints the end-to-end metrics: pass wall time, median and
tail op latency, set-up time (process start to first op, median over
every process started) and peak RSS.  --trace 1 runs an untraced pass,
two traced passes and one untraced pass at a held-out seed; it prints
per-layer calls, self time and work counts derived from the span dump of
the traced passes, the tracing overhead, and fails the run if the exact
counts of the two traced passes differ.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name with its unit, and the run's context.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

# Seconds one untraced pass took when the benchmark was defined (2-core
# x86-64 VM, CPython 3.11); fixes the passes per run for every later commit.
NOMINAL_PASS_S = {"frames": 18.5, "labels": 13.0, "census": 16.5}
# Set-up probes run before, between and after the passes, so that set-up
# time is sampled across the whole run and not in one few-second window.
PROBES_PER_GAP = 4
PASS_TIMEOUT_S = 170
HELD_OUT_OFFSET = 1_000_003
TAIL_BEYOND = 10


def _worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["first_op"] - spawned
    return out


def tail(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND ops above it."""
    lat = sorted(latencies)
    n = len(lat)
    for p in range(99, 0, -1):
        k = math.ceil(p * n / 100)
        if k >= 1 and n - k >= TAIL_BEYOND:
            return p, lat[k - 1]
    return 0, lat[0]


def _failures(passes: list[dict]) -> list[str]:
    out = [f"stale lru_cache at pass start: {c}" for p in passes for c in p["stale_caches"]]
    out += [f"{name}: {err.strip().splitlines()[-1]}" for p in passes for name, _, err in p.get("ops", ()) if err]
    return out


def timed_run(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict], list[str], list[str]]:
    n_passes = max(1, round(seconds / NOMINAL_PASS_S[workload]))
    passes, probes = [], []
    for k in range(n_passes + 1):
        probes += [_worker(workload, seed, "--setup-only") for _ in range(PROBES_PER_GAP)]
        if k < n_passes:
            passes.append(_worker(workload, seed))
    latencies = [ms for p in passes for _, ms, _ in p["ops"]]
    pct, tail_ms = tail(latencies)
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes + probes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    notes = [
        f"passes: {n_passes} of {len(passes[0]['ops'])} ops; setup samples: {len(passes) + len(probes)}",
        f"op_tail_ms is p{pct} of {len(latencies)} ops ({TAIL_BEYOND} or more beyond it)",
    ]
    return metrics, passes + probes, notes, []


def traced_run(workload: str, seed: int) -> tuple[dict, list[dict], list[str], list[str]]:
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    plain = _worker(workload, seed)
    dumps = [out_dir / f"trace-{workload}-{seed}-{k}.spans" for k in ("a", "b")]
    traced = [_worker(workload, seed, "--trace-dump", str(d)) for d in dumps]
    held_out = _worker(workload, seed + HELD_OUT_OFFSET)
    tables = [tracing.layer_table(d) for d in dumps]
    problems = [
        f"{name} differs between traced passes: {tables[0][name]} vs {tables[1][name]}"
        for name in tracing.COUNT_METRICS
        if tables[0][name] != tables[1][name]
    ]
    for t, p in zip(tables, traced):
        if t["op_spans"] != len(p["ops"]):
            problems.append(f"span dump holds {t['op_spans']} op spans for {len(p['ops'])} ops")
    if len(held_out["ops"]) != len(plain["ops"]):
        problems.append(f"held-out seed ran {len(held_out['ops'])} ops, not {len(plain['ops'])}")
    metrics = {}
    for name, unit in tracing.METRICS:
        vals = [t[name] for t in tables]
        metrics[name] = (vals[0] if unit in ("count", "ratio") else statistics.mean(vals), unit)
    traced_wall = statistics.mean(p["wall_s"] for p in traced)
    metrics["trace.overhead_s"] = (traced_wall - plain["wall_s"], "s")
    notes = [
        f"span dumps: {', '.join(str(d.relative_to(ROOT)) for d in dumps)}",
        f"untraced wall {plain['wall_s']:.3f} s, traced wall {traced_wall:.3f} s",
        f"held-out seed {seed + HELD_OUT_OFFSET}: {len(held_out['ops'])} ops",
    ]
    return metrics, [plain, *traced, held_out], notes, problems


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return ref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(NOMINAL_PASS_S))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "framedlie" / "__init__.py").is_file():
        print(f"no framedlie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.trace:
        metrics, passes, notes, problems = traced_run(args.workload, args.seed)
    else:
        metrics, passes, notes, problems = timed_run(args.workload, args.seed, args.seconds)
    failures = _failures(passes) + problems
    attempted = sum(len(p.get("ops", ())) for p in passes)
    failed = sum(1 for p in passes for *_, err in p.get("ops", ()) if err)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"python {platform.python_version()} nproc {os.cpu_count()} commit {_commit()}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed}/{attempted}")
    for f in failures:
        print(f"FAIL {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
