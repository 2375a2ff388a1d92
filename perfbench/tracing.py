"""Spans around the public functions of each framedlie layer.

The wrappers live here, in the benchmark, and are installed by rebinding
module and class attributes; no package source changes.  A function is
rebound under every name it is called by: its defining module and each
module that imported it by name.  Generators are not wrapped, so their
time counts as self time of the caller.

Spans are kept in flat arrays (name, start, end, parent span, op id) and
written to one file when the traced pass ends.  ``layer_table`` derives
calls, self time and work counts from that file alone.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
from array import array

# layer -> public functions (dotted for methods) whose spans are recorded.
# The comments name the end-to-end metric and workload each should move.
WRAPPED = {
    "framed": (
        "profile", "classify_triple",  # wall_s, op_p50_ms on frames; a little on labels
        "build_case", "MtsSubspace.validate", "z2_orbifold",
        "section47_orbifold_choices",  # wall_s, op_tail_ms on frames
        "census_small",  # wall_s, op_tail_ms, peak_rss_mb on census
        "build_pair_case", "rho_invariants", "weight1_dim_pair",  # wall_s, op_tail_ms on labels
    ),
    "quadspace": (
        "nonsingular_inside", "isometry", "symplectic_basis", "type_of",
        "QuadraticSpace.perp", "orthogonal_generators",  # wall_s, op_tail_ms on frames
        "singular_census", "max_ts_extend",  # op_p50_ms on census; a little on labels
    ),
    # wall_s on census (rref_ints) and on frames (wide-row builders)
    "gf2": ("rref", "rref_ints", "intersect", "subspace_sum", "complement_in", "kernel"),
    # wall_s, op_p50_ms on labels; setup_s if tables move to import time
    "modlabels": (
        "rx_add", "orbit_class", "coset_min_norm", "rx_census",
        "RXCoordinates.to_coords", "RXCoordinates.from_coords", "RVModel.lowest",
        "coordinatize",
    ),
    # wall_s on labels
    "liesolver": (
        "decompose", "candidates", "run_ledger", "run_case", "lieframed_coverage",
        "candidate_table_report", "parse_ledger",
    ),
    "cli": ("main",),  # self time is argparse and output; op_p50_ms on census
}


def _vectors_of_subspace(args, kwargs, result) -> int:
    return 1 << args[0].sub.dim


def _census_vectors(args, kwargs, result) -> int:
    s = args[1] if len(args) > 1 else kwargs.get("s")
    return 1 << (s.dim if s is not None else args[0].dim)


# work counted per call, recorded at the same boundary as the span
WORK = {
    "framed.profile": ("vectors", _vectors_of_subspace),
    "framed.classify_triple": ("vectors", _vectors_of_subspace),
    "framed.census_small": ("subspaces", lambda a, k, r: r.total),
    "quadspace.singular_census": ("vectors", _census_vectors),
    "liesolver.decompose": ("solutions", lambda a, k, r: len(r)),
}

# (name, unit) of every per-layer metric, in report order
METRICS = [
    (f"{layer}.{fn}.{kind}", unit)
    for layer, fns in WRAPPED.items()
    for fn in fns
    for kind, unit in (("calls", "count"), ("self_s", "s"))
]
METRICS += [(f"{name}.{kind}", "count") for name, (kind, _) in WORK.items()]
METRICS += [
    ("framed.profile.vectors_per_s", "1/s"),
    ("framed.classify_triple.vectors_per_s", "1/s"),
    ("framed.build_pair_case.completions_per_build", "ratio"),
]
# exact counts that must repeat across traced passes with one seed
COUNT_METRICS = [name for name, unit in METRICS if unit in ("count", "ratio")]

OP_SPAN = "op"


class Tracer:
    """Flat in-memory span store for one pass."""

    def __init__(self) -> None:
        self.names: list[str] = [OP_SPAN]
        self.name_ids = {OP_SPAN: 0}
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work: list[tuple[int, int]] = []  # (span index, count)
        self.stack = [-1]
        self.current_op = -1

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        work = WORK.get(name, (None, None))[1]
        names, parents, ops = self.name.append, self.parent.append, self.op.append
        starts, ends, stack, clock = self.start, self.end, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names(nid)
            parents(stack[-1])
            ops(tracer.current_op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                tracer.work.append((idx, work(args, kwargs, result)))
            return result

        return traced

    def run_op(self, op_id: int, fn):
        """Run one op under a root span that its child spans point to."""
        self.current_op = op_id
        return self.wrap(OP_SPAN, fn)()

    def dump(self, path) -> None:
        header = {"names": self.names, "n": len(self.start), "work": self.work}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.op, self.start, self.end):
                arr.tofile(fh)


def _framedlie_modules() -> list:
    import framedlie

    return [
        importlib.import_module(f"framedlie.{m.name}")
        for m in pkgutil.iter_modules(framedlie.__path__)
    ]


def install(tracer: Tracer) -> None:
    """Rebind every wrapped function under each name it is called by."""
    modules = _framedlie_modules()
    for layer, fns in WRAPPED.items():
        home = importlib.import_module(f"framedlie.{layer}")
        for dotted in fns:
            owner_name, _, attr = dotted.rpartition(".")
            if owner_name:
                owner = getattr(home, owner_name)
                setattr(owner, attr, tracer.wrap(f"{layer}.{dotted}", owner.__dict__[attr]))
                continue
            original = getattr(home, attr)
            wrapped = tracer.wrap(f"{layer}.{attr}", original)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)


def stale_caches() -> list[str]:
    """Every lru_cache in framedlie.* that holds entries, by qualified name."""
    out = []
    for mod in _framedlie_modules():
        holders = [vars(mod)] + [vars(v) for v in vars(mod).values() if isinstance(v, type)]
        for ns in holders:
            for val in ns.values():
                while val is not None and not hasattr(val, "cache_info"):
                    val = getattr(val, "__wrapped__", None)
                if val is not None and val.cache_info().currsize:
                    out.append(f"{mod.__name__}.{val.__qualname__}")
    return sorted(set(out))


def load(path) -> tuple[dict, dict]:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["n"]
        cols = {}
        for key, code in (("name", "H"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d")):
            arr = array(code)
            arr.fromfile(fh, n)
            cols[key] = arr
    return header, cols


def layer_table(path) -> dict[str, float]:
    """Per-layer metrics derived from one span dump.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    header, cols = load(path)
    names, parent, start, end = cols["name"], cols["parent"], cols["start"], cols["end"]
    n_names = len(header["names"])
    calls = [0] * n_names
    self_s = [0.0] * n_names
    child = array("d", [0.0]) * header["n"]
    for i in range(header["n"] - 1, -1, -1):  # children come after parents
        dur = end[i] - start[i]
        nid = names[i]
        calls[nid] += 1
        self_s[nid] += dur - child[i]
        p = parent[i]
        if p >= 0:
            child[p] += dur
    # install() registers every wrapped name, so each has an entry
    ids = header["names"]
    by_name = dict(zip(ids, zip(calls, self_s)))
    out: dict[str, float] = {}
    for layer, fns in WRAPPED.items():
        for fn in fns:
            out[f"{layer}.{fn}.calls"], out[f"{layer}.{fn}.self_s"] = by_name[f"{layer}.{fn}"]
    work = {f"{name}.{kind}": 0 for name, (kind, _) in WORK.items()}
    for idx, count in header["work"]:
        name = ids[names[idx]]
        work[f"{name}.{WORK[name][0]}"] += count
    out.update(work)
    for fn in ("profile", "classify_triple"):
        s = out[f"framed.{fn}.self_s"]
        out[f"framed.{fn}.vectors_per_s"] = out[f"framed.{fn}.vectors"] / s if s else 0.0
    # pair-completion attempts: max_ts_extend spans under a build_pair_case span
    bpc, mte = ids.index("framed.build_pair_case"), ids.index("quadspace.max_ts_extend")
    completions = 0
    for i in range(header["n"]):
        if names[i] == mte:
            p = parent[i]
            while p >= 0 and names[p] != bpc:
                p = parent[p]
            completions += p >= 0
    builds = out["framed.build_pair_case.calls"]
    out["framed.build_pair_case.completions_per_build"] = completions / builds if builds else 0.0
    out["op_spans"] = by_name[OP_SPAN][0]
    return out
