"""Per-layer figures for the benchmark's traced run (--trace 1).

Spans are recorded around the package's calls from one module into
another, by replacing the name in the calling module's namespace (for
example clique_census.audit.build_tree).  Per-node helpers such as
min_degree_vertex are never wrapped, and nothing under src/ changes.

A traced run alternates untraced and traced rounds until the run's
seconds are used, then measures the memory peaks.  Each figure is the
median over the traced rounds, scaled like the end-to-end times (see
speed.py); span times include the speed probe's samples that land in
them, about 3%.  trace.overhead_ratio is the median traced round over
the median untraced round.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

# name -> (unit, what it is); the order is the order of the report.
PER_LAYER = {
    "graph.load_s": ("s", "load_graph called by the CLI"),
    "tree.degeneracy_s": ("s", "degeneracy called by the root split"),
    "audit.degeneracy_s": ("s", "degeneracy called by audit_graph"),
    "audit.induced_subgraph_s": ("s", "induced_subgraph called by the audit"),
    "backend.census_of_subset_s": ("s", "kernel time under census, both thread counts"),
    "backend.calls": ("count", "kernel calls under census, both thread counts"),
    "backend.largest_job_share": ("ratio", "largest root-split job / cliques below the root"),
    "tree.census_t2_s": ("s", "census(threads=2) over the graphs, end to end"),
    "tree.root_split_s": ("s", "census(threads=2) minus its kernel and degeneracy time"),
    "tree.enumerate_s": ("s", "time inside the enumerate_cliques generator"),
    "cli.enumerate_self_s": ("s", "CLI enumerate minus load and generator time"),
    "cli.enumerate_alloc_peak_mb": ("MB", "peak memory growth of the CLI enumerate"),
    "audit.build_tree_s": ("s", "build_tree called by the audit"),
    "audit.tree_nodes": ("count", "nodes built by those build_tree calls"),
    "audit.count_cliques_s": ("s", "count_cliques called by the audit"),
    "audit.build_skeleton_s": ("s", "build_skeleton"),
    "audit.skeleton_nodes": ("count", "skeleton nodes"),
    "audit.boundary_cases_s": ("s", "audit_boundary_cases self time, without windows"),
    "audit.dense_window_s": ("s", "audit_dense_window"),
    "audit.dense_windows": ("count", "audit_dense_window calls"),
    "audit.bound_checks_s": ("s", "audit_skeleton_size and audit_total"),
    "audit.alloc_peak_mb": ("MB", "peak memory growth of audit_graph"),
    "subdivision.has_subdivision_s": ("s", "has_subdivision called by the audit"),
    "subdivision.extract_s": ("s", "extract_subdivision_dense called by the audit"),
    "subdivision.verify_witness_s": ("s", "verify_witness called by the audit"),
    "trace.overhead_ratio": ("ratio", "traced round time / untraced round time"),
}

# (module, attribute, span name, what to keep of the result)
WRAPPED = [
    ("cli", "load_graph", "graph.load", None),
    ("tree", "degeneracy", "tree.degeneracy", None),
    ("audit", "degeneracy", "audit.degeneracy", None),
    ("audit", "induced_subgraph", "audit.induced_subgraph", None),
    ("backend", "census_of_subset", "backend.census_of_subset", sum),
    ("audit", "build_tree", "audit.build_tree", lambda tree: tree.node_count),
    ("audit", "count_cliques", "audit.count_cliques", None),
    ("audit", "build_skeleton", "audit.build_skeleton", lambda sk: sk.size),
    ("audit", "audit_boundary_cases", "audit.boundary_cases", None),
    ("audit", "audit_dense_window", "audit.dense_window", None),
    ("audit", "audit_skeleton_size", "audit.bound_checks", None),
    ("audit", "audit_total", "audit.bound_checks", None),
    ("audit", "has_subdivision", "subdivision.has_subdivision", None),
    ("audit", "extract_subdivision_dense", "subdivision.extract", None),
    ("audit", "verify_witness", "subdivision.verify_witness", None),
]


class Tracer:
    """Collects spans (name, start, end, kept value) per operation."""

    def __init__(self, cc):
        self.cc = cc
        self.lock = threading.Lock()
        self.spans: list[tuple] = []
        self.ops: list[tuple] = []  # (op, wall, scale, spans of the op)

    def begin(self, name, op):
        self.spans = []

    def end(self, name, op, wall, scale):
        self.ops.append((op, wall, scale, self.spans))

    def _record(self, name, start, end, kept):
        with self.lock:  # census(threads=2) records from worker threads
            self.spans.append((name, start, end, kept))

    def _wrap(self, fn, name, keep):
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            self._record(name, start, perf_counter(), keep(result) if keep else None)
            return result
        return wrapper

    def _wrap_generator(self, fn, name):
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            busy = 0.0
            try:
                while True:
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        busy += perf_counter() - start
                        return
                    busy += perf_counter() - start
                    yield item
            finally:
                self._record(name, None, None, busy)
        return wrapper

    @contextmanager
    def installed(self):
        modules = {m: getattr(self.cc, m) for m in ("cli", "tree", "audit", "backend")}
        saved = []
        for mod, attr, name, keep in WRAPPED:
            saved.append((modules[mod], attr, getattr(modules[mod], attr)))
            setattr(modules[mod], attr, self._wrap(saved[-1][2], name, keep))
        saved.append((modules["cli"], "enumerate_cliques", modules["cli"].enumerate_cliques))
        modules["cli"].enumerate_cliques = self._wrap_generator(
            saved[-1][2], "tree.enumerate")
        try:
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


# Allocation peaks come from a fresh interpreter per graph and operation:
# the growth of its peak resident size (VmHWM) over the operation.
# tracemalloc would give the allocation peak directly, but it slowed the
# sparse round sixteenfold (227 s against 14 s), more than a run may take.
_PEAK_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import clique_census, clique_census.cli
def kb(field):
    with open("/proc/self/status") as fh:
        return next(int(l.split()[1]) for l in fh if l.startswith(field + ":"))
path, op, t, assume, out = sys.argv[2:]
g = clique_census.load_graph(path) if op == "audit" else None
base = kb("VmRSS")
if op == "enumerate":
    clique_census.cli.main(["enumerate", path, "--output", out])
else:
    cfg = clique_census.AuditConfig(t=int(t), assume_subdivision_free=assume == "1")
    clique_census.audit_graph(g, cfg)
print((kb("VmHWM") - base) / 1024)
"""


def memory_peaks(runner, src: str) -> dict[str, float]:
    """Largest peak growth in MB over the graphs, per operation."""
    peaks = {}
    for op in ("enumerate", "audit"):
        growth = []
        for inp in runner.inputs:
            out = subprocess.run(
                [sys.executable, "-c", _PEAK_PROBE, src, inp.path, op, str(inp.t),
                 str(int(inp.assume_free)), str(runner.work / "probe.txt")],
                check=True, capture_output=True, text=True, timeout=170,
            )
            growth.append(float(out.stdout.strip().splitlines()[-1]))
        peaks[op] = max(growth)
    return peaks


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _figures(ops) -> dict[str, float]:
    """Per-layer figures of one traced round."""
    fig = dict.fromkeys(PER_LAYER, 0.0)
    largest = below_root = 0

    def busy(spans, name):
        return sum(e - s for n, s, e, _ in spans if n == name)

    for op, wall, scale, spans in ops:
        for span_name, metric in (("graph.load", "graph.load_s"),
                                  ("tree.degeneracy", "tree.degeneracy_s"),
                                  ("audit.degeneracy", "audit.degeneracy_s"),
                                  ("audit.induced_subgraph", "audit.induced_subgraph_s"),
                                  ("audit.build_tree", "audit.build_tree_s"),
                                  ("audit.count_cliques", "audit.count_cliques_s"),
                                  ("audit.build_skeleton", "audit.build_skeleton_s"),
                                  ("audit.dense_window", "audit.dense_window_s"),
                                  ("audit.bound_checks", "audit.bound_checks_s"),
                                  ("subdivision.has_subdivision", "subdivision.has_subdivision_s"),
                                  ("subdivision.extract", "subdivision.extract_s"),
                                  ("subdivision.verify_witness", "subdivision.verify_witness_s")):
            fig[metric] += busy(spans, span_name) * scale
        fig["audit.tree_nodes"] += sum(k for n, _, _, k in spans if n == "audit.build_tree")
        fig["audit.skeleton_nodes"] += sum(k for n, _, _, k in spans if n == "audit.build_skeleton")
        fig["audit.dense_windows"] += sum(1 for n, *_ in spans if n == "audit.dense_window")

        if op in ("census", "census_t2"):
            kernel = [(s, e) for n, s, e, _ in spans if n == "backend.census_of_subset"]
            # threads=2 runs jobs side by side: count covered wall time once
            fig["backend.census_of_subset_s"] += _union(kernel) * scale
            fig["backend.calls"] += len(kernel)
        if op == "census_t2":
            jobs = [k for n, _, _, k in spans if n == "backend.census_of_subset"]
            largest += max(jobs, default=0)
            below_root += sum(jobs)
            fig["tree.root_split_s"] += (wall - _union(kernel)
                                         - busy(spans, "tree.degeneracy")) * scale
        if op == "enumerate":
            generator = sum(k for n, _, _, k in spans if n == "tree.enumerate")
            fig["tree.enumerate_s"] += generator * scale
            fig["cli.enumerate_self_s"] += (wall - busy(spans, "graph.load")
                                            - generator) * scale
        for n, s, e, _ in spans:
            if n == "audit.boundary_cases":
                inner = [(max(s, s2), min(e, e2)) for n2, s2, e2, _ in spans
                         if n2 in ("audit.induced_subgraph", "audit.count_cliques",
                                   "audit.dense_window") and s2 < e and e2 > s]
                fig["audit.boundary_cases_s"] += (e - s - _union(inner)) * scale
    fig["backend.largest_job_share"] = largest / below_root if below_root else 0.0
    return fig


def traced_run(cc, runner, seconds: float, src: str) -> dict[str, dict]:
    """Untraced and traced rounds in turn, then the memory peaks."""
    untraced, traced = [], []
    t_end = perf_counter() + seconds
    while not (untraced and traced) or perf_counter() < t_end:
        if len(untraced) <= len(traced):
            ops = runner.round()
            untraced.append(sum(raw * scale for _, _, raw, scale in ops))
        else:
            tracer = Tracer(cc)
            with tracer.installed():
                ops = runner.round(tracer)
            figures = _figures(tracer.ops)
            figures["tree.census_t2_s"] = sum(raw * scale for _, op, raw, scale in ops
                                              if op == "census_t2")
            traced.append((sum(raw * scale for _, _, raw, scale in ops), figures))

    peaks = memory_peaks(runner, src)
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        if name == "trace.overhead_ratio":
            value = (statistics.median(t for t, _ in traced)
                     / statistics.median(untraced))
        elif name == "cli.enumerate_alloc_peak_mb":
            value = peaks["enumerate"]
        elif name == "audit.alloc_peak_mb":
            value = peaks["audit"]
        else:
            value = statistics.median(f[name] for _, f in traced)
        out[name] = {"value": value, "unit": unit}
        print(f"{name} {value:.6g} {unit}")
    print(f"traced rounds: {len(traced)}, untraced rounds: {len(untraced)}")
    return out
