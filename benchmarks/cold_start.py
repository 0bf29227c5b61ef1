"""Cold-start time of a fresh interpreter that imports the package, before
and after a change to what it imports.

    python3 benchmarks/cold_start.py --parent REV [--out BENCH_cold_start.json]

Every CLI call and every `setup_s` sample of perfbench/run.py is a fresh
interpreter, so on small inputs the imports are most of its time. Each
row times REPEATS starts of a nested `python -c` (its wall seconds, from
spawn to exit) with the sources of git revision REV ("parent" rows) and
with the sources of this checkout ("change" rows), in the alternating
order of benchmarks/common.py. The nested interpreter, not the child
itself, is timed because the child's preamble has already imported the
standard modules, such as `fractions` and `decimal`, whose loading is
part of a cold start. One unmeasured start comes first, which writes
the bytecode caches where the environment allows it; each row says
whether it does (`bytecode_writes`), as a start that compiles every
module from source takes longer. `nested_peak_rss_mb` is the largest
peak resident size of the nested interpreters; `peak_rss_mb`, as in
every script here, is the child's own.

Operations:
- `bare interpreter`: `python -c pass`, the floor under every start;
- `import+load_graph`: `import clique_census` and `load_graph` of one
  edge-list file, a dense `gnp(60, 1/2)` and a sparse `gnp(2000, 1/200)`,
  as a `setup_s` sample does. It prints n and m, which must be the
  file's;
- `cli count`: `main(["count", FILE])` on `gnp(500, 1/50)`, a cold CLI
  count as the installed `clique-census` script runs it. Its output must
  equal the parent's.

Graphs are G(n, p) with seed 1, drawn by common's `gnp_edges`. The script
exits 1, after writing the file, if any check fails.
"""

from __future__ import annotations

import sys

from common import compare

# Runs after common's preamble; `case` holds the operation and, unless
# it is "bare", the graph's n and p.
_CHILD = r"""
import resource, subprocess
code = {
    "bare": "pass",
    "load": "import sys; sys.path.insert(0, sys.argv[1]); import clique_census; "
            "g = clique_census.load_graph(sys.argv[2]); print(g.n, g.edge_count)",
    "count": "import sys; sys.path.insert(0, sys.argv[1]); "
             "from clique_census.cli import main; sys.exit(main(['count', sys.argv[2]]))",
}[case["operation"]]
m = None
if "n" in case:
    edges = gnp_edges(case["n"], case["p"], 1)
    m = len(edges)
    with open("g.txt", "w") as fh:
        fh.write(f"{case['n']} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges))
command = [sys.executable, "-c", code, sys.argv[1], "g.txt"]
subprocess.run(command, check=True, capture_output=True, timeout=120)
seconds, steady = [], []
for _ in range(REPEATS):
    # the probe samples this process while the nested one runs on another core
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        out = subprocess.run(command, check=True, capture_output=True, text=True,
                             timeout=120)
        wall = time.perf_counter() - t0
    seconds.append(wall)
    steady.append(wall * probe.scale)
# the largest peak resident size of the nested interpreters
nested = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
report({"m": m, "bytecode_writes": not sys.flags.dont_write_bytecode,
        "seconds": seconds, "median_s": statistics.median(seconds),
        "steady_s": steady, "steady_median_s": statistics.median(steady),
        "nested_peak_rss_mb": nested, "output": out.stdout.strip()})
"""

CASES = [
    ({"operation": "bare interpreter", "graph": None}, {"operation": "bare"}),
    *[({"operation": "import+load_graph", "graph": f"gnp({n},{name})"},
       {"operation": "load", "n": n, "p": p})
      for n, name, p in ((60, "1/2", 1 / 2), (2000, "1/200", 1 / 200))],
    ({"operation": "cli count", "graph": "gnp(500,1/50)"},
     {"operation": "count", "n": 500, "p": 1 / 50}),
]
REPEATS = 15


def check(case, row, parent):
    if case["operation"] == "load":
        return "output == the file's n m", row["output"] == f"{case['n']} {row['m']}"
    return "output == parent's output", row["output"] == parent["output"]


def main(argv=None) -> int:
    return compare(argv, script=__file__, doc=__doc__, out="BENCH_cold_start.json",
                   what="wall seconds of a fresh interpreter's start, import and call, "
                        "parent sources against this checkout's",
                   cases=CASES, child=_CHILD, check=check, repeats=REPEATS)


if __name__ == "__main__":
    sys.exit(main())
