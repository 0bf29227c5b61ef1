"""The layers of the root split at n = 10^5, before and after a change to it.

    python3 benchmarks/root_split.py --parent REV [--out BENCH_root_split.json]

Times four operations on two sparse graphs with the sources of git
revision REV ("parent" rows) and with the sources of this checkout
("change" rows):

- `degeneracy`: `degeneracy(g)`, the min-degree peel;
- `census`: `census(g)`, the (degree, id) split and the kernel;
- `clique_blocks`: a full drain of `tree._clique_blocks(g)`, the peel,
  the split and the block walk under enumeration, without expanding or
  formatting a block;
- `audit_t8`: `audit_graph(g, AuditConfig(t=8))`.

Each row is one operation on one graph in a fresh interpreter that
imports only that side's `src/`, builds the graph, runs the operation
REPEATS times and reports every time, the median, a digest of the result
and the peak resident size (VmHWM, which includes building the graph).
Each time is recorded in wall seconds and in steady seconds, scaled to a
fixed host speed (benchmarks/common.py). Parent and change alternate
which runs first from one row to the next, so drift of the machine's
speed falls on both sides.

Graphs: `path_power(10^5, 6)` and `gnp(10^5, 10/n)` (seed 1, drawn by
common's `gnp_edges`). The change's digests must equal the parent's.

The script exits 1, after writing the file, if any check fails.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from common import ROOT, export_src, run_child, write_report

# Runs in a fresh interpreter after common's preamble: the arguments are
# family, operation, repeats.
_CHILD = r"""
import hashlib, json, statistics
import clique_census as cc
from clique_census.tree import _clique_blocks
family, op, repeats = sys.argv[3], sys.argv[4], int(sys.argv[5])
n = 100_000
g = cc.path_power(n, 6) if family == "path_power" else cc.Graph(n, gnp_edges(n, 10 / n, 1))

def drain():
    # (blocks, cliques they stand for), so both sides walk every block
    blocks = cliques = 0
    for chosen, tail, first in _clique_blocks(g):
        blocks += 1
        cliques += 2 ** len(tail) - (0 if first else 1)
    return blocks, cliques

run = {
    "degeneracy": lambda: cc.degeneracy(g),
    "census": lambda: cc.census(g).counts,
    "clique_blocks": drain,
    "audit_t8": lambda: json.dumps(cc.audit_graph(g, cc.AuditConfig(t=8)).to_json(),
                                   sort_keys=True),
}[op]
seconds, steady = [], []
for _ in range(repeats):
    raw, scaled, res = timed(run)
    seconds.append(raw)
    steady.append(scaled)
with open("/proc/self/status") as fh:
    peak = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024
print(json.dumps({"m": g.edge_count, "seconds": seconds,
                  "median_s": statistics.median(seconds), "steady_s": steady,
                  "steady_median_s": statistics.median(steady),
                  "digest": hashlib.sha256(repr(res).encode()).hexdigest()[:16],
                  "peak_rss_mb": peak}))
"""

GRAPHS = {"path_power": "path_power(100000,6)", "gnp": "gnp(100000,10/n)"}
OPERATIONS = ("degeneracy", "census", "clique_blocks", "audit_t8")
REPEATS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent rows")
    parser.add_argument("--out", default=str(ROOT / "BENCH_root_split.json"))
    args = parser.parse_args(argv)

    rows, problems = [], []
    with tempfile.TemporaryDirectory() as tmp:
        parent_sha = export_src(args.parent, Path(tmp))
        sources = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        turn = 0
        for family, name in GRAPHS.items():
            for op in OPERATIONS:
                sides = ("parent", "change") if turn % 2 == 0 else ("change", "parent")
                turn += 1
                got = {side: run_child(_CHILD, sources[side], family, op, REPEATS)
                       for side in sides}
                ok = got["change"]["digest"] == got["parent"]["digest"]
                if not ok:
                    problems.append(f"{name} {op}: change's result differs from the parent's")
                for side in ("parent", "change"):
                    row = {"side": side, "graph": name, "operation": op, **got[side],
                           "check": "digest == parent's digest"}
                    rows.append(row)
                    print(f"{side:6s} {name:22s} {op:14s} {row['median_s']:.3f} s, "
                          f"steady {row['steady_median_s']:.3f} s (medians of {REPEATS}) "
                          f"peak {row['peak_rss_mb']:.0f} MB"
                          + ("" if ok else "  CHECK FAILED"))

    return write_report(
        args.out, "root-split layers at n = 10^5, parent sources against this checkout's",
        "python3 benchmarks/root_split.py --parent " + args.parent,
        parent_sha, rows, problems)


if __name__ == "__main__":
    sys.exit(main())
