"""In-process `load_graph` time on sparse edge-list files of 10^3 to 10^5
vertices, before and after a change to the reader or to `Graph`.

    python3 benchmarks/load_graph.py --parent REV [--out BENCH_load_graph.json]

Every CLI call loads its graph file first, so on sparse inputs the
reader is a share of each call that grows with the file. Each row
writes one graph as an edge-list file in the canonical form (a header
line, then one "u v" line per edge, as `serialize` and the benchmark's
writers produce), then times `load_graph` on it REPEATS times with the
sources of git revision REV ("parent" rows) and with the sources of this
checkout ("change" rows), in the fresh interpreter and alternating order
of benchmarks/common.py. It reports every time, the median, the loaded
graph's n and m, a digest of its `serialize` text and the peak resident
size. The change's n, m and digest must equal the parent's, and n must
be the file's.

Graphs: `path_power(n, 6)` and `gnp(n, 10/n)` (seed 1, drawn by common's
`gnp_edges`) at n = 10^3, 10^4 and 10^5. After the rows the script
prints, per side and family, the least-squares slopes of log median
seconds and of log steady median seconds against log n over the three
sizes: 1 for a reader linear in the file.

The script exits 1, after writing the file, if any check fails.
"""

from __future__ import annotations

import math
import sys

from common import compare

# Runs after common's preamble, in its work directory; `case` holds
# family and n.
_CHILD = r"""
import hashlib
import clique_census as cc
n = case["n"]
if case["family"] == "path_power":
    edges = cc.path_power(n, 6).edges()
else:
    edges = gnp_edges(n, 10 / n, 1)
with open("graph.txt", "w") as fh:
    fh.write(f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
figures, g = repeat(lambda: cc.load_graph("graph.txt"))
report({"n_loaded": g.n, "m": g.edge_count, **figures,
        "digest": hashlib.sha256(cc.serialize(g).encode()).hexdigest()[:16]})
"""

SIZES = (1_000, 10_000, 100_000)
GRAPHS = {"path_power": "path_power({n},6)", "gnp": "gnp({n},10/n)"}
CASES = [({"n": n, "graph": name.format(n=n)}, {"family": family, "n": n})
         for family, name in GRAPHS.items() for n in SIZES]
REPEATS = 7


def check(case, row, parent):
    return ("n_loaded == n, and n_loaded, m and digest == parent's",
            row["n_loaded"] == case["n"]
            and all(row[key] == parent[key] for key in ("n_loaded", "m", "digest")))


def slope(points) -> float:
    """Least-squares slope of log y against log x over (x, y) points."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def summary(rows) -> dict:
    """The slopes of log median seconds and log steady median seconds
    against log n, per side and family."""
    out = {}
    for side in ("parent", "change"):
        for family, name in GRAPHS.items():
            mine = [row for row in rows
                    if row["side"] == side and row["graph"] == name.format(n=row["n"])]
            for key in ("median_s", "steady_median_s"):
                points = [(row["n"], row[key]) for row in mine]
                out[f"{side} {family} {key} slope"] = round(slope(points), 3)
    return out


def main(argv=None) -> int:
    return compare(argv, script=__file__, doc=__doc__, out="BENCH_load_graph.json",
                   what="in-process load_graph seconds on canonical edge-list files, "
                        "parent sources against this checkout's",
                   cases=CASES, child=_CHILD, check=check, repeats=REPEATS,
                   summary=summary)


if __name__ == "__main__":
    sys.exit(main())
