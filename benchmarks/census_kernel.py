"""Census time on the kernel's hard and easy graphs, before and after a kernel change.

    python3 benchmarks/census_kernel.py --parent REV [--out BENCH_census_kernel.json]

Times `census(g)` with the sources of git revision REV ("parent" rows)
and with the sources of this checkout ("change" rows). Each row builds
the graph, runs the census REPEATS times and reports every time, the
median, the counts and the peak resident size, in the fresh interpreter
and alternating order of benchmarks/common.py.

Graphs:
- `complete_multipartite_222(k)` at k = 12 and 18: 3^k cliques, and
  every local graph is a clique minus a perfect matching, the
  extremal family whose cost should not grow with k. Its total must
  equal 3^k.
- `gnp(60, 1/2)` and `gnp(60, 3/5)` (seed 1, drawn by common's
  `gnp_edges`): dense and irregular. The change's counts must equal the
  parent's.
- `path_power(10^5, 6)`: local graphs of at most 6 vertices, where the
  kernel is a small share of the census; the no-regression row. Its
  total must equal 2^6 (n - 5).

The script exits 1, after writing the file, if any check fails.
"""

from __future__ import annotations

import sys

from common import compare

# Runs after common's preamble; `case` holds family and its sizes.
_CHILD = r"""
import clique_census as cc
family = case["family"]
if family == "multipartite":
    g = cc.complete_multipartite_222(case["k"])
elif family == "gnp":
    g = cc.Graph(case["n"], gnp_edges(case["n"], case["p"], seed=1))
else:
    g = cc.path_power(case["n"], 6)
figures, res = repeat(lambda: cc.census(g))
report({"m": g.edge_count, **figures, "counts": [str(c) for c in res.counts]})
"""

CASES = [
    *[({"graph": f"complete_multipartite_222({k})", "n": 2 * k},
       {"family": "multipartite", "k": k}) for k in (12, 18)],
    *[({"graph": f"gnp(60,{name})", "n": 60}, {"family": "gnp", "n": 60, "p": p})
      for name, p in (("1/2", 1 / 2), ("3/5", 3 / 5))],
    ({"graph": "path_power(100000,6)", "n": 100_000}, {"family": "path_power", "n": 100_000}),
]
REPEATS = 5


def check(case, row, parent):
    total = sum(map(int, row["counts"]))
    if case["family"] == "multipartite":
        return "total == 3^k", total == 3 ** case["k"]
    if case["family"] == "path_power":
        return "total == 2^6 (n - 5)", total == 2**6 * (case["n"] - 5)
    return "counts == parent's counts", row["counts"] == parent["counts"]


def main(argv=None) -> int:
    return compare(argv, script=__file__, doc=__doc__, out="BENCH_census_kernel.json",
                   what="census(g) seconds on the kernel's hard and easy graphs, parent sources "
                        "against this checkout's",
                   cases=CASES, child=_CHILD, check=check, repeats=REPEATS)


if __name__ == "__main__":
    sys.exit(main())
