"""Census time at n = 10^4 and 10^5, before and after a change to `census`.

    python3 benchmarks/census_orientation.py --parent REV
        [--out BENCH_census_orientation.json]

Times `census(g)` on two sparse families with the sources of git revision
REV ("parent" rows) and with the sources of this checkout ("change"
rows). Each row builds the graph, runs the census REPEATS times and
reports every time, the median, the counts and the peak resident size,
in the fresh interpreter and alternating order of benchmarks/common.py.

Families:
- `path_power(n, 6)`: its total must equal the closed form 2^6 (n - 5).
- `gnp(n, 10/n)`: G(n, p) at average degree about 10, drawn by geometric
  skipping over the pairs (Batagelj and Brandes, "Efficient generation of
  large random networks", Phys. Rev. E 2005). The package's `random_gnp`
  draws one number per pair, 5 * 10^9 of them at n = 10^5. The change's
  counts must equal the parent's.

The script exits 1, after writing the file, if any check fails.
"""

from __future__ import annotations

import sys

from common import compare

# Runs after common's preamble; `case` holds family and n.
_CHILD = r"""
import clique_census as cc
n = case["n"]
g = (cc.path_power(n, 6) if case["family"] == "path_power"
     else cc.Graph(n, gnp_edges(n, 10 / n, seed=1)))
figures, res = repeat(lambda: cc.census(g))
report({"m": g.edge_count, **figures, "counts": [str(c) for c in res.counts]})
"""

NAMES = {"path_power": "path_power({n},6)", "gnp": "gnp({n},10/n)"}
SIZES = (10_000, 100_000)
CASES = [({"graph": name.format(n=n), "n": n}, {"family": family, "n": n})
         for family, name in NAMES.items() for n in SIZES]
REPEATS = 3


def check(case, row, parent):
    if case["family"] == "path_power":
        return "total == 2^6 (n - 5)", sum(map(int, row["counts"])) == 2**6 * (case["n"] - 5)
    return "counts == parent's counts", row["counts"] == parent["counts"]


def main(argv=None) -> int:
    return compare(argv, script=__file__, doc=__doc__, out="BENCH_census_orientation.json",
                   what="census(g) seconds per graph, parent sources against this checkout's",
                   cases=CASES, child=_CHILD, check=check, repeats=REPEATS)


if __name__ == "__main__":
    sys.exit(main())
