"""The layers of the root split at n = 10^4 and 10^5, before and after a
change to it.

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

Each row is one operation on one graph: it builds the graph, runs the
operation REPEATS times and reports every time, the median, a digest of
the result and the peak resident size, in the fresh interpreter and
alternating order of benchmarks/common.py.

Graphs: `path_power(n, 6)` and `gnp(n, 10/n)` (seed 1, drawn by geometric
skipping over the pairs in common's `gnp_edges`; Batagelj and Brandes,
"Efficient generation of large random networks", Phys. Rev. E 2005), at
n = 10^4 and 10^5. The change's digests must equal the parent's.

The script exits 1, after writing the file, if any check fails.
"""

from __future__ import annotations

import sys

from common import compare

# Runs after common's preamble; `case` holds family, n and operation.
_CHILD = r"""
import hashlib
import clique_census as cc
from clique_census.tree import _clique_blocks
n = case["n"]
g = cc.path_power(n, 6) if case["family"] == "path_power" else cc.Graph(n, gnp_edges(n, 10 / n, 1))

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
}[case["operation"]]
figures, res = repeat(run)
report({"m": g.edge_count, **figures,
        "digest": hashlib.sha256(repr(res).encode()).hexdigest()[:16]})
"""

SIZES = (10_000, 100_000)
GRAPHS = {"path_power": "path_power({n},6)", "gnp": "gnp({n},10/n)"}
OPERATIONS = ("degeneracy", "census", "clique_blocks", "audit_t8")
CASES = [({"graph": name.format(n=n), "operation": op},
          {"family": family, "n": n, "operation": op})
         for family, name in GRAPHS.items() for n in SIZES for op in OPERATIONS]
REPEATS = 3


def check(case, row, parent):
    return "digest == parent's digest", row["digest"] == parent["digest"]


def main(argv=None) -> int:
    return compare(argv, script=__file__, doc=__doc__, out="BENCH_root_split.json",
                   what="root-split layers at n = 10^4 and 10^5, parent sources against "
                        "this checkout's",
                   cases=CASES, child=_CHILD, check=check, repeats=REPEATS)


if __name__ == "__main__":
    sys.exit(main())
