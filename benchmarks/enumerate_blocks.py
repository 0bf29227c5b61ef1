"""CLI `enumerate` time on three graphs, before and after a change to the listing.

    python3 benchmarks/enumerate_blocks.py --parent REV
        [--out BENCH_enumerate_blocks.json]

Times `clique-census enumerate GRAPH --output FILE`, in text and with
`--format json`, with the sources of git revision REV ("parent" rows) and
with the sources of this checkout ("change" rows). Each row writes the
graph as an edge-list file, then runs the CLI's `main` REPEATS times per
format and reports every time (graph load, listing and writes), the
median and the minimum, the same times in steady seconds, each listing's
clique count, size and SHA-256 digest, the graph's clique count from the
census, and the peak resident size over both formats, in the fresh
interpreter and alternating order of benchmarks/common.py.

Graphs: `complete_multipartite_222(12)` (3^12 cliques, most of them below
non-clique labels near the root), `path_power(10^4, 6)` and
`path_power(10^5, 6)` (2^6 (n - 5) cliques, nearly all in blocks of 64),
and `random_gnp(60, 3/5, seed=1)` (dense and irregular, where the
candidates a node has left often form a clique). The change's listings
must be byte-identical to the parent's, and their clique counts must
equal the census and, where there is one, the closed form.

The script exits 1, after writing the file, if any check fails.
"""

from __future__ import annotations

import sys

from common import compare

# Runs after common's preamble, in its work directory; `case` holds
# family and n.
_CHILD = r"""
import hashlib
import clique_census as cc
import clique_census.cli
family, n = case["family"], case["n"]
if family == "multipartite":
    g = cc.complete_multipartite_222(n)
elif family == "gnp":
    g = cc.random_gnp(n, 3 / 5, seed=1)
else:
    g = cc.path_power(n, 6)
# relative paths: the JSON config echoes the graph's path, which must not
# differ between the two sides
graph, listing = "graph.txt", "listing.txt"
with open(graph, "w") as fh:
    fh.write(cc.serialize(g))
# time the listing in one format; return its figures with their minimum,
# the number of `mark` bytes in the listing, its size and its digest
def run(fmt, mark):
    def listing_run():
        code = clique_census.cli.main(["enumerate", graph, "--format", fmt,
                                       "--output", listing])
        assert code == 0, code
    figures, _ = repeat(listing_run)
    figures["min_s"] = min(figures["seconds"])
    digest, marks, size = hashlib.sha256(), 0, 0
    with open(listing, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            marks += chunk.count(mark)
            size += len(chunk)
    return figures, marks, size, digest.hexdigest()
text, lines, size, sha = run("text", b"\n")
# one "]" closes each clique and one the list; the config holds none
json_figures, json_marks, json_size, json_sha = run("json", b"]")
report({"m": g.edge_count, "census_cliques": cc.count_cliques(g), **text,
        "lines": lines, "bytes": size, "sha256": sha,
        **{"json_" + key: value for key, value in json_figures.items()},
        "json_cliques": json_marks - 1, "json_bytes": json_size, "json_sha256": json_sha})
"""

# (family, n, name, closed-form clique count or None)
GRAPHS = (
    ("multipartite", 12, "complete_multipartite_222(12)", 3**12),
    ("path_power", 10_000, "path_power(10000,6)", 2**6 * (10_000 - 5)),
    ("path_power", 100_000, "path_power(100000,6)", 2**6 * (100_000 - 5)),
    ("gnp", 60, "random_gnp(60,3/5,seed=1)", None),
)
CASES = [({"graph": name, "n": n}, {"family": family, "n": n, "cliques": cliques})
         for family, n, name, cliques in GRAPHS]
# runs per side and format: on a shared 2-vCPU machine single runs drift
# by tens of percent, which 3 runs per side could not resolve
REPEATS = 7


def check(case, row, parent):
    return ("lines == json_cliques == census_cliques (== closed form, if any), "
            "sha256 and json_sha256 == parent's",
            row["lines"] == row["json_cliques"] == row["census_cliques"]
            and case["cliques"] in (None, row["lines"])
            and row["sha256"] == parent["sha256"]
            and row["json_sha256"] == parent["json_sha256"])


def main(argv=None) -> int:
    return compare(argv, script=__file__, doc=__doc__, out="BENCH_enumerate_blocks.json",
                   what="CLI enumerate seconds per graph (load, listing, writes), text "
                        "and --format json, parent sources against this checkout's",
                   cases=CASES, child=_CHILD, check=check, repeats=REPEATS)


if __name__ == "__main__":
    sys.exit(main())
