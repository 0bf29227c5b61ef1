"""CLI `enumerate` time on three graphs, before and after a change to the listing.

    python3 benchmarks/enumerate_blocks.py --parent REV
        [--out BENCH_enumerate_blocks.json]

Times `clique-census enumerate GRAPH --output FILE`, in text and with
`--format json`, with the sources of git revision REV ("parent" rows) and
with the sources of this checkout ("change" rows). Each row runs in a
fresh interpreter that imports only that side's `src/`, writes the graph
as an edge-list file, then runs the CLI's `main` REPEATS times per format
and reports every time (graph load, listing and writes), the median and
the minimum, the same times in steady seconds, scaled to a fixed host
speed (benchmarks/common.py), each listing's clique count, size and
SHA-256 digest, the graph's clique count from the census, and the peak
resident size (VmHWM) over both formats. Parent and change alternate
which runs first from one row to the next, so drift of the machine's
speed falls on both sides.

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

import argparse
import sys
import tempfile
from pathlib import Path

from common import ROOT, export_src, run_child, write_report

# Runs in a fresh interpreter after common's preamble: the arguments are
# family, n, repeats, work dir.
_CHILD = r"""
import hashlib, json, os, statistics
import clique_census as cc
import clique_census.cli
family, n, repeats, work = sys.argv[3], int(sys.argv[4]), int(sys.argv[5]), sys.argv[6]
if family == "multipartite":
    g = cc.complete_multipartite_222(n)
elif family == "gnp":
    g = cc.random_gnp(n, 3 / 5, seed=1)
else:
    g = cc.path_power(n, 6)
# relative paths: the JSON config echoes the graph's path, which must not
# differ between the two sides
os.chdir(work)
graph, listing = "graph.txt", "listing.txt"
with open(graph, "w") as fh:
    fh.write(cc.serialize(g))
# time `repeats` runs; return the seconds, the steady seconds, the number
# of `mark` bytes in the listing, its size and its digest
def run(fmt, mark):
    seconds, steady = [], []
    for _ in range(repeats):
        raw, scaled, code = timed(lambda: clique_census.cli.main(
            ["enumerate", graph, "--format", fmt, "--output", listing]))
        seconds.append(raw)
        steady.append(scaled)
        assert code == 0, code
    digest, marks, size = hashlib.sha256(), 0, 0
    with open(listing, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            marks += chunk.count(mark)
            size += len(chunk)
    return seconds, steady, marks, size, digest.hexdigest()
seconds, steady, lines, size, sha = run("text", b"\n")
# one "]" closes each clique and one the list; the config holds none
json_seconds, json_steady, json_marks, json_size, json_sha = run("json", b"]")
with open("/proc/self/status") as fh:
    peak = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024
print(json.dumps({"m": g.edge_count, "census_cliques": cc.count_cliques(g),
                  "seconds": seconds, "median_s": statistics.median(seconds),
                  "min_s": min(seconds), "steady_s": steady,
                  "steady_median_s": statistics.median(steady), "lines": lines,
                  "bytes": size, "sha256": sha, "json_seconds": json_seconds,
                  "json_median_s": statistics.median(json_seconds),
                  "json_min_s": min(json_seconds), "json_steady_s": json_steady,
                  "json_steady_median_s": statistics.median(json_steady),
                  "json_cliques": json_marks - 1, "json_bytes": json_size,
                  "json_sha256": json_sha, "peak_rss_mb": peak}))
"""

# (family, n, name, closed-form clique count or None)
GRAPHS = (
    ("multipartite", 12, "complete_multipartite_222(12)", 3**12),
    ("path_power", 10_000, "path_power(10000,6)", 2**6 * (10_000 - 5)),
    ("path_power", 100_000, "path_power(100000,6)", 2**6 * (100_000 - 5)),
    ("gnp", 60, "random_gnp(60,3/5,seed=1)", None),
)
# runs per side and format: on a shared 2-vCPU machine single runs drift
# by tens of percent, which 3 runs per side could not resolve
REPEATS = 7


def measure(src: Path, family: str, n: int) -> dict:
    with tempfile.TemporaryDirectory() as work:
        return run_child(_CHILD, src, family, n, REPEATS, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent rows")
    parser.add_argument("--out", default=str(ROOT / "BENCH_enumerate_blocks.json"))
    args = parser.parse_args(argv)

    rows, problems = [], []
    with tempfile.TemporaryDirectory() as tmp:
        parent_sha = export_src(args.parent, Path(tmp))
        sources = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        for turn, (family, n, name, cliques) in enumerate(GRAPHS):
            sides = ("parent", "change") if turn % 2 == 0 else ("change", "parent")
            got = {side: measure(sources[side], family, n) for side in sides}
            for side in ("parent", "change"):
                row = {"side": side, "graph": name, "n": n, **got[side],
                       "check": "lines == json_cliques == census_cliques (== closed "
                                "form, if any), sha256 and json_sha256 == parent's"}
                ok = (row["lines"] == row["json_cliques"] == row["census_cliques"]
                      and cliques in (None, row["lines"])
                      and row["sha256"] == got["parent"]["sha256"]
                      and row["json_sha256"] == got["parent"]["json_sha256"])
                if not ok:
                    problems.append(f"{side} {name}: check failed ({row['check']})")
                rows.append(row)
                print(f"{side:6s} {name:30s} enumerate {row['median_s']:.3f} s "
                      f"(min {row['min_s']:.3f}, steady {row['steady_median_s']:.3f}), "
                      f"json {row['json_median_s']:.3f} s (min {row['json_min_s']:.3f}, "
                      f"steady {row['json_steady_median_s']:.3f}), of {REPEATS} runs "
                      f"peak {row['peak_rss_mb']:.0f} MB lines={row['lines']} "
                      f"sha256={row['sha256'][:12]} json={row['json_sha256'][:12]}"
                      + ("" if ok else "  CHECK FAILED"))

    return write_report(
        args.out, "CLI enumerate seconds per graph (load, listing, writes), text "
                  "and --format json, parent sources against this checkout's",
        "python3 benchmarks/enumerate_blocks.py --parent " + args.parent,
        parent_sha, rows, problems)


if __name__ == "__main__":
    sys.exit(main())
