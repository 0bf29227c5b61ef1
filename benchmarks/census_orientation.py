"""Census time at n = 10^4 and 10^5, before and after a change to `census`.

    python3 benchmarks/census_orientation.py --parent REV
        [--out BENCH_census_orientation.json]

Times `census(g)` on two sparse families with the sources of git revision
REV ("parent" rows) and with the sources of this checkout ("change"
rows). Each row runs in a fresh interpreter that imports only that side's
`src/`, builds the graph, runs the census REPEATS times and reports
every time, the median, the counts and its peak resident size (VmHWM,
which includes building the graph). Each time is recorded in wall seconds
and in steady seconds, scaled to a fixed host speed (benchmarks/common.py).
Parent and change alternate which runs first from one row to the next, so
drift of the machine's speed falls on both sides.

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

import argparse
import sys
import tempfile
from pathlib import Path

from common import ROOT, export_src, run_child, write_report

# Runs in a fresh interpreter after common's preamble: the arguments are
# family, n, repeats.
_CHILD = r"""
import json, statistics
import clique_census as cc
family, n, repeats = sys.argv[3], int(sys.argv[4]), int(sys.argv[5])
g = (cc.path_power(n, 6) if family == "path_power"
     else cc.Graph(n, gnp_edges(n, 10 / n, seed=1)))
seconds, steady = [], []
for _ in range(repeats):
    raw, scaled, res = timed(lambda: cc.census(g))
    seconds.append(raw)
    steady.append(scaled)
with open("/proc/self/status") as fh:
    peak = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024
print(json.dumps({"m": g.edge_count, "seconds": seconds,
                  "median_s": statistics.median(seconds), "steady_s": steady,
                  "steady_median_s": statistics.median(steady),
                  "counts": [str(c) for c in res.counts], "peak_rss_mb": peak}))
"""

NAMES = {"path_power": "path_power({n},6)", "gnp": "gnp({n},10/n)"}
SIZES = (10_000, 100_000)
REPEATS = 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent rows")
    parser.add_argument("--out", default=str(ROOT / "BENCH_census_orientation.json"))
    args = parser.parse_args(argv)

    rows, problems = [], []
    with tempfile.TemporaryDirectory() as tmp:
        parent_sha = export_src(args.parent, Path(tmp))
        sources = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        turn = 0
        for family in NAMES:
            for n in SIZES:
                sides = ("parent", "change") if turn % 2 == 0 else ("change", "parent")
                turn += 1
                got = {side: run_child(_CHILD, sources[side], family, n, REPEATS)
                       for side in sides}
                name = NAMES[family].format(n=n)
                for side in ("parent", "change"):
                    row = {"side": side, "graph": name, "n": n, **got[side]}
                    total = sum(map(int, row["counts"]))
                    if family == "path_power":
                        row["check"] = "total == 2^6 (n - 5)"
                        ok = total == 2**6 * (n - 5)
                    else:
                        row["check"] = "counts == parent's counts"
                        ok = row["counts"] == got["parent"]["counts"]
                    if not ok:
                        problems.append(f"{side} {name}: check failed ({row['check']})")
                    rows.append(row)
                    print(f"{side:6s} {name:20s} m={row['m']} "
                          f"census {row['median_s']:.3f} s, steady "
                          f"{row['steady_median_s']:.3f} s (medians of {REPEATS}) "
                          f"peak {row['peak_rss_mb']:.0f} MB total={total}"
                          + ("" if ok else "  CHECK FAILED"))

    return write_report(
        args.out, "census(g) seconds per graph, parent sources against this checkout's",
        "python3 benchmarks/census_orientation.py --parent " + args.parent,
        parent_sha, rows, problems)


if __name__ == "__main__":
    sys.exit(main())
