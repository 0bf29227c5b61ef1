"""CLI `enumerate` time on three graphs, before and after a change to the listing.

    python3 benchmarks/enumerate_blocks.py --parent REV
        [--out BENCH_enumerate_blocks.json]

Times `clique-census enumerate GRAPH --output FILE` with the sources of git
revision REV ("parent" rows) and with the sources of this checkout
("change" rows). Each row runs in a fresh interpreter that imports only
that side's `src/`, writes the graph as an edge-list file, then runs the
CLI's `main` REPEATS times and reports every time (graph load, listing
and writes), the median, the listing's line count, size and SHA-256
digest, and its peak resident size (VmHWM). Parent and change alternate
which runs first from one row to the next, so drift of the machine's
speed falls on both sides.

Graphs: `complete_multipartite_222(12)` (3^12 cliques, most of them below
non-clique labels near the root), `path_power(10^4, 6)` and
`path_power(10^5, 6)` (2^6 (n - 5) cliques, nearly all in blocks of 64).
The change's listing must be byte-identical to the parent's, and its
line count must equal the closed form.

The script exits 1, after writing the file, if any check fails.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter: argv is src, family, n, repeats, work dir.
_CHILD = r"""
import hashlib, json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import clique_census as cc
import clique_census.cli
family, n, repeats, work = sys.argv[2], int(sys.argv[3]), int(sys.argv[4]), sys.argv[5]
g = cc.complete_multipartite_222(n) if family == "multipartite" else cc.path_power(n, 6)
graph, listing = work + "/graph.txt", work + "/listing.txt"
with open(graph, "w") as fh:
    fh.write(cc.serialize(g))
seconds = []
for _ in range(repeats):
    t0 = time.perf_counter()
    code = clique_census.cli.main(["enumerate", graph, "--output", listing])
    seconds.append(time.perf_counter() - t0)
    assert code == 0, code
digest, lines, size = hashlib.sha256(), 0, 0
with open(listing, "rb") as fh:
    while chunk := fh.read(1 << 20):
        digest.update(chunk)
        lines += chunk.count(b"\n")
        size += len(chunk)
with open("/proc/self/status") as fh:
    peak = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024
print(json.dumps({"m": g.edge_count, "seconds": seconds,
                  "median_s": statistics.median(seconds), "lines": lines,
                  "bytes": size, "sha256": digest.hexdigest(), "peak_rss_mb": peak}))
"""

# (family, n, name, clique count)
GRAPHS = (
    ("multipartite", 12, "complete_multipartite_222(12)", 3**12),
    ("path_power", 10_000, "path_power(10000,6)", 2**6 * (10_000 - 5)),
    ("path_power", 100_000, "path_power(100000,6)", 2**6 * (100_000 - 5)),
)
REPEATS = 3


def export_src(rev: str, dest: Path) -> str:
    """Unpack `src/` of git revision rev under dest; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def measure(src: Path, family: str, n: int) -> dict:
    with tempfile.TemporaryDirectory() as work:
        out = subprocess.run([sys.executable, "-c", _CHILD, str(src), family, str(n),
                              str(REPEATS), work], check=True, capture_output=True,
                             text=True, timeout=3600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent rows")
    parser.add_argument("--out", default=str(ROOT / "BENCH_enumerate_blocks.json"))
    args = parser.parse_args(argv)

    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    modified = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                              check=True, capture_output=True, text=True).stdout.strip()
    rows, problems = [], []
    with tempfile.TemporaryDirectory() as tmp:
        parent_sha = export_src(args.parent, Path(tmp))
        sources = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        for turn, (family, n, name, cliques) in enumerate(GRAPHS):
            sides = ("parent", "change") if turn % 2 == 0 else ("change", "parent")
            got = {side: measure(sources[side], family, n) for side in sides}
            for side in ("parent", "change"):
                row = {"side": side, "graph": name, "n": n, **got[side],
                       "check": "lines == clique count, sha256 == parent's sha256"}
                ok = (row["lines"] == cliques
                      and row["sha256"] == got["parent"]["sha256"])
                if not ok:
                    problems.append(f"{side} {name}: check failed ({row['check']})")
                rows.append(row)
                print(f"{side:6s} {name:30s} enumerate {row['median_s']:.3f} s "
                      f"(median of {REPEATS}) peak {row['peak_rss_mb']:.0f} MB "
                      f"lines={row['lines']} sha256={row['sha256'][:12]}"
                      + ("" if ok else "  CHECK FAILED"))

    report = {
        "what": "CLI enumerate seconds per graph (load, listing, writes), "
                "parent sources against this checkout's",
        "command": "python3 benchmarks/enumerate_blocks.py --parent " + args.parent,
        "parent": parent_sha,
        "change": f"src/ of the checkout at {head}" + (", with uncommitted edits"
                                                          if modified else ""),
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "processor": platform.machine()},
        "checks_passed": not problems,
        "rows": rows,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for line in problems:
        print("error: " + line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
