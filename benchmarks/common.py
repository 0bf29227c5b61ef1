"""What the before-and-after scripts in this directory share.

Each script times one operation with the sources of a parent git
revision and with this checkout's, each side in a fresh interpreter
(run_child), and writes the rows to a committed BENCH_*.json file
(write_report). Every timed run goes through the child's `timed`, which
records two figures per run:

- `seconds`: wall seconds of the run, without the time of the speed
  probe's samples taken inside it;
- `steady_s`: the same seconds scaled by perfbench/speed.py's SpeedProbe
  to a fixed host speed, so that rows from a slow spell and a fast spell
  of a shared machine can be compared.

The child code may also call `gnp_edges(n, p, seed)`, the sparse random
graph the scripts share.
"""

from __future__ import annotations

import io
import json
import os
import platform
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Put before a script's child code. The child's argv is src, perfbench,
# then the script's own arguments, so those start at sys.argv[3].
_PREAMBLE = r"""
import math, random, sys, time
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[2])
from speed import SpeedProbe

def timed(fn):
    # (seconds, steady seconds, fn's result) of one call of fn
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
    raw = probe.net(wall)
    return raw, raw * probe.scale, out

def gnp_edges(n, p, seed):
    # the edges of G(n, p), drawn by geometric skipping over the pairs
    # (Batagelj and Brandes, Phys. Rev. E 2005): one draw per edge, not
    # one per pair as the package's random_gnp
    rng = random.Random(seed)
    edges, lq = [], math.log(1 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1 - rng.random()) / lq)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges
"""


def export_src(rev: str, dest: Path) -> str:
    """Unpack `src/` of git revision rev under dest; return its full hash."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha, "src"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return sha


def run_child(code: str, src: Path, *args) -> dict:
    """Run code after the preamble in a fresh interpreter that imports the
    package from src; return the JSON object its last output line holds."""
    out = subprocess.run([sys.executable, "-c", _PREAMBLE + code, str(src),
                          str(ROOT / "perfbench"), *map(str, args)],
                         check=True, capture_output=True, text=True, timeout=3600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def write_report(path: str, what: str, command: str, parent_sha: str,
                 rows: list[dict], problems: list[str]) -> int:
    """Write the rows with the revisions and the machine to path, print
    each problem to stderr; return the script's exit code."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()
    modified = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                              check=True, capture_output=True, text=True).stdout.strip()
    report = {
        "what": what,
        "command": command,
        "parent": parent_sha,
        "change": f"src/ of the checkout at {head}" + (", with uncommitted edits"
                                                          if modified else ""),
        "machine": {"python": platform.python_version(), "cpus": os.cpu_count(),
                    "processor": platform.machine()},
        "checks_passed": not problems,
        "rows": rows,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for line in problems:
        print("error: " + line, file=sys.stderr)
    return 1 if problems else 0
