"""The one before-and-after harness of the scripts in this directory.

A script declares three things and hands them to `compare`:

- its cases: (row fields, case) pairs. The row fields, such as the
  graph's name, n or the operation, start both rows of the case; the
  case, a JSON object, is what the child reads to build its graph and
  pick its operation.
- its child: code that runs after the preamble below in a fresh
  interpreter (run_child), which imports the package from one side's
  `src/` and starts in an empty work directory. It reads `case`, times
  its operation with `repeat` and hands its result fields to `report`,
  which adds the peak resident size (VmHWM, which includes building the
  graph) and prints them.
- its check: check(case, row, parent) -> (what it checks, whether it
  holds), applied to each side's row against the parent's row.
- optionally, its summary: summary(rows) -> a JSON object of figures
  drawn from all the rows, such as a growth exponent, which is printed
  after the rows and written to the file.

`compare` parses `--parent REV` and `--out PATH`, unpacks `src/` of
revision REV (export_src), and runs every case with those sources
("parent" rows) and with this checkout's ("change" rows). Parent and
change alternate which runs first from one case to the next, so drift
of the machine's speed falls on both sides. It prints one line per row
and writes the rows, the revisions and the machine to a committed
BENCH_*.json file (write_report); the script exits 1, after writing the
file, if any check fails.

Every timed run goes through the child's `timed`, which records two
figures per run:

- `seconds`: wall seconds of the run, without the time of the speed
  probe's samples taken inside it;
- `steady_s`: the same seconds scaled by perfbench/speed.py's SpeedProbe
  to a fixed host speed, so that rows from a slow spell and a fast spell
  of a shared machine can be compared.

The child code may also call `gnp_edges(n, p, seed)`, the sparse random
graph the scripts share.
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

# Put before a script's child code. The child's argv is src, perfbench,
# the case as JSON and the number of timed runs per operation.
_PREAMBLE = r"""
import json, math, random, statistics, sys, time
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[2])
from speed import SpeedProbe
case, REPEATS = json.loads(sys.argv[3]), int(sys.argv[4])

def timed(fn):
    # (seconds, steady seconds, fn's result) of one call of fn
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
    raw = probe.net(wall)
    return raw, raw * probe.scale, out

def repeat(fn):
    # the seconds and steady seconds of REPEATS timed calls of fn with
    # their medians, and fn's last result
    seconds, steady = [], []
    for _ in range(REPEATS):
        raw, scaled, out = timed(fn)
        seconds.append(raw)
        steady.append(scaled)
    return {"seconds": seconds, "median_s": statistics.median(seconds),
            "steady_s": steady, "steady_median_s": statistics.median(steady)}, out

def report(fields):
    # print the fields and the peak resident size as the child's result
    with open("/proc/self/status") as fh:
        peak = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024
    print(json.dumps({**fields, "peak_rss_mb": peak}))

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


def run_child(code: str, src: Path, case: dict, repeats: int) -> dict:
    """Run code after the preamble in a fresh interpreter that imports the
    package from src, in an empty work directory; return the JSON object
    its last output line holds. src is resolved, as the child does not
    start in the current directory."""
    with tempfile.TemporaryDirectory() as work:
        out = subprocess.run([sys.executable, "-c", _PREAMBLE + code,
                              str(Path(src).resolve()), str(ROOT / "perfbench"),
                              json.dumps(case), str(repeats)],
                             cwd=work, check=True, capture_output=True, text=True,
                             timeout=3600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def compare(argv, *, script: str, doc: str, out: str, what: str, cases, child: str,
            check, repeats: int, summary=None) -> int:
    """Run the cases of `script` (its __file__) with the parent's sources
    and this checkout's, print and write the rows (to out under the repo
    root unless --out names a path); return the script's exit code."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent rows")
    parser.add_argument("--out", default=str(ROOT / out))
    args = parser.parse_args(argv)

    rows, problems = [], []
    with tempfile.TemporaryDirectory() as tmp:
        parent_sha = export_src(args.parent, Path(tmp))
        sources = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        for turn, (fields, case) in enumerate(cases):
            sides = ("parent", "change") if turn % 2 == 0 else ("change", "parent")
            got = {side: run_child(child, sources[side], case, repeats) for side in sides}
            name = " ".join(map(str, fields.values()))
            for side in ("parent", "change"):
                text, ok = check(case, got[side], got["parent"])
                row = {"side": side, **fields, **got[side], "check": text}
                if not ok:
                    problems.append(f"{side} {name}: check failed ({text})")
                rows.append(row)
                medians = ", ".join(f"{key} {value:.3f}" for key, value in row.items()
                                    if key.endswith("median_s"))
                print(f"{side:6s} {name:30s} {medians} (of {repeats} runs) "
                      f"peak {row['peak_rss_mb']:.0f} MB" + ("" if ok else "  CHECK FAILED"))

    figures = summary(rows) if summary else None
    for key, value in (figures or {}).items():
        print(f"{key}: {value}")
    command = f"python3 benchmarks/{Path(script).name} --parent {args.parent}"
    return write_report(args.out, what, command, parent_sha, rows, problems, figures)


def write_report(path: str, what: str, command: str, parent_sha: str,
                 rows: list[dict], problems: list[str], summary: dict | None = None) -> int:
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
        **({"summary": summary} if summary else {}),
        "rows": rows,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    for line in problems:
        print("error: " + line, file=sys.stderr)
    return 1 if problems else 0
