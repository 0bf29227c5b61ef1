"""Sparse scaling series: the ROADMAP Baseline table in one command.

    python3 perfbench/scaling.py

Times degeneracy(), census per available backend at one and two
threads, build_tree and audit_graph at t=4 on path_power(n, 6) for each
n in SIZES, once each, and prints a Markdown table of wall seconds.
Each census is checked against the closed form 2^6 (n - 5).  These are raw wall seconds on
whatever the host gives at the moment; run.py's scaled figures are the
ones to compare between commits.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import graphs  # noqa: E402
from run import import_package  # noqa: E402

SIZES = (1000, 2000, 4000)


def main() -> int:
    cc = import_package()

    rows: dict[str, list[str]] = {}

    def timed(label, fn, check=None):
        t0 = perf_counter()
        result = fn()
        seconds = perf_counter() - t0
        if check is not None and not check(result):
            raise SystemExit(f"wrong result from {label}")
        rows.setdefault(label, []).append(f"{seconds:.3f} s")

    for n in SIZES:
        g = cc.Graph(*graphs.path_power(n, 6))
        total = sum(checks.path_power_census(n, 6))
        timed("`degeneracy()`", lambda: cc.degeneracy(g))
        for backend in cc.available_backends():
            for threads in (1, 2):
                label = f"census, {backend}" + (f", {threads} thr" if threads > 1 else "")
                timed(label, lambda: cc.census(g, threads=threads, backend=backend),
                      lambda res: res.total == total)
        timed("`build_tree`", lambda: cc.build_tree(g), lambda tree: tree.node_count == total)
        timed("`audit_graph` t=4", lambda: cc.audit_graph(g, cc.AuditConfig(t=4)))
        print(f"n={n} done", file=sys.stderr)

    header = "| path_power(n,6) | " + " | ".join(f"n={n}" for n in SIZES) + " |"
    print(header)
    print("|---|" + "---:|" * len(SIZES))
    for label, cells in rows.items():
        print(f"| {label} | " + " | ".join(cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
