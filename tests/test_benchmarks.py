"""The before-and-after scripts of benchmarks/ on small cases.

Each script's child runs through common.run_child against this
checkout's src/, once, on a graph of at most 300 vertices. Its result
must carry the row keys of the file the script last wrote and pass the
script's own check against itself, so a broken child shows before the
next speed claim needs it.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import census_kernel  # noqa: E402
import cold_start  # noqa: E402
import common  # noqa: E402
import enumerate_blocks  # noqa: E402
import load_graph  # noqa: E402
import root_split  # noqa: E402

# (script, committed file, row fields, case)
SMALL = [
    *[(root_split, "BENCH_root_split.json",
       {"graph": root_split.GRAPHS[family].format(n=300), "operation": op},
       {"family": family, "n": 300, "operation": op})
      for family in ("gnp", "path_power") for op in root_split.OPERATIONS],
    (enumerate_blocks, "BENCH_enumerate_runs.json",
     {"graph": "path_power(300,6)", "n": 300},
     {"family": "path_power", "n": 300, "cliques": 2**6 * (300 - 5)}),
    (enumerate_blocks, "BENCH_enumerate_runs.json",
     {"graph": "complete_multipartite_222(4)", "n": 4},
     {"family": "multipartite", "n": 4, "cliques": 3**4}),
    (census_kernel, "BENCH_census_kernel.json",
     {"graph": "complete_multipartite_222(6)", "n": 12}, {"family": "multipartite", "k": 6}),
    (cold_start, "BENCH_cold_start.json",
     {"operation": "cli count", "graph": "gnp(300,1/30)"},
     {"operation": "count", "n": 300, "p": 1 / 30}),
    *[(load_graph, "BENCH_load_graph.json",
       {"n": 300, "graph": load_graph.GRAPHS[family].format(n=300)},
       {"family": family, "n": 300}) for family in load_graph.GRAPHS],
]


def committed_row_keys(name: str) -> set[str]:
    with open(ROOT / name, encoding="utf-8") as fh:
        return set(json.load(fh)["rows"][0])


@pytest.mark.parametrize("script, committed, fields, case", SMALL,
                         ids=[" ".join(map(str, f.values())) for _, _, f, _ in SMALL])
def test_child_gives_a_checked_row(script, committed, fields, case):
    got = common.run_child(script._CHILD, ROOT / "src", case, 1)
    assert len(got["seconds"]) == len(got["steady_s"]) == 1
    text, ok = script.check(case, got, got)
    assert ok, text
    row = {"side": "change", **fields, **got, "check": text}
    assert committed_row_keys(committed) <= set(row)


def test_compare_writes_a_report(tmp_path):
    # the whole harness, the parent being this checkout's HEAD
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout with a commit")
    out = tmp_path / "report.json"
    code = common.compare(["--parent", "HEAD", "--out", str(out)],
                          script=root_split.__file__, doc=root_split.__doc__,
                          out="unused.json", what="small root split",
                          cases=[(fields, case) for _, _, fields, case in SMALL[:2]],
                          child=root_split._CHILD, check=root_split.check, repeats=1)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert code == 0 and report["checks_passed"]
    assert report["command"] == "python3 benchmarks/root_split.py --parent HEAD"
    assert [(r["side"], r["operation"]) for r in report["rows"]] == [
        (side, op) for op in root_split.OPERATIONS[:2] for side in ("parent", "change")]
    assert {tuple(r) for r in report["rows"]} == {
        tuple(json.loads((ROOT / "BENCH_root_split.json").read_text())["rows"][0])}


def test_load_graph_summary_is_the_log_log_slope():
    # linear parent rows and quadratic change rows on every family
    rows = [{"side": side, "graph": name.format(n=n), "n": n,
             "median_s": 1e-6 * n ** power, "steady_median_s": 3e-6 * n ** power}
            for side, power in (("parent", 1), ("change", 2))
            for name in load_graph.GRAPHS.values() for n in load_graph.SIZES]
    assert load_graph.summary(rows) == {
        f"{side} {family} {key} slope": power
        for side, power in (("parent", 1), ("change", 2)) for family in load_graph.GRAPHS
        for key in ("median_s", "steady_median_s")}
