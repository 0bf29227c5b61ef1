"""Benchmark of clique_census: census, threaded census, CLI enumerate, audit.

    python3 perfbench/run.py --workload {sparse,dense,windows} --seed N
                             --seconds S --trace {0,1}

The run builds the package in place from the checkout's own sources,
generates the workload's graphs from the seed with perfbench/graphs.py,
writes them as edge-list files, and then repeats whole rounds of four
operations on every graph until S seconds have passed:

    census(g)
    census(g, threads=2)
    clique_census.cli.main(["enumerate", FILE, "--output", PATH])
    audit_graph(g, AuditConfig(t=..., ...))

Every output is checked against perfbench/checks.py.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print each metric by name.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from perfbench/layers.py.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import graphs  # noqa: E402
from speed import SpeedProbe  # noqa: E402

SETUP_SAMPLES = 11


@dataclass
class Input:
    """One graph of a workload with its audit settings and references."""

    name: str
    n: int
    edges: list
    t: int
    assume_free: bool = False
    known_free: bool = False
    reference: list = field(default_factory=list)
    path: str = ""


def _dense_gnm(n, p_num, p_den, target, rng):
    """G(n, m) at density p with about target cliques (see graphs.gnm_near)."""
    m = round(n * (n - 1) // 2 * p_num / p_den)
    return graphs.gnm_near(n, m, target, rng,
                           lambda n, edges: sum(checks.reference_census(n, edges)))


def build_inputs(workload: str, seed: int) -> list[Input]:
    """The workload's graphs; only the random parts depend on the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sparse":
        return [
            Input("path_power(1000,6)", *graphs.path_power(1000, 6), t=8,
                  known_free=True, reference=checks.path_power_census(1000, 6)),
            Input("gnm(500,2500)", *graphs.gnm(500, 2500, rng), t=5),
            Input("path_power(2000,2)", *graphs.path_power(2000, 2), t=4,
                  known_free=True, reference=checks.path_power_census(2000, 2)),
        ]
    if workload == "dense":
        return [
            Input("multipartite_222(12)", *graphs.multipartite_222(12), t=19,
                  known_free=True, reference=checks.multipartite_census(12)),
            Input("gnm(60,p=1/2)", *_dense_gnm(60, 1, 2, 19250, rng), t=10),
            Input("gnm(28,p=4/5)", *_dense_gnm(28, 4, 5, 43200, rng), t=8),
        ]
    if workload == "windows":
        blocks = [graphs.complete(14)] * 3 + [_dense_gnm(30, 4, 5, 68150, rng)]
        host = graphs.planted(graphs.path_power(800, 4), blocks, rng)
        return [
            Input("path_power(800,4)+3K14+gnm(30,p=4/5)", *host, t=4,
                  assume_free=True),
            Input("gnm(60,p=3/5)", *_dense_gnm(60, 3, 5, 93500, rng), t=6),
            # small enough (n <= 16) for audit_graph to run the exhaustive
            # has_subdivision oracle; treewidth 3, so no K_5-subdivision
            Input("path_power(14,3)", *graphs.path_power(14, 3), t=5,
                  known_free=True, reference=checks.path_power_census(14, 3)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# census(g, threads=2) is timed and checked every round, but its time is
# reported only by the traced run (tree.census_t2_s): its lock hand-offs
# between two virtual CPUs made it take 1.2 to 2.4 times as
# long as census(g) within 90 s, and one ten-run set spread by 34%,
# beyond the largest bound a result metric may have.
END_TO_END = ("census_s", "enumerate_s", "audit_s")


class Runner:
    """Times and checks the four operations; one instance per run."""

    METRICS = {"census": "census_s", "census_t2": "census_t2_s",
               "enumerate": "enumerate_s", "audit": "audit_s"}

    def __init__(self, cc, inputs, work: Path):
        self.cc = cc
        self.inputs = inputs
        self.work = work
        self.graphs = [cc.load_graph(inp.path) for inp in inputs]
        self.bits = [checks.adjacency_bits(inp.n, inp.edges) for inp in inputs]
        self.max_core = [checks.max_core_number(inp.n, inp.edges) for inp in inputs]
        self.listing_digest: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def round(self, observer=None) -> list[tuple[str, str, float, float]]:
        """One pass of every operation on every graph.

        Returns (input name, operation, raw seconds, scale) per operation,
        raw meaning without the speed probe's samples; observer, if given,
        is told when each operation begins and ends.
        """
        cc = self.cc
        ops = []

        def timed(inp, op, fn):
            if observer:
                observer.begin(inp.name, op)
            with SpeedProbe() as probe:
                t0 = perf_counter()
                result = fn()
                wall = perf_counter() - t0
            raw, scale = probe.net(wall), probe.scale
            if observer:
                # spans include the samples that land in them, so the
                # observer gets the wall time with the samples too
                observer.end(inp.name, op, wall, scale)
            ops.append((inp.name, op, raw, scale))
            return result

        for inp, g, bits, core in zip(self.inputs, self.graphs, self.bits, self.max_core):
            res = timed(inp, "census", lambda: cc.census(g))
            self._verdict(inp, "census", checks.check_census(res.counts, inp.reference))

            res = timed(inp, "census_t2", lambda: cc.census(g, threads=2))
            self._verdict(inp, "census_t2", checks.check_census(res.counts, inp.reference))

            listing = str(self.work / "listing.txt")
            argv = ["enumerate", inp.path, "--output", listing]
            code = timed(inp, "enumerate", lambda: cc.cli.main(argv))
            self._verdict(inp, "enumerate", self._check_listing(inp, code, listing, bits))

            cfg = cc.AuditConfig(t=inp.t, assume_subdivision_free=inp.assume_free)
            report = timed(inp, "audit", lambda: cc.audit_graph(g, cfg))
            self._verdict(inp, "audit", checks.check_audit(
                report.to_json(), sum(inp.reference), core, inp.known_free))
        return ops

    def _verdict(self, inp: Input, op: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is None:
            return
        self.failed += 1
        # the kept fault counts in `failed` while `correct` stays true
        if not checks.is_known_fault(inp.name, op, problem) and len(self.errors) < 20:
            self.errors.append(f"{inp.name} {op}: {problem}")

    def _check_listing(self, inp, code, listing, bits) -> str | None:
        if code != 0:
            return f"enumerate exited {code}"
        with open(listing, encoding="utf-8") as fh:
            text = fh.read()
        os.remove(listing)
        # The first listing of each graph is checked line by line; the CLI
        # output is deterministic, so later ones must be byte-identical.
        digest = checks.digest(text)
        if inp.name in self.listing_digest:
            if digest != self.listing_digest[inp.name]:
                return "listing differs from the checked first listing"
            return None
        problem = checks.check_listing(text, bits, inp.reference)
        if problem is None:
            self.listing_digest[inp.name] = digest
        return problem


def measure_setup(paths: list[str]) -> tuple[float, float]:
    """Median over fresh interpreters of import plus load_graph of every file."""
    code = (
        "import sys, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "t0 = time.perf_counter()\n"
        "import clique_census\n"
        "for p in sys.argv[2:]:\n"
        "    clique_census.load_graph(p)\n"
        "print(time.perf_counter() - t0)\n"
    )
    command = [sys.executable, "-c", code, str(ROOT / "src"), *paths]
    # unmeasured first start: it writes the bytecode caches of a fresh checkout
    subprocess.run(command, check=True, capture_output=True, timeout=120)
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        # the probe samples this process while the child runs on the other core
        with SpeedProbe() as probe:
            out = subprocess.run(command, check=True, capture_output=True, text=True,
                                 timeout=120)
        seconds = float(out.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        scaled.append(seconds * probe.scale)
    return statistics.median(scaled), statistics.median(raw)


def build_in_place() -> None:
    """Build the package from the checkout's sources (extensions, if any)."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "clique_census").is_dir():
        raise SystemExit(f"error: no clique_census sources under {ROOT}")
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, check=True, stdout=sys.stderr, stderr=sys.stderr, timeout=600,
    )


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import clique_census
    import clique_census.cli  # noqa: F401  (the enumerate entry point)

    return clique_census


def cross_backend_problems(cc, runner: Runner) -> list[str]:
    """Every available backend, at both thread counts, against the reference."""
    problems = []
    default = cc.default_backend()
    for backend in cc.available_backends():
        if backend == default:
            continue  # the timed rounds check the default backend
        for inp, g in zip(runner.inputs, runner.graphs):
            for threads in (1, 2):
                counts = cc.census(g, threads=threads, backend=backend).counts
                problem = checks.check_census(counts, inp.reference)
                if problem:
                    problems.append(f"{inp.name} backend={backend} threads={threads}: {problem}")
    return problems


def peak_rss_mb() -> float:
    """This process's peak resident size.

    VmHWM belongs to the process's own address space; ru_maxrss would
    also count the peak of the process that started this one.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return kb / 1024


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sparse", "dense", "windows"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    build_in_place()
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    inputs = build_inputs(args.workload, args.seed)
    for i, inp in enumerate(inputs):
        inp.path = str(work / f"g{i}.txt")
        graphs.write_edge_list(inp.path, inp.n, inp.edges)
        if not inp.reference:
            inp.reference = checks.reference_census(inp.n, inp.edges)

    setup_s, setup_raw = measure_setup([inp.path for inp in inputs])
    cc = import_package()
    import selftest

    selftest.run(cc)
    runner = Runner(cc, inputs, work)
    errors = cross_backend_problems(cc, runner)
    print(f"backend: {cc.default_backend()} (available: {', '.join(cc.available_backends())})")
    for inp in inputs:
        print(f"input: {inp.name} n={inp.n} m={len(inp.edges)} "
              f"cliques={sum(inp.reference)} t={inp.t}"
              + (" assume_subdivision_free" if inp.assume_free else ""))

    if args.trace:
        import layers

        metrics = layers.traced_run(cc, runner, args.seconds, str(ROOT / "src"))
    else:
        rounds = []
        t_end = perf_counter() + args.seconds
        while not rounds or perf_counter() < t_end:
            rounds.append(runner.round())
        metrics = {"setup_s": metric(setup_s, "s")}
        print(f"setup_s {setup_s:.4f} s (raw {setup_raw:.4f} s, median of {SETUP_SAMPLES})")
        for op, name in Runner.METRICS.items():
            value = statistics.median(
                sum(raw * scale for _, o, raw, scale in r if o == op) for r in rounds)
            raw = statistics.median(sum(raw for _, o, raw, _ in r if o == op) for r in rounds)
            print(f"{name} {value:.4f} s (raw {raw:.4f} s, median of {len(rounds)} rounds)"
                  + ("" if name in END_TO_END else ", not in the result"))
            if name in END_TO_END:
                metrics[name] = metric(value, "s")
        peak = peak_rss_mb()
        metrics["peak_rss_mb"] = metric(peak, "MB")
        print(f"peak_rss_mb {peak:.1f} MB")

    errors += runner.errors
    for line in errors:
        print(f"error: {line}", file=sys.stderr)
    print(f"attempted {runner.attempted} failed {runner.failed}")
    print(json.dumps({
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
