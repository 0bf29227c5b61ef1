"""Shows that the benchmark's checks reject wrong answers.

    python3 perfbench/selftest.py

run.py calls run() before every benchmark run, so a check that has
stopped being able to fail stops the benchmark.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import graphs  # noqa: E402


def _rejects(problem: str | None, what: str) -> None:
    if problem is None:
        raise SystemExit(f"self-test: the checks accepted {what}")


def _accepts(problem: str | None, what: str) -> None:
    if problem is not None:
        raise SystemExit(f"self-test: the checks rejected {what}: {problem}")


def _failing(report: dict, name: str) -> dict:
    """The report with the check called name marked as failed."""
    return dict(report, checks=[dict(c, holds=False) if c["name"] == name else c
                                for c in report["checks"]])


def run(cc) -> None:
    """Feed each check a right answer and wrong ones; raise if one slips."""
    n, edges = graphs.path_power(30, 2)
    reference = checks.path_power_census(30, 2)
    if reference != checks.reference_census(n, edges):
        raise SystemExit("self-test: closed form and counter disagree on path_power(30,2)")
    n6, edges6 = graphs.multipartite_222(6)
    if checks.multipartite_census(6) != checks.reference_census(n6, edges6):
        raise SystemExit("self-test: closed form and counter disagree on K_{2,...,2}")

    census = list(reference)
    _accepts(checks.check_census(census, reference), "the right census")
    off = census[:]
    off[2] += 1
    _rejects(checks.check_census(off, reference), "a census off by one")

    bits = checks.adjacency_bits(n, edges)
    good = ["", *(str(v) for v in range(n)),
            *(f"{u} {v}" for u, v in edges),
            *(f"{i} {i + 1} {i + 2}" for i in range(n - 2))]
    _accepts(checks.check_listing("\n".join(good) + "\n", bits, reference),
             "the right listing")
    duplicated = good[:-1] + [good[-2]]
    _rejects(checks.check_listing("\n".join(duplicated) + "\n", bits, reference),
             "a listing with a duplicated line")
    non_clique = good[:-1] + ["0 1 3"]
    _rejects(checks.check_listing("\n".join(non_clique) + "\n", bits, reference),
             "a listing with a non-clique line")
    _rejects(checks.check_listing("\n".join(good[:-1]) + "\n", bits, reference),
             "a listing with a missing line")

    g = cc.Graph(n, edges)
    report = cc.audit_graph(g, cc.AuditConfig(t=4)).to_json()
    total = sum(reference)
    _accepts(checks.check_audit(report, total, 2, known_free=True), "the right audit")
    _rejects(checks.check_audit(report, total + 1, 2, known_free=True),
             "an audit whose tree size disagrees")
    _rejects(checks.check_audit(report, total, 3, known_free=True),
             "an audit whose degeneracy disagrees")
    _rejects(checks.check_audit(_failing(report, "skeleton-size"), total, 2, known_free=True),
             "a failed check on a subdivision-free input")

    # The kept fault is exempt only as itself: total-product failing alone.
    def kept(problem):
        return checks.is_known_fault("path_power(2000,2)", "audit", problem)

    product = _failing(report, "total-product")
    if not kept(checks.check_audit(product, total, 2, known_free=True)):
        raise SystemExit("self-test: the kept total-product fault is not recognised")
    for what, problem in (
            ("a wrong tree size", checks.check_audit(product, total + 1, 2, known_free=True)),
            ("a wrong degeneracy", checks.check_audit(product, total, 3, known_free=True)),
            ("a second failed check", checks.check_audit(
                _failing(product, "skeleton-size"), total, 2, known_free=True))):
        if kept(problem):
            raise SystemExit(f"self-test: {what} on the kept-fault input passed as the kept fault")
    window = dict(report, config=dict(report["config"], assume_subdivision_free=True),
                  checks=report["checks"] + [
                      {"name": "window@7-size", "lhs": "9", "holds": False}])
    _rejects(checks.check_audit(window, total, 2, known_free=False),
             "a failed window check without an oracle check")
    backed = dict(window, checks=window["checks"] + [
        {"name": "window@7-oracle", "lhs": "1", "holds": True}])
    _accepts(checks.check_audit(backed, total, 2, known_free=False),
             "a failed window check backed by its oracle")


if __name__ == "__main__":
    root = HERE.parent
    sys.path.insert(0, str(root / "src"))
    import clique_census

    run(clique_census)
    print("self-test: every check rejected its wrong answers")
