"""Independent reference values and the checks applied to every output.

Nothing here imports the package: references come from closed forms,
from networkx, or from the small counter below, which walks cliques in
vertex-id order and shares no code or ordering rule with the package's
min-degree traversal.
"""

from __future__ import annotations

import hashlib
from math import comb

import networkx as nx


def adjacency_bits(n: int, edges) -> list[int]:
    bits = [0] * n
    for u, v in edges:
        bits[u] |= 1 << v
        bits[v] |= 1 << u
    return bits


def reference_census(n: int, edges) -> list[int]:
    """Clique counts by size: each clique is grown from its lowest id."""
    bits = adjacency_bits(n, edges)
    higher = [bits[v] >> (v + 1) << (v + 1) for v in range(n)]
    counts = [1]
    stack = [(higher[v], 1) for v in range(n)]
    while stack:
        cand, size = stack.pop()
        if size == len(counts):
            counts.append(0)
        counts[size] += 1
        while cand:
            low = cand & -cand
            cand ^= low
            stack.append((cand & higher[low.bit_length() - 1], size + 1))
    return counts


def path_power_census(n: int, k: int) -> list[int]:
    """s-cliques of P_n^k: an s-set spanning at most k steps, by lowest vertex."""
    counts = [1] + [sum(comb(min(k, n - 1 - i), s - 1) for i in range(n))
                    for s in range(1, min(k + 1, n) + 1)]
    assert sum(counts) == 2**k * (n - k + 1)
    return counts


def multipartite_census(k: int) -> list[int]:
    counts = [comb(k, s) * 2**s for s in range(k + 1)]
    assert sum(counts) == 3**k
    return counts


def max_core_number(n: int, edges) -> int:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return max(nx.core_number(g).values(), default=0)


def check_census(counts, reference) -> str | None:
    if list(counts) != list(reference):
        return f"census {list(counts)} != reference {list(reference)}"
    return None


def check_listing(text: str, bits: list[int], reference) -> str | None:
    """Distinct lines, each a clique of the edge set, sizes as the reference."""
    if not text.endswith("\n"):
        return "listing does not end with a newline"
    lines = text[:-1].split("\n")
    if len(set(lines)) != len(lines):
        return "listing has duplicate lines"
    sizes = [0] * len(reference)
    for line in lines:
        vertices = [int(x) for x in line.split()]
        mask = 0
        for v in vertices:
            mask |= 1 << v
        if mask.bit_count() != len(vertices):
            return f"line {line!r} repeats a vertex"
        for v in vertices:
            if (mask ^ (1 << v)) & ~bits[v]:
                return f"line {line!r} is not a clique"
        if len(vertices) >= len(sizes):
            return f"line {line!r} is larger than the largest clique"
        sizes[len(vertices)] += 1
    if sizes != list(reference):
        return f"listing sizes {sizes} != reference {list(reference)}"
    return None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def failed_on_free_input(names) -> str:
    return f"checks failed on a subdivision-free input: {list(names)}"


# The one fault the benchmark keeps: the audit of path_power(2000,2) at
# t=4 fails total-product every time (src/clique_census/audit.py:456,
# no factor for the number of hanging subtrees) on an input that does
# not depend on the seed.  Only this exact problem is exempt.
KNOWN_FAULT = ("path_power(2000,2)", "audit", failed_on_free_input(["total-product"]))


def is_known_fault(input_name: str, op: str, problem: str) -> bool:
    """True only for the kept fault; any other problem makes a run incorrect."""
    return (input_name, op, problem) == KNOWN_FAULT


def check_audit(report: dict, total: int, max_core: int,
                known_free: bool) -> str | None:
    """The audit's JSON report against the reference total and core number.

    The tree has one node per clique, so every tree-size lhs must equal
    the reference total.  On inputs with no K_t-subdivision every check
    must hold; under the subdivision-free assumption every failed window
    check must be backed by a window oracle check that holds.
    """
    checks = {c["name"]: c for c in report["checks"]}
    for name in ("total-product", "total-headline", "degenerate-bound"):
        if name in checks and int(checks[name]["lhs"]) != total:
            return f"{name} lhs {checks[name]['lhs']} != reference total {total}"
    if "degeneracy-cap" not in checks:
        return "no degeneracy-cap check"
    if int(checks["degeneracy-cap"]["lhs"]) != max_core:
        return (f"degeneracy-cap lhs {checks['degeneracy-cap']['lhs']} "
                f"!= max core number {max_core}")
    if known_free:
        failed = [c["name"] for c in report["checks"] if not c["holds"]]
        if failed:
            return failed_on_free_input(failed)
    if report["config"]["assume_subdivision_free"]:
        for c in report["checks"]:
            if c["name"].startswith("window@") and not c["holds"]:
                oracle = checks.get(c["name"].split("-")[0] + "-oracle")
                if oracle is None or not oracle["holds"]:
                    return f"{c['name']} failed without a holding oracle check"
    return None
