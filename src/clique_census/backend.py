"""The census kernel: per-size clique counts of an induced subgraph.

The kernel reads a graph as bit rows (graph.rows), and candidate sets are
Python ints used as bitmasks over those rows, so any vertex count works.
The census does not visit each clique. It walks a pivoting tree (Jain and
Seshadhri, "The Power of Pivoting for Exact Clique Counting", WSDM 2020):
every leaf stands for a set of h held vertices, which each of its cliques
contains, and p pivots, which each of its cliques may or may not contain,
so a leaf counts C(p, k) cliques of size h + k. Counts are exact Python
ints, so they never overflow.

tree.census runs the kernel on the local graph of each vertex's
higher-ranked neighbours in (degree, id) order, once per distinct local
graph. Enumeration, build_tree and the audit's skeleton walk the
min-degree clique tree, rooted at the min-degree peel, one node per
clique; they are the independent reference for these counts. The
skeleton sizes each subtree it does not walk with this kernel, once per
distinct (rows, label) pair.

There is one kernel, named "pure". The `backend` arguments accept None or
"pure" and reject every other name with ValueError.
"""

from __future__ import annotations

from math import comb

from .graph import check_mask


def available_backends() -> tuple[str, ...]:
    return ("pure",)


def default_backend() -> str:
    return "pure"


def check_backend(backend: str | None) -> None:
    """Raise ValueError unless backend names the one kernel; None does."""
    if backend not in (None, "pure"):
        raise ValueError(f"unknown backend {backend!r}")


def census_of_subset(bits, start_mask: int, backend: str | None = None) -> list[int]:
    """Per-size clique counts of the subgraph induced on start_mask, in the
    graph whose adjacency rows are `bits`.

    counts[k] is the number of k-cliques; counts[0] == 1 for the empty
    clique. Trailing zero entries are trimmed. These are also the per-depth
    node counts of the min-degree clique tree below that candidate set.
    Raises ValueError for a negative mask, one with bits at or above
    len(bits), or an unknown backend.

    At a candidate set S the pivot u is the candidate with the most
    neighbours in S (smallest id on ties). One branch keeps u as a pivot and
    recurses on S & N(u); then each non-neighbour v of u in S, in increasing
    id order, is held and recurses on S & N(v) minus the non-neighbours
    before it. Every clique of S lies in exactly one branch. A candidate set
    that is itself a clique ends its branch with all its vertices as pivots,
    which is the leaf the pivot chain below it would reach.
    """
    check_mask(len(bits), start_mask)
    check_backend(backend)
    leaves: dict[tuple[int, int], int] = {}  # (held, pivots) -> leaf count
    stack = [(start_mask, 0, 0)]
    while stack:
        cand, held, pivots = stack.pop()
        size = cand.bit_count()
        best_v = -1
        best_deg = -1
        low_deg = size
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            deg = (bits[v] & cand).bit_count()
            if deg > best_deg:
                best_deg = deg
                best_v = v
            if deg < low_deg:
                low_deg = deg
            m ^= low
        if low_deg >= size - 1:
            key = (held, pivots + size)
            leaves[key] = leaves.get(key, 0) + 1
            continue
        pivot_nbrs = bits[best_v] & cand
        stack.append((pivot_nbrs, held, pivots + 1))
        m = cand ^ pivot_nbrs ^ (1 << best_v)
        rest = cand
        while m:
            low = m & -m
            rest ^= low
            stack.append((bits[low.bit_length() - 1] & rest, held + 1, pivots))
            m ^= low
    counts = [0] * (max(h + p for h, p in leaves) + 1)
    for (h, p), c in leaves.items():
        for k in range(p + 1):
            counts[h + k] += c * comb(p, k)
    return counts
