"""The census kernel: per-size clique counts of an induced subgraph.

The kernel reads a graph as bit rows (graph.rows), and candidate sets are
Python ints used as bitmasks over those rows, so any vertex count works.
The census does not visit each clique. It walks a pivoting tree (Jain and
Seshadhri, "The Power of Pivoting for Exact Clique Counting", WSDM 2020):
every leaf stands for a set of h held vertices, which each of its cliques
contains, p pivots, which each of its cliques may or may not contain,
and q pairs, of which each clique takes at most one end. So a leaf
(h, p, q) counts C(p, a) C(q, b) 2^b cliques of size h + a + b. The
degree scan at each node gives three shortcuts. A candidate set whose
non-edges form a matching is such a leaf (a clique is the case q = 0).
Candidates joined to all the others move to the pivots in one step,
before the pivot is picked. A child of at most one candidate is tallied
as a leaf without being pushed. On complete_multipartite_222(k), whose
local graphs are cliques minus a perfect matching, each local graph is
one leaf. Counts are exact Python ints, so they never overflow.

tree.census runs the kernel on the local graph of each vertex's
higher-ranked neighbours in (degree, id) order, once per distinct local
graph. Enumeration, build_tree and the audit's skeleton walk the
min-degree clique tree, rooted at the min-degree peel, one node per
clique; they are the independent reference for these counts. The
skeleton sizes each subtree it does not walk with this kernel, once per
distinct (rows, label) pair.

There is one kernel, named "pure". census keeps a `backend` argument
that accepts None or "pure" and rejects every other name with
ValueError; available_backends and default_backend name the one
kernel.
"""

from __future__ import annotations

from math import comb

from .graph import check_mask


def available_backends() -> tuple[str, ...]:
    return ("pure",)


def default_backend() -> str:
    return "pure"


def census_of_subset(bits, start_mask: int) -> list[int]:
    """Per-size clique counts of the subgraph induced on start_mask, in the
    graph whose adjacency rows are `bits`.

    counts[k] is the number of k-cliques; counts[0] == 1 for the empty
    clique. Trailing zero entries are trimmed. These are also the per-depth
    node counts of the min-degree clique tree below that candidate set.
    Raises ValueError for a negative mask or one with bits at or above
    len(bits).

    One scan at a candidate set S takes each candidate's degree in S.
    Every candidate joined to all of S moves to the pivots at once. Then
    the pivot u is the remaining candidate with the most neighbours in S
    (smallest id on ties). One branch keeps u as a pivot and recurses on
    S & N(u); then each non-neighbour v of u in S, in increasing id order,
    is held and recurses on S & N(v) minus the non-neighbours before it.
    Every clique of S lies in exactly one branch.

    A branch ends at a co-matching leaf, when every candidate misses at
    most one other: the non-edges of S then pair off q candidates, the
    rest are pivots, and a clique takes any subset of the pivots and at
    most one end of each pair. A candidate set that is a clique is the
    case q = 0, and a child of at most one candidate is tallied as one
    without being pushed. Each shortcut counts the cliques the pivot walk
    below it would count, so the counts are those of the walk.
    """
    check_mask(len(bits), start_mask)
    leaves: dict[tuple[int, int, int], int] = {}  # (held, pivots, pairs) -> count
    stack = [(start_mask, 0, 0)]
    while stack:
        cand, held, pivots = stack.pop()
        size = cand.bit_count()
        top = size - 1
        full = 0  # the candidates joined to all of cand
        best_v = -1
        best_deg = -1
        low_deg = size
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            deg = (bits[v] & cand).bit_count()
            if deg == top:
                full |= low
            else:
                if deg > best_deg:
                    best_deg = deg
                    best_v = v
                if deg < low_deg:
                    low_deg = deg
            m ^= low
        n_full = full.bit_count()
        if low_deg >= top - 1:
            key = (held, pivots + n_full, (size - n_full) >> 1)
            leaves[key] = leaves.get(key, 0) + 1
            continue
        cand ^= full
        pivots += n_full
        pivot_nbrs = bits[best_v] & cand
        if pivot_nbrs & (pivot_nbrs - 1):
            stack.append((pivot_nbrs, held, pivots + 1))
        else:
            key = (held, pivots + 1 + (pivot_nbrs != 0), 0)
            leaves[key] = leaves.get(key, 0) + 1
        m = cand ^ pivot_nbrs ^ (1 << best_v)
        rest = cand
        while m:
            low = m & -m
            rest ^= low
            child = bits[low.bit_length() - 1] & rest
            if child & (child - 1):
                stack.append((child, held + 1, pivots))
            else:
                key = (held + 1, pivots + (child != 0), 0)
                leaves[key] = leaves.get(key, 0) + 1
            m ^= low
    counts = [0] * (max(h + p + q for h, p, q in leaves) + 1)
    for (h, p, q), c in leaves.items():
        # a clique takes b of the q pairs, one end each, and a of the p pivots
        for b in range(q + 1):
            cb = c * comb(q, b) << b
            for a in range(p + 1):
                counts[h + b + a] += cb * comb(p, a)
    return counts
