"""Pure-Python bitset kernel for the streaming clique-tree traversal.

Candidate sets are Python ints used as bitmasks, so any vertex count works.
The traversal visits one tree node per clique: at each node it repeatedly
picks the minimum-degree vertex of the candidate-induced subgraph (smallest
id on ties), descends into the intersection with its neighborhood, then
drops the vertex and continues.
"""

from __future__ import annotations


def backend_name() -> str:
    return "pure"


def census_of_subset(bits: tuple[int, ...], start_mask: int) -> list[int]:
    """Per-depth node counts for the subtree rooted at the given candidate set.

    counts[d] is the number of nodes at depth d; counts[0] == 1 for the root.
    Trailing zero entries are trimmed. Each level drops at least the chosen
    vertex, so the depth is at most the size of the candidate set.
    """
    size = start_mask.bit_count()
    counts = [0] * (size + 2)
    counts[0] = 1
    levels = [0] * (size + 2)
    levels[0] = start_mask
    d = 0
    while d >= 0:
        cur = levels[d]
        if cur == 0:
            d -= 1
            continue
        # graph.min_degree_in inlined: calling it per node slowed this loop ~20%
        best_v = -1
        best_deg = size + 1
        m = cur
        while m:
            low = m & -m
            v = low.bit_length() - 1
            deg = (bits[v] & cur).bit_count()
            if deg < best_deg:
                best_deg = deg
                best_v = v
                if deg == 0:
                    break
            m ^= low
        levels[d + 1] = cur & bits[best_v]
        levels[d] = cur ^ (1 << best_v)
        d += 1
        counts[d] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts
