"""Seeded input graphs for the benchmark, built without the package.

Every builder returns (n, edges) with edges a sorted list of (u, v),
u < v.  Structured families keep their natural labelling, so their
closed-form counts apply directly; only the random parts depend on the
seed.
"""

from __future__ import annotations

import random


def path_power(n: int, k: int) -> tuple[int, list[tuple[int, int]]]:
    """Edge iff 0 < |i - j| <= k."""
    return n, [(i, j) for i in range(n) for j in range(i + 1, min(i + k + 1, n))]


def multipartite_222(k: int) -> tuple[int, list[tuple[int, int]]]:
    """K_{2,...,2} with k parts {2i, 2i+1}."""
    n = 2 * k
    return n, [(u, v) for u in range(n) for v in range(u + 1, n) if u // 2 != v // 2]


def gnm(n: int, m: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """Uniform graph with exactly m edges.

    A fixed edge count instead of G(n, p) keeps the clique count, and so
    the work per run, from swinging with the seed.
    """
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return n, sorted(edges)


def gnm_near(n: int, m: int, target: int, rng: random.Random,
             count) -> tuple[int, list[tuple[int, int]]]:
    """The first G(n, m) draw whose clique count is within 2% of target.

    The clique counts of dense random graphs swing by up to a fifth
    between seeds (G(28, 302): 20% coefficient of variation over 40
    seeds), and every operation's work follows the count.  Redrawing keeps
    the work of a run nearly fixed while the graph still comes from the
    seed.  count(n, edges) returns the total clique count.
    """
    for _ in range(1000):
        n, edges = gnm(n, m, rng)
        if abs(count(n, edges) - target) <= 0.02 * target:
            return n, edges
    raise RuntimeError(f"no G({n}, {m}) near {target} cliques in 1000 draws")


def planted(host, blocks: list[tuple[int, list[tuple[int, int]]]],
            rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """The host plus each block laid on its own random set of host vertices."""
    n, edges = host
    out = set(edges)
    free = list(range(n))
    rng.shuffle(free)
    for size, block_edges in blocks:
        spots, free = sorted(free[:size]), free[size:]
        for u, v in block_edges:
            a, b = spots[u], spots[v]
            out.add((min(a, b), max(a, b)))
    return n, sorted(out)


def complete(n: int) -> tuple[int, list[tuple[int, int]]]:
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def write_edge_list(path: str, n: int, edges: list[tuple[int, int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.write("".join(f"{u} {v}\n" for u, v in edges))
