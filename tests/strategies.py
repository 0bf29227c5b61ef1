"""Shared hypothesis strategies and seeded graph families for the test suite."""

import random
from fractions import Fraction
from functools import lru_cache

import hypothesis.strategies as st

from clique_census import Graph, random_gnp

# vertex counts on both sides of one and two 64-bit words
WORD_EDGE_SIZES = (63, 64, 65, 127, 128, 129)


def word_edge_graphs(n):
    """Sparse graphs on n vertices with many degree ties and a dense spot.

    A seeded G(n, 1/10), a path power, and a hub adjacent to everything
    plus a 10-clique at the top ids, so that the last vertices of the peel
    sit across the word boundary.
    """
    rng = random.Random(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    gnp = Graph(n, [e for e in pairs if rng.random() < 0.1])
    path = Graph(n, [(u, v) for u, v in pairs if v - u <= 4])
    block = range(n - 10, n)
    hub = Graph(n, [(0, v) for v in range(1, n)]
                + [(u, v) for u in block for v in block if u < v])
    return [gnp, path, hub]


def grid(rows, cols):
    """The rows x cols grid: 2-degenerate, treewidth min(rows, cols)."""
    edges = [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c)
              for r in range(rows - 1) for c in range(cols)]
    return Graph(rows * cols, edges)


def hub_path_with_leaves(path_len):
    """A hub (id 0) joined to every vertex of a path on ids 1..path_len,
    each path vertex carrying path_len - 1 private leaves.

    The graph is 2-degenerate, but every path vertex has a higher degree
    than the hub, so in (degree, id) order the hub's higher-ranked
    neighbours are the whole path: out-degree path_len against d = 2.
    """
    edges = [(0, v) for v in range(1, path_len + 1)]
    edges += [(v, v + 1) for v in range(1, path_len)]
    leaf = path_len + 1
    for v in range(1, path_len + 1):
        for _ in range(path_len - 1):
            edges.append((v, leaf))
            leaf += 1
    return Graph(leaf, edges)


@st.composite
def graphs(draw, max_n=10, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return Graph(n, edges)


CORPUS_PROBS = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))


@lru_cache(maxsize=1)
def corpus():
    """The acceptance corpus: 200 seeded random graphs, n in 8..18, three
    edge densities."""
    return tuple(
        random_gnp(8 + (i % 11), CORPUS_PROBS[i % 3], seed=1000 + i)
        for i in range(200)
    )
