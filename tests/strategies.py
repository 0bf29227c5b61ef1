"""Shared hypothesis strategies and seeded graph families for the test suite."""

import random

import hypothesis.strategies as st

from clique_census import Graph

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


@st.composite
def graphs(draw, max_n=10, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs)))
    else:
        edges = set()
    return Graph(n, edges)
