"""The census kernel: backend names, agreement and subset censuses."""

import random
from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from clique_census import (
    Graph,
    available_backends,
    census,
    census_of_subset,
    complete,
    complete_multipartite_222,
    count_cliques,
    default_backend,
    induced_subgraph,
)
from clique_census.graph import mask_vertices, rows

from brute import brute_census, extension_census
from strategies import WORD_EDGE_SIZES, graphs, word_edge_graphs


def test_backend_listing():
    assert available_backends() == ("pure",)
    assert default_backend() == "pure"


@given(graphs())
@settings(max_examples=60)
def test_backends_agree(g):
    expected = brute_census(g)
    for name in available_backends():
        assert list(census(g, backend=name).counts) == expected


@given(graphs())
@settings(max_examples=40)
def test_threaded_census_agrees(g):
    single = census(g, threads=1)
    for threads in (2, 3):
        assert census(g, threads=threads).counts == single.counts
        assert count_cliques(g, threads=threads) == single.total


@given(graphs(max_n=10), st.integers(min_value=0, max_value=(1 << 10) - 1))
@settings(max_examples=80)
def test_census_of_subset_restricts(g, mask):
    full = g.full_mask()
    mask &= full
    sub, _ = induced_subgraph(g, mask_vertices(mask))
    for name in available_backends():
        counts = census_of_subset(rows(g), full, name)
        assert counts[0] == 1
        assert sum(counts) == count_cliques(g)
        # empty candidate set: only the empty clique
        assert census_of_subset(rows(g), 0, name) == [1]
        # any other set: the cliques of the subgraph it induces
        assert census_of_subset(rows(g), mask, name) == brute_census(sub)


@pytest.mark.parametrize("mask", [-1, 1 << 5, 1 << 100, 0b10_0001])
def test_census_of_subset_rejects_masks_outside_the_graph(mask):
    g = Graph(5, [(0, 1), (1, 2)])
    for name in available_backends():
        with pytest.raises(ValueError):
            census_of_subset(rows(g), mask, name)
    with pytest.raises(ValueError):
        census_of_subset(rows(Graph(0, [])), 1, "pure")


def test_pivot_census_of_complete_graph_is_exact_past_64_bits():
    result = census(complete(70), backend="pure")
    assert list(result.counts) == [comb(70, k) for k in range(71)]
    assert result.total == 2**70


def test_pivot_census_of_multipartite_closed_form():
    # each s-clique picks s of the k parts and one of two vertices in each
    k = 15
    result = census(complete_multipartite_222(k), backend="pure")
    assert list(result.counts) == [comb(k, s) * 2**s for s in range(k + 1)]
    assert result.total == 3**k


@pytest.mark.parametrize("n", WORD_EDGE_SIZES)
def test_census_of_subset_multiword_masks(n):
    rng = random.Random(n)
    for g in word_edge_graphs(n):
        bits = rows(g)
        masks = [rng.getrandbits(n) for _ in range(3)]
        masks.append(rng.getrandbits(n) & rng.getrandbits(n))
        # the top ids, where the hub graph's 10-clique sits
        masks.append(((1 << 16) - 1) << (n - 16))
        if n > 64:
            # bits only above bit 63, so the low word is empty
            masks += [rng.getrandbits(n - 64) << 64 for _ in range(2)]
        for mask in masks:
            sub, _ = induced_subgraph(g, mask_vertices(mask))
            assert census_of_subset(bits, mask) == extension_census(sub)


def test_unknown_backend_rejected():
    g = Graph(2, [(0, 1)])
    for name in ("nosuch", "compiled"):
        with pytest.raises(ValueError):
            census(g, backend=name)
        with pytest.raises(ValueError):
            census(Graph(0, []), backend=name)
        with pytest.raises(ValueError):
            census_of_subset(rows(g), g.full_mask(), name)
