"""Kernel backend selection and agreement."""

from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from clique_census import backend as backend_module
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
from clique_census.graph import mask_vertices

from brute import brute_census, extension_census
from strategies import graphs, word_edge_graphs


def test_backend_listing():
    names = available_backends()
    assert "pure" in names
    assert default_backend() in names


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
        counts = census_of_subset(g, full, name)
        assert counts[0] == 1
        assert sum(counts) == count_cliques(g)
        # empty candidate set: only the empty clique
        assert census_of_subset(g, 0, name) == [1]
        # any other set: the cliques of the subgraph it induces
        assert census_of_subset(g, mask, name) == brute_census(sub)


@pytest.mark.parametrize("mask", [-1, 1 << 5, 1 << 100, 0b10_0001])
def test_census_of_subset_rejects_masks_outside_the_graph(mask):
    g = Graph(5, [(0, 1), (1, 2)])
    for name in available_backends():
        with pytest.raises(ValueError):
            census_of_subset(g, mask, name)
    with pytest.raises(ValueError):
        census_of_subset(Graph(0, []), 1, "pure")


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


def test_thread_pool_path_agrees(monkeypatch):
    # the pure kernel holds the interpreter lock, so census runs its jobs
    # serially; pretend it does not, to drive the bounded pool with it
    monkeypatch.setattr(backend_module, "releases_gil", lambda name: True)
    for g in word_edge_graphs(129):
        expected = extension_census(g)
        for threads in (2, 3):
            assert list(census(g, threads=threads, backend="pure").counts) == expected


def test_unknown_backend_rejected():
    from clique_census import Graph

    with pytest.raises(ValueError):
        census(Graph(2, [(0, 1)]), backend="nosuch")
    with pytest.raises(ValueError):
        census(Graph(0, []), backend="nosuch")
