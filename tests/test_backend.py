"""Kernel backend selection and agreement."""

import pytest
from hypothesis import given, settings

from clique_census import backend as backend_module
from clique_census import (
    available_backends,
    census,
    census_of_subset,
    count_cliques,
    default_backend,
)

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


@given(graphs(max_n=8))
@settings(max_examples=40)
def test_census_of_subset_restricts(g):
    full = g.full_mask()
    for name in available_backends():
        counts = census_of_subset(g, full, name)
        assert counts[0] == 1
        assert sum(counts) == count_cliques(g)
        # empty candidate set: only the empty clique
        assert census_of_subset(g, 0, name) == [1]


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
