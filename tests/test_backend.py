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


@given(graphs(max_n=10), st.integers(min_value=0, max_value=(1 << 10) - 1))
@settings(max_examples=80)
def test_census_of_subset_restricts(g, mask):
    full = g.full_mask()
    mask &= full
    sub, _ = induced_subgraph(g, mask_vertices(mask))
    counts = census_of_subset(rows(g), full)
    assert counts[0] == 1
    assert sum(counts) == count_cliques(g)
    # empty candidate set: only the empty clique
    assert census_of_subset(rows(g), 0) == [1]
    # any other set: the cliques of the subgraph it induces
    assert census_of_subset(rows(g), mask) == brute_census(sub)


@pytest.mark.parametrize("mask", [-1, 1 << 5, 1 << 100, 0b10_0001])
def test_census_of_subset_rejects_masks_outside_the_graph(mask):
    g = Graph(5, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        census_of_subset(rows(g), mask)
    with pytest.raises(ValueError):
        census_of_subset(rows(Graph(0, [])), 1)


def test_pivot_census_of_complete_graph_is_exact_past_64_bits():
    result = census(complete(70), backend="pure")
    assert list(result.counts) == [comb(70, k) for k in range(71)]
    assert result.total == 2**70


def test_pivot_census_of_multipartite_closed_form():
    # each s-clique picks s of the k parts and one of two vertices in each;
    # at k = 32 and 64 (n = 64 and 128) every local graph is a clique
    # minus a perfect matching, one leaf each
    for k in (15, 32, 64):
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


def co_matching_graph(n, pairs, hubs, seed, miss=False):
    """A graph on n vertices: `hubs` ids joined to every vertex, and a
    block of 2 * pairs + 4 ids spread over the words, a clique minus a
    matching of `pairs` pairs, so 4 of its vertices are joined to the
    whole block. The other vertices form a path. With miss, one paired
    block vertex also misses an unpaired one: it misses two others.
    """
    rng = random.Random(seed)
    ids = list(range(n))
    rng.shuffle(ids)
    hub, block, rest = ids[:hubs], ids[hubs:hubs + 2 * pairs + 4], ids[hubs + 2 * pairs + 4:]
    gone = {frozenset(block[2 * i:2 * i + 2]) for i in range(pairs)}
    if miss:
        gone.add(frozenset((block[0], block[-1])))
    edges = [(u, v) for u in hub for v in range(n) if u != v]
    edges += [(u, v) for i, u in enumerate(block) for v in block[i + 1:]
              if frozenset((u, v)) not in gone]
    rest.sort()
    edges += list(zip(rest, rest[1:]))
    return Graph(n, edges)


@pytest.mark.parametrize("n", WORD_EDGE_SIZES)
@pytest.mark.parametrize("hubs", [0, 2])
@pytest.mark.parametrize("miss", [False, True], ids=["matching", "near_miss"])
def test_census_of_subset_co_matching_blocks(n, hubs, miss):
    # the block's local candidate sets are cliques minus a matching, and
    # with `miss` one vertex misses two others, so that leaf must not fire
    rng = random.Random(n * 4 + hubs + miss)
    for pairs in (1, 3, 6):
        g = co_matching_graph(n, pairs, hubs, rng.random(), miss)
        bits = rows(g)
        masks = [g.full_mask()] + [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(3)]
        for mask in masks:
            sub, _ = induced_subgraph(g, mask_vertices(mask))
            assert census_of_subset(bits, mask) == extension_census(sub)


@st.composite
def sparse_complements(draw, max_n=12):
    """Graphs whose complement has maximum degree at most 2: cliques minus
    a matching, and near misses where some vertex misses two others."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    order = draw(st.permutations(pairs)) if pairs else []
    missed = [0] * n
    gone = set()
    for u, v in order[:draw(st.integers(min_value=0, max_value=n))]:
        if missed[u] < 2 and missed[v] < 2:
            missed[u] += 1
            missed[v] += 1
            gone.add((u, v))
    return Graph(n, [e for e in pairs if e not in gone])


@st.composite
def cones(draw):
    """A hypothesis graph joined to 1-3 universal vertices at random ids."""
    g = draw(graphs(max_n=10))
    k = draw(st.integers(min_value=1, max_value=3))
    n = g.n + k
    ids = draw(st.permutations(range(n)))
    top = ids[:k]
    edges = [(ids[k + u], ids[k + v]) for u, v in g.edges()]
    edges += [(u, v) for u in top for v in range(n) if u != v]
    return Graph(n, edges)


@given(st.one_of(sparse_complements(), cones()), st.integers(min_value=0))
@settings(max_examples=150)
def test_census_of_subset_shortcuts_agree_with_brute(g, seed):
    rng = random.Random(seed)
    bits = rows(g)
    for mask in (g.full_mask(), rng.getrandbits(g.n) if g.n else 0):
        sub, _ = induced_subgraph(g, mask_vertices(mask))
        assert census_of_subset(bits, mask) == brute_census(sub)
