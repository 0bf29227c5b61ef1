"""Clique search tree structure, counting, and enumeration."""

import gc
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings

import clique_census
from clique_census import (
    CapacityError,
    Graph,
    build_tree,
    census,
    census_of_subset,
    complete_multipartite_222,
    count_cliques,
    enumerate_cliques,
    induced_subgraph,
    path_power,
)
from clique_census.graph import degeneracy, rows
from clique_census.tree import _clique_blocks, _local_graphs

from brute import (
    RootedSubtree,
    brute_census,
    brute_cliques,
    extension_census,
    subtree_at,
    subtree_bound_check,
    trees_isomorphic,
)
from strategies import WORD_EDGE_SIZES, graphs, hub_path_with_leaves, word_edge_graphs


def k(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_k3_has_eight_nodes():
    tree = build_tree(k(3))
    assert tree.node_count == 8
    assert tree.height() == 3


def test_empty_graph():
    tree = build_tree(Graph(0, []))
    assert tree.node_count == 1
    assert count_cliques(Graph(0, [])) == 1
    assert census(Graph(0, [])).counts == (1,)


def test_preorder_indices_contiguous():
    tree = build_tree(k(4))
    sizes = tree.subtree_sizes()
    for node in tree.nodes:
        assert tree.nodes[node.index] is node
        last = node.index + sizes[node.index] - 1
        assert last < tree.node_count
        for child in node.children:
            assert node.index < child.index <= last


@given(graphs())
@settings(max_examples=80)
def test_census_matches_brute_force(g):
    assert list(census(g).counts) == brute_census(g)


@given(graphs())
def test_count_matches_tree_node_count(g):
    tree = build_tree(g)
    assert tree.node_count == count_cliques(g)
    assert list(tree.census_counts()) == list(census(g).counts)
    # the pivot kernel on the whole graph, without the root split
    assert census_of_subset(rows(g), g.full_mask()) == tree.census_counts()


@given(graphs(max_n=8))
def test_enumerate_exactly_once(g):
    seen = list(enumerate_cliques(g))
    assert len(seen) == len(set(seen)) == count_cliques(g)
    assert set(seen) == brute_cliques(g)
    assert seen[0] == frozenset()


@given(graphs())
def test_enumeration_order_matches_tree(g):
    tree = build_tree(g)
    assert [node.clique() for node in tree.nodes] == list(enumerate_cliques(g))


@given(graphs())
def test_block_tails_are_cliques_joined_to_chosen(g):
    for chosen, tail, first in _clique_blocks(g):
        assert list(tail) == sorted(set(tail))
        assert not set(tail) & set(chosen)
        for i, u in enumerate(tail):
            assert all(g.has_edge(u, v) for v in tail[i + 1:]), (chosen, tail)
            assert all(g.has_edge(u, v) for v in chosen), (chosen, tail)
        # a block without its first clique is a run of at least one id
        assert first or tail, (chosen, tail)


@pytest.mark.parametrize("k", range(1, 13))
def test_multipartite_block_count(k):
    # one block per clique label and one per run; with a child block per
    # run id instead there would be (k + 5) * 2^(k - 2), 17,408 at k = 12
    blocks = list(_clique_blocks(complete_multipartite_222(k)))
    assert len(blocks) == 3 * 2 ** (k - 1) + k - 1


@given(graphs())
def test_clique_label_node_is_one_block(g):
    # a node whose label is a clique comes out whole, never as its own
    # line followed by a run of its children
    blocks = list(_clique_blocks(g))
    for (chosen, tail, first), (after, _, after_first) in zip(blocks, blocks[1:]):
        assert not (first and not tail and after == chosen and not after_first), chosen


def test_disjoint_cliques_are_one_block_per_vertex():
    # K_1 ... K_70 side by side: every label is a clique, of 70 distinct
    # sizes (more than _clique_rows caches) up to 69 (more than one word)
    sizes = range(1, 71)
    starts = [sum(range(1, i)) for i in sizes]
    g = Graph(sum(sizes), [(s + a, s + b) for s, i in zip(starts, sizes)
                           for a in range(i) for b in range(a + 1, i)])
    expected = [((), (), True)]
    for s, i in zip(starts, sizes):
        expected += [((v,), tuple(range(v + 1, s + i)), True) for v in range(s, s + i)]
    assert list(_clique_blocks(g)) == expected
    assert len(expected) == 1 + g.n


@given(graphs())
def test_depth_equals_clique_size(g):
    tree = build_tree(g)
    for node in tree.nodes:
        assert node.depth == len(node.clique())
        assert node.label_size == node.label_bits.bit_count()


@given(graphs())
def test_labels_nest_strictly(g):
    tree = build_tree(g)
    for node in tree.nodes:
        for child in node.children:
            assert child.label_bits & ~node.label_bits == 0
            assert child.label_bits != node.label_bits
            assert not child.label_bits >> child.chosen_vertex & 1


@given(graphs())
@settings(max_examples=40)
def test_subtree_matches_rebuilt_label_graph(g):
    tree = build_tree(g)
    rng = random.Random(17)
    sample = rng.sample(tree.nodes, min(8, tree.node_count))
    for node in sample:
        sub = subtree_at(tree, node)
        label = sorted(node.label)
        rebuilt = build_tree(induced_subgraph(g, label)[0])
        vmap = {old: new for new, old in enumerate(label)}
        assert sub.node_count == rebuilt.node_count
        assert trees_isomorphic(sub, rebuilt, vmap)


def test_subtree_at_rejects_foreign_node():
    a = build_tree(k(3))
    b = build_tree(k(3))
    with pytest.raises(ValueError):
        subtree_at(a, b.nodes[1])


def test_node_cap():
    with pytest.raises(CapacityError) as err:
        build_tree(k(10), node_cap=100)
    assert err.value.partial_count == 100
    assert build_tree(k(10), node_cap=1024).node_count == 1024


def random_rooted_subtree(tree, rng):
    included = {tree.root.index}
    queue = [tree.root]
    while queue:
        node = queue.pop()
        for child in node.children:
            if rng.random() < 0.6:
                included.add(child.index)
                queue.append(child)
    return RootedSubtree(tree, included)


@given(graphs(max_n=9))
@settings(max_examples=40)
def test_subtree_bound_check_holds(g):
    tree = build_tree(g)
    t = len(census(g).counts)  # g has no clique of this size
    rng = random.Random(5)
    for _ in range(5):
        sub = random_rooted_subtree(tree, rng)
        check = subtree_bound_check(tree, t, sub)
        assert check.holds
        assert check.lhs == tree.node_count


def test_rooted_subtree_validation():
    tree = build_tree(k(3))
    with pytest.raises(ValueError):
        RootedSubtree(tree, set())
    leafy = [n for n in tree.nodes if n.depth == 2][0]
    with pytest.raises(ValueError):
        RootedSubtree(tree, {tree.root.index, leafy.index})
    with pytest.raises(ValueError):
        RootedSubtree(tree, {tree.root.index, 999})


def test_census_total_and_max_size():
    c = census(k(4))
    assert c.total == 16
    assert c.max_clique_size == 4
    assert c.to_json_array() == ["1", "4", "6", "4", "1"]


def _assert_public_enumeration(g, tree):
    """enumerate_cliques yields frozensets, the empty clique first, in
    the preorder of the tree build_tree makes by its global-id descent."""
    cliques = list(enumerate_cliques(g))
    assert all(type(c) is frozenset for c in cliques)
    assert cliques[0] == frozenset()
    assert cliques == [node.clique() for node in tree.nodes]


def by_degree(g):
    """The census's vertex order: (degree, id)."""
    return sorted(range(g.n), key=lambda v: (len(g.adj[v]), v))


def assert_split_invariants(g):
    """Under the peel and under (degree, id), each edge lies in exactly
    one label; under the peel every label has at most d vertices."""
    peel = degeneracy(g)
    for order in (peel.ordering, by_degree(g)):
        labels = {v: set(ids) for v, ids, _ in _local_graphs(g, order)}
        assert list(labels) == list(order)
        assert sum(map(len, labels.values())) == g.edge_count
        for v, label in labels.items():
            assert label <= g.adj[v]
            assert all(v not in labels[u] for u in label)
    assert all(len(ids) <= peel.d for _, ids, _ in _local_graphs(g, peel.ordering))


@given(graphs())
def test_later_neighbours_split_each_edge_once(g):
    assert_split_invariants(g)


@pytest.mark.parametrize("n", WORD_EDGE_SIZES)
def test_root_split_at_word_edges(n):
    for g in word_edge_graphs(n):
        expected = extension_census(g)
        for threads in (1, 2):
            assert list(census(g, threads=threads).counts) == expected
        assert count_cliques(g) == sum(expected)
        tree = build_tree(g)
        assert tree.census_counts() == expected
        assert census_of_subset(rows(g), g.full_mask()) == expected
        _assert_public_enumeration(g, tree)
        # root children follow the peel; each label is the later neighbours
        order = degeneracy(g).ordering
        assert [c.chosen_vertex for c in tree.root.children] == list(order)
        for i, child in enumerate(tree.root.children):
            assert child.label == g.adj[order[i]] & set(order[i + 1:])
        # the streamed split gives the same labels as sorted id lists
        for i, (v, ids, _) in enumerate(_local_graphs(g, order)):
            assert v == order[i]
            assert list(ids) == sorted(g.adj[v] & set(order[i + 1:]))
        assert_split_invariants(g)



def assert_local_graphs_match_rows(g):
    """Under the peel and under (degree, id), each label is the sorted
    later neighbours, and its rows are those rows(g, ids) builds."""
    for order in (degeneracy(g).ordering, by_degree(g)):
        local = list(_local_graphs(g, order))
        assert [v for v, _, _ in local] == list(order)
        for i, (v, ids, bits) in enumerate(local):
            assert list(ids) == sorted(g.adj[v] & set(order[i + 1:]))
            assert list(bits) == rows(g, ids)


@given(graphs())
def test_local_graphs_match_rows(g):
    assert_local_graphs_match_rows(g)


@pytest.mark.parametrize("n", WORD_EDGE_SIZES)
def test_local_graphs_match_rows_at_word_edges(n):
    for g in word_edge_graphs(n):
        assert_local_graphs_match_rows(g)


def test_local_graphs_of_clique_and_near_clique_labels():
    # in id order, vertex i of K_66 has the clique label i+1..65, so the
    # labels are cliques of every size from 65 down to 0
    g = k(66)
    local = list(_local_graphs(g, range(66)))
    assert [len(ids) for _, ids, _ in local] == list(range(65, -1, -1))
    for v, ids, bits in local:
        assert ids == tuple(range(v + 1, 66))
        assert list(bits) == rows(g, ids)
    # a hub joined to K_k minus one edge: the label misses one edge of a
    # clique, so it must not get the clique's rows
    for size in (2, 3, 64, 65):
        for a, b in {(0, 1), (0, size - 1), (size - 2, size - 1), (size // 2 - 1, size // 2)}:
            edges = [(0, u) for u in range(1, size + 1)]
            edges += [(u, w) for u in range(1, size + 1) for w in range(u + 1, size + 1)
                      if (u, w) != (a + 1, b + 1)]
            h = Graph(size + 1, edges)
            v, ids, bits = next(_local_graphs(h, range(size + 1)))
            assert (v, ids) == (0, tuple(range(1, size + 1)))
            assert list(bits) == rows(h, ids)
            assert not bits[a] >> b & 1 and not bits[b] >> a & 1
            assert sum(row.bit_count() for row in bits) == size * (size - 1) - 2

def kernel_calls(monkeypatch, fn, *args):
    """(result of fn(*args), number of kernel runs it made)."""
    calls = []
    kernel = clique_census.backend.census_of_subset

    def counted(*a, **kw):
        calls.append(1)
        return kernel(*a, **kw)

    with monkeypatch.context() as m:
        m.setattr(clique_census.backend, "census_of_subset", counted)
        result = fn(*args)
    return result, len(calls)


def test_census_runs_the_kernel_once_per_local_graph(monkeypatch):
    # in (degree, id) order every local graph of path_power(n, 6) is one
    # of K_0, ..., K_6
    res, calls = kernel_calls(monkeypatch, census, path_power(1000, 6))
    assert res.total == 2**6 * (1000 - 5)
    assert calls <= 7
    # copies of one component rank alike, so they share every kernel run
    part = clique_census.random_gnp(14, 0.4, seed=3)
    copies = 5
    union = Graph(copies * part.n, [(u + i * part.n, v + i * part.n)
                                   for i in range(copies) for u, v in part.edges()])
    one, calls_one = kernel_calls(monkeypatch, census, part)
    res, calls = kernel_calls(monkeypatch, census, union)
    assert calls == calls_one
    assert res.counts == (1,) + tuple(copies * c for c in one.counts[1:])


@pytest.mark.parametrize("path_len", [65, 130])
def test_census_where_degree_order_is_far_from_the_peel(path_len):
    # the hub's local graph is the whole path, past one or two 64-bit
    # words, while the peel gives every vertex at most d = 2 later ones
    g = hub_path_with_leaves(path_len)
    assert degeneracy(g).d == 2
    assert max(len(ids) for _, ids, _ in _local_graphs(g, by_degree(g))) == path_len
    expected = extension_census(g)
    assert list(census(g).counts) == expected
    tree = build_tree(g)
    assert tree.census_counts() == expected
    tree.discard()


def test_enumerate_with_isolated_vertices():
    # 0, 4 and 7 are isolated, and every vertex last in its component's
    # peel has an empty root-child label too
    g = Graph(8, [(1, 2), (2, 3), (1, 3), (5, 6)])
    root_labels = [label for _, label, _ in _local_graphs(g, degeneracy(g).ordering)]
    assert root_labels.count(()) == 5
    _assert_public_enumeration(g, build_tree(g))
    assert set(enumerate_cliques(g)) == brute_cliques(g)


# Builds, peels and splits path_power(n, 6) in a fresh interpreter, then
# prints the interpreter's peak resident size in kB.
_ROOT_SPLIT_PEAK = """
import sys
sys.path.insert(0, sys.argv[1])
from clique_census import path_power
from clique_census.graph import degeneracy
from clique_census.tree import _local_graphs
g = path_power(int(sys.argv[2]), 6)
peel = degeneracy(g)
assert sum(len(ids) for _, ids, _ in _local_graphs(g, peel.ordering)) == g.edge_count
with open("/proc/self/status") as fh:
    print(next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")))
"""


def test_root_split_memory_stays_linear():
    # n-bit rows per vertex would take about n^2/16 bytes here, 2.5 GB;
    # frozenset adjacency and id-list labels stay far below the budget
    if not os.path.exists("/proc/self/status"):
        pytest.skip("peak resident size is read from /proc/self/status")
    package_root = os.path.dirname(os.path.dirname(clique_census.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _ROOT_SPLIT_PEAK, package_root, "200000"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 600 * 1024


@pytest.mark.parametrize("discard", [False, True])
def test_discard_frees_nodes_without_the_cycle_collector(discard):
    gc.collect()
    gc.disable()
    try:
        tree = build_tree(k(8))
        if discard:
            tree.discard()
            assert all(node.children == [] for node in tree.nodes)
        del tree
        unreachable = gc.collect()
    finally:
        gc.enable()
    # 256 nodes and their child lists otherwise wait for the collector
    assert (unreachable == 0) == discard


def test_capacity_error_frees_partial_tree():
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(CapacityError):
            build_tree(k(10), node_cap=100)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0
