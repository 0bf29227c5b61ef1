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
    RootedSubtree,
    build_tree,
    census,
    census_of_subset,
    count_cliques,
    enumerate_cliques,
    induced_subgraph,
    subtree_at,
    subtree_bound_check,
)
from clique_census.graph import degeneracy, rows
from clique_census.tree import _root_children, trees_isomorphic

from brute import brute_census, brute_cliques, extension_census
from strategies import WORD_EDGE_SIZES, graphs, word_edge_graphs


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
    assert census_of_subset(rows(g), g.full_mask(), "pure") == tree.census_counts()


@given(graphs(max_n=8))
def test_enumerate_exactly_once(g):
    seen = list(enumerate_cliques(g))
    assert len(seen) == len(set(seen)) == count_cliques(g)
    assert set(seen) == brute_cliques(g)
    assert seen[0] == frozenset()


@given(graphs(max_n=8))
def test_enumeration_order_matches_tree(g):
    tree = build_tree(g)
    assert [node.clique() for node in tree.nodes] == list(enumerate_cliques(g))


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


@pytest.mark.parametrize("n", WORD_EDGE_SIZES)
def test_root_split_at_word_edges(n):
    for g in word_edge_graphs(n):
        expected = extension_census(g)
        for threads in (1, 2):
            assert list(census(g, threads=threads).counts) == expected
        assert count_cliques(g) == sum(expected)
        tree = build_tree(g)
        assert tree.census_counts() == expected
        assert census_of_subset(rows(g), g.full_mask(), "pure") == expected
        _assert_public_enumeration(g, tree)
        # root children follow the peel; each label is the later neighbours
        order = degeneracy(g).ordering
        assert [c.chosen_vertex for c in tree.root.children] == list(order)
        for i, child in enumerate(tree.root.children):
            assert child.label == g.adj[order[i]] & set(order[i + 1:])
        # the streamed split gives the same labels as sorted id lists
        split = list(_root_children(g))
        assert [v for v, _ in split] == list(order)
        for i, (v, ids) in enumerate(split):
            assert ids == sorted(g.adj[v] & set(order[i + 1:]))


def test_enumerate_with_isolated_vertices():
    # 0, 4 and 7 are isolated, and every vertex last in its component's
    # peel has an empty root-child label too
    g = Graph(8, [(1, 2), (2, 3), (1, 3), (5, 6)])
    root_labels = [label for _, label in _root_children(g)]
    assert root_labels.count([]) == 5
    _assert_public_enumeration(g, build_tree(g))
    assert set(enumerate_cliques(g)) == brute_cliques(g)


# Builds, peels and splits path_power(n, 6) in a fresh interpreter, then
# prints the interpreter's peak resident size in kB.
_ROOT_SPLIT_PEAK = """
import sys
sys.path.insert(0, sys.argv[1])
from clique_census import path_power
from clique_census.graph import degeneracy
from clique_census.tree import _root_children
g = path_power(int(sys.argv[2]), 6)
peel = degeneracy(g)
assert sum(len(ids) for _, ids in _root_children(g, peel)) == g.edge_count
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
