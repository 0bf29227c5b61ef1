"""Clique search trees.

The tree of a graph has one node per clique: the root carries the full
vertex set as its candidate label, and a node with label L gets one child
per vertex of L, produced by repeatedly choosing a minimum-degree vertex v
of the subgraph induced on the current L (smallest id on ties), attaching a
child labelled L intersect N(v), and then removing v from L. The clique at
a node is the set of chosen vertices along its root path.

Every count and walk here splits the graph the same way: order the
vertices, then give each vertex v the label of its neighbours after it in
that order. Each clique then lies below exactly one vertex, its first in
the order, as that vertex plus a clique of G[label]. One helper,
_forward_sets, makes this split for every caller: it computes each
vertex's label, its forward set, once. build_tree and the sparsity probe
read the labels alone; _local_graphs yields each label with the bit rows
of its local graph, set from its members' forward sets, and a label that
is a clique shares one K_k rows tuple and is not relabelled.

- The root's choice sequence is exactly the min-degree peeling order of
  degeneracy(g), so under the peel the labels are the root children's:
  |L_v| <= d, and v's subtree is the tree of G[L_v] with ids relabelled
  in order. Enumeration, build_tree, the audit's skeleton and the
  sparsity probe use this split. Enumeration runs on the bit rows of
  these local graphs, so each step below the root costs time in the
  size of a local subproblem, not in n.
- The census needs no tree order, so it orders by (degree, id): one sort
  and no peel. A label then has at most sqrt(2m) vertices, and the census
  kernel counts each distinct local graph once, by pivoting, without
  visiting its cliques or materializing nodes.

Enumeration walks the subtrees with one stop rule. Once the candidates
a node has left to branch on form a clique, the descent picks the
smallest id each time (on a clique every degree is equal), so the
node's remaining subtrees hold its clique C plus each nonempty subset S
of those candidates, C + S in lexicographic order: one block, and no
descent. A node whose label is a clique (possibly empty) stops at its
first step and comes out whole, C itself first, the enumeration twin of
the census kernel's co-matching leaf with no pairs; at a root child the
shared K_k rows from _local_graphs already say so. enumerate_cliques
expands a block clique by clique, and the CLI builds its text a label
id at a time, without visiting its cliques (cli._block_pieces).
build_tree materializes the node structure for inspection, one node
per clique, and descends on the rows of the whole graph, which makes it
an independent check of the local descents, the blocks and the pivot
census.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterator, NamedTuple

from . import backend as _backend
from .graph import (
    Graph,
    degeneracy,
    mask_vertices,
    min_degree_in,
    rows,
)

# perfbench/layers.py times the peel by replacing `degeneracy` in this
# module, so the root split calls it through its module-level name.


class CliqueTreeNode:
    """One node of a materialized clique search tree."""

    __slots__ = ("label_bits", "label_size", "depth", "chosen_vertex", "parent",
                 "index", "children")

    def __init__(self, label_bits, depth, chosen_vertex, parent, index):
        self.label_bits: int = label_bits
        self.label_size: int = label_bits.bit_count()
        self.depth: int = depth
        self.chosen_vertex: int | None = chosen_vertex
        self.parent: CliqueTreeNode | None = parent
        self.index: int = index
        self.children: list[CliqueTreeNode] = []

    @property
    def label(self) -> frozenset[int]:
        return frozenset(mask_vertices(self.label_bits))

    def clique(self) -> frozenset[int]:
        """Chosen vertices along the path from the root to this node."""
        out = set()
        node = self
        while node is not None and node.chosen_vertex is not None:
            out.add(node.chosen_vertex)
            node = node.parent
        return frozenset(out)

    def __repr__(self) -> str:
        return (f"CliqueTreeNode(index={self.index}, depth={self.depth}, "
                f"label_size={self.label_size})")


class CliqueSearchTree:
    """A materialized clique search tree, or a re-rooted view of one."""

    def __init__(self, graph: Graph | None, root: CliqueTreeNode,
                 nodes: list[CliqueTreeNode]):
        self.graph = graph
        self.root = root
        self.nodes = nodes

    @property
    def node_count(self) -> int:
        return len(self.nodes)


@lru_cache(maxsize=64)  # bounded: the rows of K_k take k^2 bits
def _clique_rows(k: int) -> tuple[int, ...]:
    """Bit rows of K_k, one shared tuple per k."""
    full = (1 << k) - 1
    return tuple(full ^ (1 << i) for i in range(k))


def _forward_sets(g: Graph, order) -> list[tuple[int, ...]]:
    """forward[v]: v's neighbours after v in `order`, sorted, for every
    vertex v of the order; each edge lies in exactly one of them, at
    whichever endpoint comes first. O(n + m) time and memory."""
    forward: list[tuple[int, ...]] = [()] * g.n
    done = set()
    for v in order:
        done.add(v)
        forward[v] = tuple(sorted(g.adj[v] - done))
    return forward


def _local_graphs(g: Graph, order) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Yield (v, ids, bits) for each vertex v in `order`: ids are v's
    forward set (_forward_sets), and bits are the rows of G[ids],
    relabelled in id order as graph.rows(g, ids) gives them.

    An edge of G[ids] joins two later vertices, so it lies in the
    forward set of its earlier end: a label's rows are set from its
    members' forward sets, each edge once on both of its bits (Chiba and
    Nishizeki, SIAM J. Comput. 1985). A label with C(k, 2) edges is a
    k-clique and shares the K_k rows tuple _clique_rows(k), with no
    relabel, so `bits is _clique_rows(k)` tells a clique label; one with
    no edge gets zero rows. `order` is read twice. The forward sets take
    O(n + m) memory; the local graphs are streamed, so no list of all n
    of them is ever held.
    """
    forward = _forward_sets(g, order)
    for v in order:
        ids = forward[v]
        k = len(ids)
        label = frozenset(ids)
        inner = [label.intersection(forward[u]) for u in ids]
        edges = sum(map(len, inner))
        if edges == k * (k - 1) // 2:
            yield v, ids, _clique_rows(k)
            continue
        if edges == 0:
            yield v, ids, (0,) * k
            continue
        at = {u: i for i, u in enumerate(ids)}
        bits = [0] * k
        for i, later in enumerate(inner):
            for u in later:
                j = at[u]
                bits[i] |= 1 << j
                bits[j] |= 1 << i
        yield v, ids, tuple(bits)


def _label_children(bits, label: int) -> Iterator[tuple[int, int]]:
    """Yield (v, child label) for the children of a node labelled `label`,
    in child order, by the min-degree descent on the rows `bits`."""
    while label:
        v = min_degree_in(bits, label)
        yield v, label & bits[v]
        label ^= 1 << v


def build_tree(g: Graph) -> CliqueSearchTree:
    """Materialize the clique search tree of g, in depth-first creation order.

    Node indices are preorder positions, so a node's subtree occupies a
    contiguous index range. The root's children come from the peel; below
    them the min-degree descent runs on the rows of the whole graph.
    """
    root = CliqueTreeNode(g.full_mask(), 0, None, None, 0)
    nodes = [root]
    bits = rows(g)

    def grow(parent: CliqueTreeNode, children) -> None:
        # the recursion is as deep as the largest clique, and a tree
        # holding a k-clique has at least 2^k nodes
        for v, label in children:
            child = CliqueTreeNode(label, parent.depth + 1, v, parent, len(nodes))
            parent.children.append(child)
            nodes.append(child)
            grow(child, _label_children(bits, label))

    order = degeneracy(g).ordering
    forward = _forward_sets(g, order)
    grow(root, ((v, sum(1 << u for u in forward[v])) for v in order))
    return CliqueSearchTree(g, root, nodes)


class CliqueCensus(NamedTuple):
    """Per-size clique counts; counts[k] is the number of k-cliques.

    A named tuple, not a dataclass: importing dataclasses (and with it
    inspect) would be a large share of a cold `count`."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def max_clique_size(self) -> int:
        return len(self.counts) - 1

    def to_json_array(self) -> list[str]:
        return [str(c) for c in self.counts]


def census(g: Graph, threads: int = 1, backend: str | None = None) -> CliqueCensus:
    """Exact per-size clique counts.

    Depth-k tree nodes are exactly the k-cliques, so the census is also
    the per-depth node count of the tree. The list is trimmed after the
    last nonzero entry. Each vertex v counts the cliques whose
    lowest-ranked vertex is v in (degree, id) order: v plus any clique of
    its local graph, the subgraph on its higher-ranked neighbours. Any
    acyclic orientation counts each clique once this way (Chiba and
    Nishizeki, "Arboricity and subgraph listing algorithms", SIAM J.
    Comput. 1985); under this one a local graph has at most sqrt(2m)
    vertices, and the squares of their sizes sum to at most 2 a m, a the
    arboricity. The kernel counts a local graph's
    cliques by pivoting, in exact integers, without visiting each clique,
    and runs once per distinct local graph: the bit rows, relabelled in
    id order, determine the counts, so equal rows share one run.
    `threads` is accepted and has no effect. `backend` may be None or
    "pure", the one kernel; any other value raises ValueError.
    """
    if backend not in (None, "pure"):
        raise ValueError(f"unknown backend {backend!r}")
    # sorted is stable, so equal degrees keep increasing id order
    by_degree = sorted(range(g.n), key=lambda v: len(g.adj[v]))
    local_graphs = Counter(bits for _, _, bits in _local_graphs(g, by_degree))
    counts = [1]
    for bits, times in local_graphs.items():
        res = _backend.census_of_subset(bits, (1 << len(bits)) - 1)
        if len(counts) <= len(res):
            counts.extend([0] * (len(res) + 1 - len(counts)))
        for d, c in enumerate(res, start=1):
            counts[d] += c * times
    return CliqueCensus(tuple(counts))


def count_cliques(g: Graph) -> int:
    """Total number of cliques of g, the empty clique included."""
    return census(g).total


def _clique_blocks(g: Graph) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], bool]]:
    """Yield every clique of g in blocks (chosen, tail, first), in
    depth-first child-creation order, the empty clique first.

    A block stands for the cliques chosen + S, for every S contained in
    tail, in lexicographic order with S = () first; when `first` is false
    the block leaves out that first clique, chosen itself. `chosen` holds
    a node's clique as ids in the order they were chosen, and `tail` is a
    clique of sorted ids joined to all of chosen.

    Blocks come from one stop. On a clique every degree is equal, so the
    min-degree descent picks the smallest id each time: once the
    candidates R a node has left to branch on form a clique, its
    remaining children and their subtrees are the cliques C + S for every
    nonempty S contained in R, C the node's clique. The walk yields them
    as the block (C, sorted R, first), where `first` says that the node's
    own clique C has not come out yet, and does not descend. R is a
    clique iff the vertex the descent picks next is joined to all the
    rest of R, one popcount beside the min-degree scan. A node whose
    label is a clique therefore comes out whole, as (C, sorted label,
    True), at its first step, as the census kernel stops at a co-matching
    leaf, of which a clique is the case with no pairs. A root child's
    label is not scanned again: _local_graphs has already counted its
    edges and hands a k-clique label the shared rows _clique_rows(k).

    Below each root child the descent runs on the rows of the child's
    local graph, which has at most d vertices, and maps ids back through
    the label, so no step scans n-bit masks.
    """
    yield (), (), True
    for v, ids, bits in _local_graphs(g, degeneracy(g).ordering):
        # _clique_rows(k) was just called for this label, so the cache
        # still holds the same tuple
        if bits is _clique_rows(len(ids)):
            yield (v,), ids, True
            continue
        # entries are (label left, clique of the node whose children it
        # yields, whether that clique is still to come); the new child's
        # entry goes on top, so its subtree comes before its later siblings
        stack: list[tuple[int, tuple[int, ...], bool]] = [((1 << len(ids)) - 1, (v,), True)]
        while stack:
            remaining, chosen, first = stack.pop()
            if not remaining:
                yield chosen, (), True
                continue
            u = min_degree_in(bits, remaining)
            child = remaining & bits[u]
            if child.bit_count() == remaining.bit_count() - 1:
                yield chosen, tuple(ids[w] for w in mask_vertices(remaining)), first
                continue
            if first:
                yield chosen, (), True
            stack.append((remaining ^ (1 << u), chosen, False))
            stack.append((child, chosen + (ids[u],), True))


def _block_cliques(chosen: tuple[int, ...], tail: tuple[int, ...],
                   first: bool) -> Iterator[tuple[int, ...]]:
    """Yield chosen + S for every S contained in tail, in lexicographic
    order, S = () first unless `first` is false."""
    if first:
        yield chosen
    if not tail:
        return
    # the current clique is pre + (tail[j],); the stack holds (pre, j) of
    # the next sibling of each shorter clique on its way
    stack: list[tuple[tuple[int, ...], int]] = []
    pre, j, last = chosen, 0, len(tail) - 1
    while True:
        clique = pre + (tail[j],)
        yield clique
        if j < last:
            stack.append((pre, j + 1))
            pre, j = clique, j + 1
        elif stack:
            pre, j = stack.pop()
        else:
            return


def enumerate_cliques(g: Graph) -> Iterator[frozenset[int]]:
    """Yield every clique of g, in depth-first child-creation order.

    The empty clique comes first, and the order is the preorder of
    build_tree(g). Below each root child the cliques come from the
    search tree of the child's label, relabelled in order, so a step
    costs time in the local graph's size, not in n. Once the candidates a
    node has left form a clique, the rest of its subtree comes as one
    block, its cliques in lexicographic order, without descending into
    it; a node whose label is a clique comes whole, its own clique first
    (_clique_blocks). Memory stays proportional to the depth of the tree,
    not to the clique count.
    """
    for chosen, tail, first in _clique_blocks(g):
        yield from map(frozenset, _block_cliques(chosen, tail, first))
