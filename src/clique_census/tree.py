"""Clique search trees.

The tree of a graph has one node per clique: the root carries the full
vertex set as its candidate label, and a node with label L gets one child
per vertex of L, produced by repeatedly choosing a minimum-degree vertex v
of the subgraph induced on the current L (smallest id on ties), attaching a
child labelled L intersect N(v), and then removing v from L. The clique at
a node is the set of chosen vertices along its root path.

Every count and walk here splits the graph the same way: order the
vertices, then give each vertex v the label of its neighbours after it in
that order (_later_neighbours). Each clique then lies below exactly one
vertex, its first in the order, as that vertex plus a clique of G[label].

- The root's choice sequence is exactly the min-degree peeling order of
  degeneracy(g), so under the peel the labels are the root children's:
  |L_v| <= d, and v's subtree is the tree of G[L_v] with ids relabelled
  in order. Enumeration, build_tree and the audit's skeleton use this
  split. Enumeration runs on the bit rows of these local graphs
  (graph.rows), so each step below the root costs time in the size of a
  local subproblem, not in n.
- The census needs no tree order, so it orders by (degree, id): one sort
  and no peel. A label then has at most sqrt(2m) vertices, and the census
  kernel counts each distinct local graph once, by pivoting, without
  visiting its cliques or materializing nodes.

Enumeration walks the subtrees one node per clique. build_tree
materializes the node structure for inspection, subject to a node cap,
and descends on the rows of the whole graph, which makes it an
independent check of the local descents and of the pivot census.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from . import backend as _backend
from .errors import CapacityError
from .graph import (
    Graph,
    degeneracy,
    mask_vertices,
    min_degree_in,
    rows,
)

# perfbench/layers.py times the peel by replacing `degeneracy` in this
# module, so the root split calls it through its module-level name.

DEFAULT_NODE_CAP = 10_000_000


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
        self._subtree_sizes: dict[int, int] | None = None

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def depth_of(self, node: CliqueTreeNode) -> int:
        return node.depth - self.root.depth

    def height(self) -> int:
        return max(self.depth_of(node) for node in self.nodes)

    def census_counts(self) -> list[int]:
        counts = [0] * (self.height() + 1)
        for node in self.nodes:
            counts[self.depth_of(node)] += 1
        return counts

    def subtree_sizes(self) -> dict[int, int]:
        """Node count of the subtree below each node, keyed by node index."""
        if self._subtree_sizes is None:
            sizes = {node.index: 1 for node in self.nodes}
            for node in reversed(self.nodes):
                if node is not self.root and node.parent is not None:
                    sizes[node.parent.index] += sizes[node.index]
            self._subtree_sizes = sizes
        return self._subtree_sizes

    def discard(self) -> None:
        """Empty every node's child list; the tree is unusable afterwards.

        Parent and child links form reference cycles, which only a full
        pass of the cyclic garbage collector reclaims. Breaking them lets
        the nodes go as soon as the last reference to the tree does, so
        a caller done with a large tree gets its memory back at once.
        Re-rooted views share the nodes and are emptied too.
        """
        for node in self.nodes:
            node.children.clear()


def _later_neighbours(g: Graph, order) -> Iterator[tuple[int, list[int]]]:
    """Yield (v, sorted list of v's neighbours after v in `order`), for
    each vertex v in `order`.

    Each edge lies in exactly one label, at whichever endpoint comes
    first. Labels are streamed, so no list of all n labels is ever held.
    """
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    for i, v in enumerate(order):
        yield v, sorted(u for u in g.adj[v] if pos[u] > i)


def _label_children(bits, label: int) -> Iterator[tuple[int, int]]:
    """Yield (v, child label) for the children of a node labelled `label`,
    in child order, by the min-degree descent on the rows `bits`."""
    while label:
        v = min_degree_in(bits, label)
        yield v, label & bits[v]
        label ^= 1 << v


def build_tree(g: Graph, node_cap: int = DEFAULT_NODE_CAP) -> CliqueSearchTree:
    """Materialize the clique search tree of g, in depth-first creation order.

    Node indices are preorder positions, so a node's subtree occupies a
    contiguous index range. Raises CapacityError (with the partial node
    count) once the tree would exceed node_cap nodes.
    """
    root = CliqueTreeNode(g.full_mask(), 0, None, None, 0)
    nodes = [root]

    def attach(parent: CliqueTreeNode, v: int, child_bits: int) -> CliqueTreeNode:
        if len(nodes) >= node_cap:
            CliqueSearchTree(g, root, nodes).discard()
            raise CapacityError(
                f"clique tree exceeds node cap {node_cap}", partial_count=len(nodes)
            )
        child = CliqueTreeNode(child_bits, parent.depth + 1, v, parent, len(nodes))
        parent.children.append(child)
        nodes.append(child)
        return child

    bits = rows(g)
    for v, later in _later_neighbours(g, degeneracy(g).ordering):
        label = sum(1 << u for u in later)
        top = attach(root, v, label)
        stack: list[tuple[CliqueTreeNode, int]] = [(top, label)]
        while stack:
            node, remaining = stack.pop()
            if remaining == 0:
                continue
            v = min_degree_in(bits, remaining)
            child = attach(node, v, remaining & bits[v])
            stack.append((node, remaining ^ (1 << v)))
            stack.append((child, child.label_bits))
    return CliqueSearchTree(g, root, nodes)


@dataclass(frozen=True)
class CliqueCensus:
    """Per-size clique counts; counts[k] is the number of k-cliques."""

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
    _backend.check_backend(backend)
    # sorted is stable, so equal degrees keep increasing id order
    by_degree = sorted(range(g.n), key=lambda v: len(g.adj[v]))
    local_graphs = Counter(tuple(rows(g, ids)) for _, ids in _later_neighbours(g, by_degree))
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


def _clique_tuples(g: Graph) -> Iterator[tuple[int, ...]]:
    """Yield every clique of g as a tuple of ids in the order they were
    chosen, in depth-first child-creation order, the empty clique first.

    Below each root child the descent runs on the rows of the child's
    local graph, which has at most d vertices, and maps ids back through
    the label, so no step scans n-bit masks.
    """
    yield ()
    for v, ids in _later_neighbours(g, degeneracy(g).ordering):
        top = (v,)
        yield top
        if not ids:
            continue
        bits = rows(g, ids)
        # entries are (nonempty label left, clique of the node whose
        # children it yields); the new child's entry goes on top, so its
        # subtree comes before its later siblings
        stack: list[tuple[int, tuple[int, ...]]] = [((1 << len(ids)) - 1, top)]
        while stack:
            remaining, chosen = stack.pop()
            u = min_degree_in(bits, remaining)
            rest = remaining ^ (1 << u)
            if rest:
                stack.append((rest, chosen))
            clique = chosen + (ids[u],)
            yield clique
            child = remaining & bits[u]
            if child:
                stack.append((child, clique))


def enumerate_cliques(g: Graph) -> Iterator[frozenset[int]]:
    """Yield every clique of g, in depth-first child-creation order.

    The empty clique comes first, and the order is the preorder of
    build_tree(g). Below each root child the cliques come from the
    search tree of the child's label, relabelled in order, so a step
    costs time in the local graph's size, not in n. Memory stays
    proportional to the depth of the tree, not to the clique count.
    """
    yield from map(frozenset, _clique_tuples(g))
