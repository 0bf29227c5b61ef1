"""Clique search trees.

The tree of a graph has one node per clique: the root carries the full
vertex set as its candidate label, and a node with label L gets one child
per vertex of L, produced by repeatedly choosing a minimum-degree vertex v
of the subgraph induced on the current L (smallest id on ties), attaching a
child labelled L intersect N(v), and then removing v from L. The clique at
a node is the set of chosen vertices along its root path.

The root's choice sequence is exactly the min-degree peeling order of
degeneracy(g), so the root is split once, in O(m log n): root child v has
the label L_v of v's neighbours later in the peel, |L_v| <= d, and its
subtree is the tree of G[L_v] with ids relabelled in order. Everything
below the root costs time in the size of a local subproblem, not in n.

Counting and census run streaming through the selected kernel backend, one
job per root child, and never materialize nodes; build_tree materializes
the node structure for inspection, subject to a node cap.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import comb
from typing import Iterator, NamedTuple

from . import backend as _backend
from .errors import CapacityError
from .graph import (
    DegeneracyResult,
    Graph,
    degeneracy,
    induced_subgraph,
    mask_vertices,
    min_degree_vertex,
)

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

    def contains(self, node: CliqueTreeNode) -> bool:
        i = node.index - self.root.index
        return 0 <= i < len(self.nodes) and self.nodes[i] is node

    def discard(self) -> None:
        """Empty every node's child list; the tree is unusable afterwards.

        Parent and child links form reference cycles, which only a full
        pass of the cyclic garbage collector reclaims. Breaking them lets
        the nodes go as soon as the last reference to the tree does, so
        a caller done with a large tree gets its memory back at once.
        Views from subtree_at share nodes and are emptied too.
        """
        for node in self.nodes:
            node.children.clear()


def _root_children(g: Graph,
                   peel: DegeneracyResult | None = None) -> Iterator[tuple[int, int]]:
    """Yield (v, label of v's root child) in the root's child order.

    The label is the mask of v's neighbours later in the peel. Children
    are streamed, so no list of all n labels is ever held. A caller that
    has already peeled g passes the result as `peel`, so g is not peeled
    again.
    """
    if peel is None:
        peel = degeneracy(g)
    remaining = g.full_mask()
    for v in peel.ordering:
        yield v, g.bits[v] & remaining
        remaining ^= 1 << v


def _label_children(g: Graph, label: int) -> Iterator[tuple[int, int]]:
    """Yield (v, child label) for the children of a node labelled `label`,
    in child order, by the min-degree descent on global ids."""
    while label:
        v = min_degree_vertex(g, label)
        yield v, label & g.bits[v]
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

    for v, label in _root_children(g):
        top = attach(root, v, label)
        stack: list[tuple[CliqueTreeNode, int]] = [(top, label)]
        while stack:
            node, remaining = stack.pop()
            if remaining == 0:
                continue
            v = min_degree_vertex(g, remaining)
            child = attach(node, v, remaining & g.bits[v])
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


def _local_census(g: Graph, label: int, backend: str) -> list[int]:
    # the subtree below a root child is the tree of the child's label,
    # relabelled in order so that tie-breaking is unchanged
    local, _ = induced_subgraph(g, mask_vertices(label))
    return _backend.census_of_subset(local, local.full_mask(), backend)


def _child_censuses(g: Graph, threads: int, backend: str) -> Iterator[list[int]]:
    """The census of each root child's subtree, in root-child order."""
    jobs = _root_children(g)
    if threads <= 1 or not _backend.releases_gil(backend):
        for _, label in jobs:
            yield _local_census(g, label, backend)
        return
    # at most a few jobs in flight per thread, never one future per child
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for _, label in jobs:
            pending.append(pool.submit(_local_census, g, label, backend))
            if len(pending) >= 4 * threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def census(g: Graph, threads: int = 1, backend: str | None = None) -> CliqueCensus:
    """Exact per-size clique counts, computed streaming.

    Depth-k tree nodes are exactly the k-cliques, so the per-depth node
    counts of the traversal are the census. The list is trimmed after the
    last nonzero entry. The traversal is always split at the root, one
    kernel job per root child on its local graph of at most d vertices.
    With threads > 1 the jobs run on a thread pool only when the backend
    releases the interpreter lock (the compiled one); the pure kernel
    holds it, so its jobs run one after another whatever threads says.
    """
    backend = _backend.resolve_backend(backend)
    counts = [1]
    for res in _child_censuses(g, threads, backend):
        if len(counts) <= len(res):
            counts.extend([0] * (len(res) + 1 - len(counts)))
        for d, c in enumerate(res, start=1):
            counts[d] += c
    return CliqueCensus(tuple(counts))


def count_cliques(g: Graph, threads: int = 1, backend: str | None = None) -> int:
    """Total number of cliques of g, the empty clique included."""
    return census(g, threads=threads, backend=backend).total


def enumerate_cliques(g: Graph) -> Iterator[frozenset[int]]:
    """Yield every clique of g, in depth-first child-creation order.

    The empty clique comes first. Memory stays proportional to the depth of
    the tree, not to the clique count.
    """
    yield frozenset()
    for v, label in _root_children(g):
        yield frozenset((v,))
        stack: list[tuple[int, tuple[int, ...]]] = [(label, (v,))]
        while stack:
            remaining, chosen = stack.pop()
            if remaining == 0:
                continue
            v = min_degree_vertex(g, remaining)
            child_bits = remaining & g.bits[v]
            clique = chosen + (v,)
            stack.append((remaining ^ (1 << v), chosen))
            yield frozenset(clique)
            stack.append((child_bits, clique))


def subtree_at(tree: CliqueSearchTree, node: CliqueTreeNode) -> CliqueSearchTree:
    """The subtree on `node` and its descendants, re-rooted at `node`.

    Nodes are shared with the original tree; labels keep original ids and
    depths keep their absolute values (use depth_of for relative depth).
    """
    if not tree.contains(node):
        raise ValueError("node does not belong to this tree")
    size = tree.subtree_sizes()[node.index]
    start = node.index - tree.root.index
    return CliqueSearchTree(tree.graph, node, tree.nodes[start:start + size])


class RootedSubtree:
    """A subtree of a clique search tree containing the root and closed
    under taking parents."""

    def __init__(self, tree: CliqueSearchTree, included):
        self.tree = tree
        self.included = frozenset(included)
        if tree.root.index not in self.included:
            raise ValueError("rooted subtree must contain the root")
        base = tree.root.index
        for idx in self.included:
            i = idx - base
            if not (0 <= i < len(tree.nodes)):
                raise ValueError(f"node index {idx} not in tree")
            node = tree.nodes[i]
            if node is not tree.root and node.parent.index not in self.included:
                raise ValueError(
                    f"node {idx} included without its parent {node.parent.index}"
                )

    @property
    def size(self) -> int:
        return len(self.included)

    def node(self, idx: int) -> CliqueTreeNode:
        return self.tree.nodes[idx - self.tree.root.index]

    def boundary_nodes(self) -> list[CliqueTreeNode]:
        """Included nodes with at least one child outside the subtree."""
        out = []
        for idx in sorted(self.included):
            node = self.node(idx)
            if any(c.index not in self.included for c in node.children):
                out.append(node)
        return out

    def excluded_children(self, node: CliqueTreeNode) -> list[CliqueTreeNode]:
        return [c for c in node.children if c.index not in self.included]


class BoundCheck(NamedTuple):
    lhs: int
    rhs: int
    holds: bool


def subtree_bound_check(tree: CliqueSearchTree, t: int,
                        sub: RootedSubtree) -> BoundCheck:
    """Check |tree| <= |sub| * sum_{i<t} C(m, i), m the largest boundary label.

    Valid whenever the graph has no clique of t vertices (the caller is
    expected to know this, for instance from the census). Exact integers
    throughout.
    """
    if sub.tree is not tree:
        raise ValueError("subtree does not belong to this tree")
    if t < 1:
        raise ValueError("t must be positive")
    boundary = sub.boundary_nodes()
    m = max((node.label_size for node in boundary), default=0)
    rhs = sub.size * sum(comb(m, i) for i in range(t))
    lhs = tree.node_count
    return BoundCheck(lhs, rhs, lhs <= rhs)


def trees_isomorphic(a: CliqueSearchTree, b: CliqueSearchTree,
                     vertex_map: dict[int, int] | None = None) -> bool:
    """Structural equality of two trees as rooted ordered labelled trees.

    vertex_map translates a's vertex ids into b's; None means identity.
    Chosen vertices and full labels must correspond under the map.
    """

    def translate(bits: int) -> int:
        if vertex_map is None:
            return bits
        out = 0
        for v in mask_vertices(bits):
            out |= 1 << vertex_map[v]
        return out

    stack = [(a.root, b.root)]
    while stack:
        x, y = stack.pop()
        if translate(x.label_bits) != y.label_bits:
            return False
        if len(x.children) != len(y.children):
            return False
        for cx, cy in zip(x.children, y.children):
            vx = cx.chosen_vertex if vertex_map is None else vertex_map[cx.chosen_vertex]
            if vx != cy.chosen_vertex:
                return False
            stack.append((cx, cy))
    return True
