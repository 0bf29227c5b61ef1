"""Independent brute-force oracles used only by the test suite.

The oracles work from the edge list alone and avoid the package's
search-tree machinery, so agreement is meaningful. The search-tree
helpers at the end (per-depth counts, subtree sizes, re-rooting, rooted
subtrees, the counting-through-a-subtree bound and tree isomorphism)
work on trees from build_tree; the tests use them to check the paper's
subtree property and to read the audit's skeleton against the tree. The
audit's real-valued bounds are decided last, with Fractions and integer
powers only.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, floor, isqrt
from typing import NamedTuple

from clique_census.graph import mask_vertices
from clique_census.tree import CliqueSearchTree, CliqueTreeNode


def adjacency_masks(g) -> list[int]:
    nbr = [0] * g.n
    for u, v in g.edges():
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


def brute_census(g) -> list[int]:
    """Per-size clique counts via a subset DP over all 2^n masks.

    A set with lowest vertex v is a clique iff the rest is a clique lying
    inside N(v). Counts include the empty clique; trailing zeros trimmed.
    """
    nbr = adjacency_masks(g)
    is_clique = bytearray(1 << g.n)
    is_clique[0] = 1
    counts = [0] * (g.n + 1)
    counts[0] = 1
    for mask in range(1, 1 << g.n):
        low = mask & -mask
        rest = mask ^ low
        if is_clique[rest] and rest & nbr[low.bit_length() - 1] == rest:
            is_clique[mask] = 1
            counts[mask.bit_count()] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def brute_count(g) -> int:
    return sum(brute_census(g))


def extension_census(g) -> list[int]:
    """Per-size clique counts by growing each clique with larger ids.

    Every clique is reached once, as an increasing id sequence, so the
    cost is about n per clique: usable on sparse graphs far beyond the
    reach of the 2^n subset DP. Trailing zeros trimmed.
    """
    nbr = adjacency_masks(g)
    counts = [1]
    stack = [(0, (1 << g.n) - 1)]  # (clique size, common neighbours above it)
    while stack:
        size, cand = stack.pop()
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            if len(counts) <= size + 1:
                counts.append(0)
            counts[size + 1] += 1
            stack.append((size + 1, cand & nbr[v]))
    return counts


def naive_degeneracy(g) -> tuple[int, tuple[int, ...]]:
    """(d, ordering) by repeatedly removing a minimum-degree vertex,
    smallest id on ties, rescanning every remaining vertex each step."""
    nbr = adjacency_masks(g)
    remaining = set(range(g.n))
    order = []
    d = 0
    while remaining:
        v = min(remaining, key=lambda u: (sum(1 for w in remaining if nbr[u] >> w & 1), u))
        d = max(d, sum(1 for w in remaining if nbr[v] >> w & 1))
        order.append(v)
        remaining.remove(v)
    return d, tuple(order)


def peeling_certificate(g, beta, threshold) -> tuple[str, frozenset | None]:
    """(verdict, witness) of the one-sided peeling sparsity probe, by the
    rescanning loop: while at least `threshold` vertices are left, report
    them as a violation if a minimum-degree one (smallest id on ties) has
    degree above beta times their number, else remove it."""
    nbr = adjacency_masks(g)
    p, q = beta.numerator, beta.denominator
    mask = (1 << g.n) - 1
    while mask:
        size = mask.bit_count()
        if size < threshold:
            break
        vertices = [v for v in range(g.n) if mask >> v & 1]
        v = min(vertices, key=lambda u: ((nbr[u] & mask).bit_count(), u))
        if (nbr[v] & mask).bit_count() * q > p * size:
            return "violated", frozenset(vertices)
        mask ^= 1 << v
    return "unknown", None


def largest_label_at_depth(bits, depth) -> int:
    """Largest label size among the clique-tree nodes at `depth` of the
    graph with rows `bits`, 0 when no node is that deep, by visiting every
    node above that depth: the unpruned walk. Each node's children come
    from rescanning its remaining label for a minimum-degree vertex,
    smallest id on ties."""
    worst = 0
    stack = [((1 << len(bits)) - 1, 0)]
    while stack:
        label, d = stack.pop()
        if d == depth:
            worst = max(worst, label.bit_count())
            continue
        while label:
            v = min(mask_vertices(label), key=lambda u: ((bits[u] & label).bit_count(), u))
            stack.append((label & bits[v], d + 1))
            label ^= 1 << v
    return worst


def brute_cliques(g) -> set[frozenset]:
    """Every clique as a frozenset, by filtering all subsets."""
    nbr = adjacency_masks(g)
    out = {frozenset()}
    for mask in range(1, 1 << g.n):
        vs = [v for v in range(g.n) if mask >> v & 1]
        if all(nbr[u] >> v & 1 for u, v in combinations(vs, 2)):
            out.add(frozenset(vs))
    return out


def _all_simple_paths(nbr, a, b, banned):
    """Simple a-b paths avoiding `banned` internally, shortest first."""
    queue = [(a,)]
    found = []
    while queue:
        path = queue.pop(0)
        last = path[-1]
        if last == b:
            found.append(path)
            continue
        for w in range(len(nbr)):
            if not nbr[last] >> w & 1 or w in path:
                continue
            if w != b and banned >> w & 1:
                continue
            queue.append(path + (w,))
    return found


def find_subdivision_alt(g, t) -> bool:
    """Second opinion on K_t-subdivision existence, organized differently.

    Branch sets are scanned in reverse lexicographic order with no degree
    pruning, and every pair (adjacent or not) is routed by trying all
    simple connecting paths shortest-first. Exponential; keep n tiny.
    """
    n = g.n
    if t <= 0:
        return True
    if t == 1:
        return n >= 1
    nbr = adjacency_masks(g)
    if t == 2:
        return any(nbr[v] for v in range(n))

    def route(pairs, used, idx):
        if idx == len(pairs):
            return True
        a, b = pairs[idx]
        for path in _all_simple_paths(nbr, a, b, used):
            internal = path[1:-1]
            if any(used >> w & 1 for w in internal):
                continue
            add = 0
            for w in internal:
                add |= 1 << w
            if route(pairs, used | add, idx + 1):
                return True
        return False

    for branch in sorted(combinations(range(n), t), reverse=True):
        used = 0
        for v in branch:
            used |= 1 << v
        if route(list(combinations(branch, 2)), used, 0):
            return True
    return False


def _connected_subsets(nbr) -> list[int]:
    """All nonempty vertex subsets inducing a connected subgraph, as masks,
    of the graph whose adjacency rows are `nbr`."""
    out = []
    for mask in range(1, 1 << len(nbr)):
        low = mask & -mask
        seen = low
        frontier = low
        while frontier:
            grow = 0
            m = frontier
            while m:
                lw = m & -m
                m ^= lw
                grow |= nbr[lw.bit_length() - 1]
            frontier = grow & mask & ~seen
            seen |= frontier
        if seen == mask:
            out.append(mask)
    return out


def find_minor_alt(g, t):
    """Second opinion on K_t minors: the first family of t pairwise
    adjacent disjoint connected vertex sets, as frozensets, else None.

    Enumerates every connected vertex set (all 2^n masks), then searches
    for an unordered family of them, each set's least vertex above the
    previous one's.  Exponential; keep n tiny.
    """
    nbr = adjacency_masks(g)
    sets = _connected_subsets(nbr)
    sets.sort(key=lambda m: (m.bit_count(), m & -m, m))
    reach = {}
    for mask in sets:
        r = 0
        for v in mask_vertices(mask):
            r |= nbr[v]
        reach[mask] = r & ~mask

    def rec(chosen: list[int], used: int, min_floor: int):
        if len(chosen) == t:
            return tuple(chosen)
        for mask in sets:
            if mask & used:
                continue
            if (mask & -mask) <= min_floor:
                continue
            if any(not (mask & reach[c]) for c in chosen):
                continue
            got = rec(chosen + [mask], used | mask, mask & -mask)
            if got is not None:
                return got
        return None

    model = rec([], 0, 0)
    if model is None:
        return None
    return tuple(frozenset(mask_vertices(mask)) for mask in model)


def is_valid_minor_model(g, parts, t):
    """Check the minor-model definition directly."""
    if len(parts) != t:
        return False
    seen = set()
    for part in parts:
        if not part or part & seen:
            return False
        seen |= part
        root = next(iter(part))
        reach = {root}
        frontier = [root]
        while frontier:
            v = frontier.pop()
            for u in g.adj[v]:
                if u in part and u not in reach:
                    reach.add(u)
                    frontier.append(u)
        if reach != part:
            return False
    return all(
        any(g.has_edge(u, v) for u in a for v in b)
        for a, b in combinations(parts, 2)
    )


def depth_of(tree: CliqueSearchTree, node: CliqueTreeNode) -> int:
    """node's depth below the tree's root, which may be a re-rooted view's."""
    return node.depth - tree.root.depth


def height(tree: CliqueSearchTree) -> int:
    return max(depth_of(tree, node) for node in tree.nodes)


def census_counts(tree: CliqueSearchTree) -> list[int]:
    """Node count at each depth below the root."""
    counts = [0] * (height(tree) + 1)
    for node in tree.nodes:
        counts[depth_of(tree, node)] += 1
    return counts


def subtree_sizes(tree: CliqueSearchTree) -> dict[int, int]:
    """Node count of the subtree below each node, keyed by node index."""
    sizes = {node.index: 1 for node in tree.nodes}
    for node in reversed(tree.nodes):
        if node is not tree.root:
            sizes[node.parent.index] += sizes[node.index]
    return sizes


def contains(tree: CliqueSearchTree, node: CliqueTreeNode) -> bool:
    i = node.index - tree.root.index
    return 0 <= i < len(tree.nodes) and tree.nodes[i] is node


def subtree_at(tree: CliqueSearchTree, node: CliqueTreeNode) -> CliqueSearchTree:
    """The subtree on `node` and its descendants, re-rooted at `node`.

    Nodes are shared with the original tree; labels keep original ids and
    depths keep their absolute values (use depth_of for relative depth).
    """
    if not contains(tree, node):
        raise ValueError("node does not belong to this tree")
    # in preorder the subtree runs until the next node no deeper than it
    start = node.index - tree.root.index
    end = start + 1
    while end < len(tree.nodes) and tree.nodes[end].depth > node.depth:
        end += 1
    return CliqueSearchTree(tree.graph, node, tree.nodes[start:end])


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


def skeleton_included(skeleton) -> frozenset[int]:
    """Preorder indices of an audit Skeleton's nodes."""
    return frozenset(node.index for node in skeleton.nodes)


def child_indices(node) -> list[int]:
    """Preorder indices of an audit SkeletonNode's children: each follows
    its earlier siblings' subtrees."""
    out = []
    index = node.index + 1
    for size in node.child_sizes:
        out.append(index)
        index += size
    return out


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


# The audit's transcendental bounds, decided with Fractions and integer
# powers only; each loop ends because no bound equals a rational.


def height_within_bound(h, t) -> bool:
    """h <= 1 + ln(10 t^2) / (2 ln(10/9)), as (10/9)^(2(h-1)) <= 10 t^2."""
    return h <= 1 or 10 ** (2 * (h - 1)) <= 10 * t * t * 9 ** (2 * (h - 1))


def at_most_cap(x, t) -> bool:
    """x <= 2^(sqrt(10) t) for a rational x: with s = isqrt(10 t^2 k^2),
    s < sqrt(10) t k < s + 1, so x^k <= 2^s proves it and x^k >= 2^(s+1)
    refutes it; k doubles until one does. The k needed grows as the
    inverse of x's relative distance from the cap."""
    x = Fraction(x)
    if x <= 0:
        return True
    k = 1
    while True:
        s = isqrt(10 * t * t * k * k)
        power = x**k
        if power <= 2**s:
            return True
        if power >= 2 ** (s + 1):
            return False
        k *= 2


def exp_at_most(q, r) -> bool:
    """e^q <= r for rationals q >= 0 and r, q != 0 or r != 1.

    With q = a/b it decides e^a <= r^b between lo^a and hi^a, where lo
    is the sum of 1/i! for i <= n, and hi adds twice the next term, more
    than the rest of the series; n doubles until they agree.
    """
    q, r = Fraction(q), Fraction(r)
    if r <= 0:
        return False
    a, target = q.numerator, r**q.denominator
    n = 4
    while True:
        lo, term = Fraction(0), Fraction(1)
        for i in range(1, n + 2):
            lo += term
            term /= i
        if (lo + 2 * term) ** a <= target:
            return True
        if lo**a >= target:
            return False
        n *= 2


def truncation_depth(t, m) -> int:
    """floor(2 (t^2/m) ln(m/t)) for m > t >= 1: the largest d with
    e^(d m / (2 t^2)) <= m/t."""
    d = 0
    while exp_at_most(Fraction((d + 1) * m, 2 * t * t), Fraction(m, t)):
        d += 1
    return d


def binom_within_bound(m, k) -> bool:
    """sum_{i <= floor(k)} C(m, i) <= (e m / k)^k for rational 0 < k <= m:
    with k = a/b, lhs^b (a / (m b))^a <= e^a."""
    k = Fraction(k)
    lhs = sum(comb(m, i) for i in range(floor(k) + 1))
    a, b = k.numerator, k.denominator
    return not exp_at_most(a, Fraction(lhs) ** b * Fraction(a, m * b) ** a)
