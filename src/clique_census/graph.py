"""Immutable undirected simple graphs over vertex ids 0..n-1.

A graph stores its adjacency once, as one frozenset of neighbours per
vertex, so it takes O(n + m) memory. The census kernel and the min-degree
descents read bit rows instead (Python ints, so there is no width cap);
rows(g, vertices) builds them for one induced subgraph at a time.
Vertices are always addressed by id; induced subgraphs and their rows
relabel to 0..k-1 preserving the relative order of the surviving ids,
which keeps min-degree tie-breaking consistent between a graph and its
subgraphs.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import GraphParseError


class Graph:
    """Undirected simple graph with a fixed vertex count."""

    __slots__ = ("n", "adj", "_edge_count")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        self.n = n
        neigh: list = [set() for _ in range(n)]
        count = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v not in neigh[u]:
                neigh[u].add(v)
                neigh[v].add(u)
                count += 1
        # replace each set as its frozenset is made, so the build never
        # holds two copies of the adjacency
        for v, s in enumerate(neigh):
            neigh[v] = frozenset(s)
        self.adj: tuple[frozenset[int], ...] = tuple(neigh)
        self._edge_count = count

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

    def edges(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, sorted."""
        return [
            (u, v)
            for u in range(self.n)
            for v in sorted(self.adj[u])
            if u < v
        ]

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._edge_count})"


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format: header "n m", then one "u v" line per edge.

    Lines starting with '#' are comments. Duplicate edge lines (in either
    orientation) collapse to one edge; the declared m must equal the count
    after deduplication.
    """
    header: tuple[int, int] | None = None
    edges: set[tuple[int, int]] = set()
    n = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected two integers, got {line!r}", line_no)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"expected two integers, got {line!r}", line_no)
        if header is None:
            if a < 0 or b < 0:
                raise GraphParseError("header counts must be nonnegative", line_no)
            header = (a, b)
            n = a
            continue
        if a == b:
            raise GraphParseError(f"self-loop at vertex {a}", line_no)
        if not (0 <= a < n and 0 <= b < n):
            raise GraphParseError(f"vertex id out of range in {line!r}", line_no)
        edges.add((min(a, b), max(a, b)))
    if header is None:
        raise GraphParseError("missing header line \"n m\"", None)
    if len(edges) != header[1]:
        raise GraphParseError(
            f"declared {header[1]} edges but found {len(edges)} after deduplication",
            None,
        )
    return Graph(n, edges)


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col file: "p edge n m" header, 1-indexed "e u v" lines."""
    n = None
    edges: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise GraphParseError("second problem line", line_no)
            if len(parts) != 4 or parts[1] not in ("edge", "edges", "col"):
                raise GraphParseError(f"bad problem line {line!r}", line_no)
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError(f"bad problem line {line!r}", line_no)
            if n < 0:
                raise GraphParseError("vertex count must be nonnegative", line_no)
            # m must be a count, but need not match the edge lines
            if m < 0:
                raise GraphParseError("edge count must be nonnegative", line_no)
            continue
        if parts[0] == "e":
            if n is None:
                raise GraphParseError("edge line before problem line", line_no)
            if len(parts) != 3:
                raise GraphParseError(f"bad edge line {line!r}", line_no)
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise GraphParseError(f"bad edge line {line!r}", line_no)
            if u == v:
                raise GraphParseError(f"self-loop at vertex {u + 1}", line_no)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphParseError(f"vertex id out of range in {line!r}", line_no)
            edges.add((min(u, v), max(u, v)))
            continue
        raise GraphParseError(f"unrecognized line {line!r}", line_no)
    if n is None:
        raise GraphParseError("missing problem line", None)
    return Graph(n, edges)


def load_graph(path: str) -> Graph:
    """Read a graph file, choosing the format by extension and content."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".col"):
        return parse_dimacs(text)
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(("c ", "p ")) or line in ("c", "p"):
            return parse_dimacs(text)
        break
    return parse_graph(text)


def serialize(g: Graph) -> str:
    """Canonical edge-list form: header, then sorted "u v" lines with u < v."""
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def mask_vertices(mask: int) -> list[int]:
    """The vertex ids whose bits are set in mask, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertex set, relabelled to 0..k-1.

    Returns (subgraph, new_to_old) where new_to_old[i] is the original id of
    the subgraph's vertex i. The map is sorted, so relative id order (and
    with it min-degree tie-breaking) is preserved.
    """
    new_to_old = tuple(sorted(set(vertices)))
    for v in new_to_old:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} out of range")
    old_to_new = {old: new for new, old in enumerate(new_to_old)}
    keep = frozenset(new_to_old)
    edges = []
    for new_u, old_u in enumerate(new_to_old):
        # the intersection walks the smaller side, so a high-degree vertex
        # costs only the size of the kept set
        for old_v in g.adj[old_u] & keep:
            new_v = old_to_new[old_v]
            if new_u < new_v:
                edges.append((new_u, new_v))
    return Graph(len(new_to_old), edges), new_to_old


def rows(g: Graph, vertices: Iterable[int] | None = None) -> list[int]:
    """Bit rows of G[vertices], relabelled to 0..k-1 in sorted id order.

    Bit j of row i is set when the i-th and j-th smallest kept ids are
    adjacent; None keeps every vertex. Each row intersects a kept vertex's
    neighbours with the kept set, which walks the smaller side, so a hub
    costs only the size of the kept set.
    """
    keep = range(g.n) if vertices is None else sorted(set(vertices))
    if keep and not (0 <= keep[0] and keep[-1] < g.n):
        raise ValueError(f"vertex ids outside 0..{g.n - 1}")
    pos = {v: i for i, v in enumerate(keep)}
    kept = frozenset(keep)
    out = []
    for v in keep:
        row = 0
        for u in g.adj[v] & kept:
            row |= 1 << pos[u]
        out.append(row)
    return out


def check_mask(n: int, mask: int) -> None:
    """Raise ValueError unless mask is a set of ids in 0..n-1 as a bitmask."""
    if mask < 0 or mask >> n:
        raise ValueError(f"mask has bits outside vertex ids 0..{n - 1}")


def min_degree_in(bits, mask: int) -> int:
    """Smallest id among the minimum-degree vertices of the subgraph on `mask`.

    `bits` holds the adjacency rows as int bitmasks; `mask` must be
    nonempty. The scan runs in increasing id order and stops at the first
    vertex of degree 0, which no later vertex can beat.
    """
    best_v = -1
    best_deg = mask.bit_count() + 1
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        deg = (bits[v] & mask).bit_count()
        if deg < best_deg:
            if deg == 0:
                return v
            best_deg = deg
            best_v = v
        m ^= low
    return best_v


class DegeneracyResult(NamedTuple):
    d: int
    ordering: tuple[int, ...]


def degeneracy(g: Graph) -> DegeneracyResult:
    """Degeneracy and a min-degree peeling order (smallest id on ties).

    The returned d is the maximum, over the peeling, of the degree the
    removed vertex had at removal time. Every suffix of the ordering induces
    a subgraph whose first listed vertex has degree at most d.

    Peels in O(m log n) with a lazy-deletion heap keyed (degree, id), as in
    Matula and Beck's smallest-last ordering: a vertex's stale entries carry
    a higher degree than its live one, so they pop only after the vertex
    is removed, and are skipped.
    """
    n = g.n
    deg = [len(a) for a in g.adj]
    heap = [deg[v] * n + v for v in range(n)]  # key (degree, id) as one int
    heapq.heapify(heap)
    removed = bytearray(n)
    order = []
    d = 0
    while heap:
        k, v = divmod(heapq.heappop(heap), n)
        if removed[v]:
            continue
        removed[v] = 1
        order.append(v)
        if k > d:
            d = k
        for u in g.adj[v]:
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, deg[u] * n + u)
    return DegeneracyResult(d, tuple(order))


def average_degree(g: Graph) -> Fraction:
    """Exact average degree 2m/n. Errors on the empty graph."""
    if g.n == 0:
        raise ValueError("average degree undefined for the empty graph")
    return Fraction(2 * g.edge_count, g.n)
