"""Immutable undirected simple graphs over vertex ids 0..n-1.

A graph stores its adjacency once, as one frozenset of neighbours per
vertex, so it takes O(n + m) memory. Graph(n, pairs) is the one place that
drops duplicate edges and counts them: the readers hand it the pairs as
read. The census kernel and the min-degree descents read bit rows instead
(Python ints, so there is no width cap). rows(g, vertices) builds them for
the whole graph or for one vertex set, such as a dense window; the local
graphs of a root split get theirs from the forward sets in
tree._local_graphs, which equal rows(g, ids). Vertices are always
addressed by id; induced subgraphs and their rows relabel to 0..k-1
preserving the relative order of the surviving ids, which keeps
min-degree tie-breaking consistent between a graph and its subgraphs.
"""

from __future__ import annotations

import heapq
import re
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

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

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
    after deduplication, or the error names the header's line.
    """
    header: tuple[int, int, int] | None = None  # n, m and the line number
    edges: list[tuple[int, int]] = []
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
            header = (a, b, line_no)
            n = a
            continue
        if a == b:
            raise GraphParseError(f"self-loop at vertex {a}", line_no)
        if not (0 <= a < n and 0 <= b < n):
            raise GraphParseError(f"vertex id out of range in {line!r}", line_no)
        edges.append((a, b))
    if header is None:
        raise GraphParseError("missing header line \"n m\"", None)
    g = Graph(n, edges)
    if g.edge_count != header[1]:
        raise GraphParseError(
            f"declared {header[1]} edges but found {g.edge_count} after deduplication",
            header[2],
        )
    return g


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS .col file: "p edge n m" header, 1-indexed "e u v" lines."""
    n = None
    edges: list[tuple[int, int]] = []
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
            edges.append((u, v))
            continue
        raise GraphParseError(f"unrecognized line {line!r}", line_no)
    if n is None:
        raise GraphParseError("missing problem line", None)
    return Graph(n, edges)


# a first non-blank line that starts with "c" or has the token "p"; no
# edge-list line, two integers or a "#" comment, can do either
_DIMACS_START = re.compile(r"\s*(c|p(\s|$))")


def read_utf8(path: str) -> str:
    """The file's text. Bytes that are not UTF-8 raise GraphParseError on
    the line of the first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        # the bytes before the bad one decode; count lines as the parsers do
        line_no = len((data[:err.start].decode("utf-8") + "x").splitlines())
        raise GraphParseError(f"invalid UTF-8 byte {data[err.start]:#04x}", line_no) from None


def load_graph(path: str) -> Graph:
    """Read a graph file: DIMACS if it is named *.col or its first non-blank
    line is a DIMACS comment or problem line, else the edge-list format.

    Bytes that are not UTF-8 raise GraphParseError (read_utf8).
    """
    text = read_utf8(path)
    if path.endswith(".col") or _DIMACS_START.match(text):
        return parse_dimacs(text)
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


def _kept_ids(g: Graph, vertices: Iterable[int]) -> list[int]:
    """The distinct ids in sorted order; an id outside 0..n-1 raises
    ValueError."""
    keep = sorted(set(vertices))
    if keep and not (0 <= keep[0] and keep[-1] < g.n):
        raise ValueError(f"vertex ids outside 0..{g.n - 1}")
    return keep


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertex set, relabelled to 0..k-1.

    Returns (subgraph, new_to_old) where new_to_old[i] is the original id of
    the subgraph's vertex i. The map is sorted, so relative id order (and
    with it min-degree tie-breaking) is preserved.
    """
    new_to_old = tuple(_kept_ids(g, vertices))
    pos = {v: i for i, v in enumerate(new_to_old)}
    kept = frozenset(new_to_old)
    edges = [
        (i, pos[u]) for i, v in enumerate(new_to_old) for u in g.adj[v] & kept if u > v
    ]
    return Graph(len(new_to_old), edges), new_to_old


def _row_edges(bits) -> list[tuple[int, int]]:
    """Edges (i, j), i < j, of the graph whose bit rows are `bits`."""
    # row i shifted right by i + 1 keeps the neighbours above i: bit j is i + 1 + j
    return [
        (i, i + 1 + j)
        for i, row in enumerate(bits)
        for j in mask_vertices(row >> i + 1)
    ]


def rows(g: Graph, vertices: Iterable[int] | None = None) -> list[int]:
    """Bit rows of G[vertices], relabelled to 0..k-1 in sorted id order.

    Bit j of row i is set when the i-th and j-th smallest kept ids are
    adjacent; None keeps every vertex. Each row intersects a kept vertex's
    neighbours with the kept set, which walks the smaller side, so a hub
    costs only the size of the kept set.
    """
    keep = range(g.n) if vertices is None else _kept_ids(g, vertices)
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

    This is Matula and Beck's smallest-last peel ("Smallest-last ordering
    and clustering and graph coloring algorithms", J. ACM 1983), with one
    small heap of ids per degree in place of their plain buckets, so ties
    go to the smallest id. It pops from the lowest nonempty bucket and
    skips an entry whose vertex no longer has that bucket's degree (a
    removed vertex has degree -1). A removal lowers each degree by at
    most one, so the bucket pointer steps down by at most one per
    removal, and a vertex enters each bucket at most once: n + m pushes
    and pops, each on one degree's heap.
    """
    deg = [len(a) for a in g.adj]
    buckets: list[list[int]] = [[] for _ in range(max(deg, default=0) + 1)]
    for v, k in enumerate(deg):
        buckets[k].append(v)  # ids ascending, so each bucket is a heap
    heappop, heappush = heapq.heappop, heapq.heappush
    order = []
    d = b = 0
    for _ in range(g.n):
        while True:
            bucket = buckets[b]
            if not bucket:
                b += 1
                continue
            v = heappop(bucket)
            if deg[v] == b:
                break
        order.append(v)
        if b > d:
            d = b
        deg[v] = -1
        for u in g.adj[v]:
            k = deg[u]
            if k > 0:  # u is still in the graph, so it had v as a neighbour
                deg[u] = k - 1
                heappush(buckets[k - 1], u)
        if b:
            b -= 1
    return DegeneracyResult(d, tuple(order))


def average_degree(g: Graph) -> Fraction:
    """Exact average degree 2m/n. Errors on the empty graph."""
    if g.n == 0:
        raise ValueError("average degree undefined for the empty graph")
    return Fraction(2 * g.edge_count, g.n)
