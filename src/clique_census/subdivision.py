"""Oracles for complete-graph subdivisions and minors.

A one-sided polynomial certificate comes first: an elimination ordering
of width at most t-2 bounds the treewidth below t-1, which rules out a
K_t minor and so a K_t-subdivision.  The exact oracles are desk-scale
searches only.  The subdivision test backtracks over branch
vertex choices and internally disjoint path assignments; the minor test
searches for pairwise adjacent families of connected branch sets.  Both
refuse graphs above an explicit size limit instead of silently running
for hours.  The dense extraction routine follows the constructive
averaging argument: locate a t-subset whose edge deficit is below m/4,
then patch each missing edge with a fresh common neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import ExtractionError, OracleLimitError
from .graph import DegeneracyResult, Graph, degeneracy, rows

DEFAULT_SUBDIVISION_LIMIT = 16
DEFAULT_MINOR_LIMIT = 14

# exhaustive t-subset scans are attempted only below this many subsets
EXHAUSTIVE_SUBSET_LIMIT = 10**6


@dataclass(frozen=True)
class SubdivisionWitness:
    """Branch vertices plus one host-graph path per branch pair.

    Every path starts and ends at a branch vertex; a length-one path is
    a plain edge.  Internal vertices are shared with no other path and
    never coincide with branch vertices.
    """

    branch: tuple[int, ...]
    paths: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "branch": list(self.branch),
            "paths": [
                {"pair": [path[0], path[-1]], "path": list(path)}
                for path in self.paths
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SubdivisionWitness":
        branch = tuple(int(v) for v in data["branch"])
        paths = tuple(
            tuple(int(v) for v in entry["path"]) for entry in data["paths"]
        )
        return cls(branch, paths)


def verify_witness(g: Graph, w: SubdivisionWitness, t: int) -> bool:
    """Re-check every witness invariant against g; False on malformed input."""
    try:
        branch = tuple(int(v) for v in w.branch)
        paths = tuple(tuple(int(x) for x in p) for p in w.paths)
    except (TypeError, ValueError):
        return False
    if len(branch) != t or len(set(branch)) != t:
        return False
    if any(v < 0 or v >= g.n for v in branch):
        return False
    branch_set = set(branch)
    want = {frozenset(pair) for pair in combinations(branch, 2)}
    seen: set[frozenset[int]] = set()
    used_internal: set[int] = set()
    for path in paths:
        if len(path) < 2 or len(set(path)) != len(path):
            return False
        if any(v < 0 or v >= g.n for v in path):
            return False
        ends = frozenset((path[0], path[-1]))
        if len(ends) != 2 or not ends <= branch_set or ends in seen:
            return False
        seen.add(ends)
        for v in path[1:-1]:
            if v in branch_set or v in used_internal:
                return False
            used_internal.add(v)
        for a, b in zip(path, path[1:]):
            if not g.has_edge(a, b):
                return False
    return seen == want


def _find_clique(bits: list[int], candidates: list[int], k: int):
    """First k-clique within candidates as an ascending tuple, else None."""
    if k == 0:
        return ()

    def rec(mask: int, acc: list[int]):
        if len(acc) + mask.bit_count() < k:
            return None
        m = mask
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            acc.append(v)
            if len(acc) == k:
                return tuple(acc)
            got = rec(m & bits[v], acc)
            if got is not None:
                return got
            acc.pop()
        return None

    start = 0
    for v in candidates:
        start |= 1 << v
    return rec(start, [])


def _simple_paths(bits, target, x, avail, trail):
    """Yield internal-vertex tuples of simple paths from x to target.

    avail masks the vertices still usable as internals; the direct step
    to the target is tried before each deeper extension.
    """
    if trail and (bits[x] >> target) & 1:
        yield tuple(trail)
    m = bits[x] & avail
    while m:
        low = m & -m
        m ^= low
        w = low.bit_length() - 1
        trail.append(w)
        yield from _simple_paths(bits, target, w, avail & ~low, trail)
        trail.pop()


def _assign_paths(bits, pairs, idx, free, acc):
    if idx == len(pairs):
        return dict(acc)
    if free.bit_count() < len(pairs) - idx:
        return None
    u, v = pairs[idx]
    for internals in _simple_paths(bits, v, u, free, []):
        used = 0
        for w in internals:
            used |= 1 << w
        acc[(u, v)] = internals
        got = _assign_paths(bits, pairs, idx + 1, free & ~used, acc)
        if got is not None:
            return got
        del acc[(u, v)]
    return None


def _route(bits, branch: tuple[int, ...]):
    """Try to realize a subdivision on a fixed branch set.

    Adjacent branch pairs always take their direct edge: swapping a long
    path for the edge only frees internal vertices, so this loses no
    solutions.  Non-adjacent pairs are routed fail-first, fewest common
    free neighbors first.
    """
    bmask = 0
    for v in branch:
        bmask |= 1 << v
    free = ((1 << len(bits)) - 1) & ~bmask
    open_pairs = [
        (u, v)
        for u, v in combinations(branch, 2)
        if not (bits[u] >> v) & 1
    ]
    open_pairs.sort(key=lambda p: (bits[p[0]] & bits[p[1]] & free).bit_count())
    assignment = _assign_paths(bits, open_pairs, 0, free, {})
    if assignment is None:
        return None
    paths = []
    for u, v in combinations(branch, 2):
        if (bits[u] >> v) & 1:
            paths.append((u, v))
        else:
            paths.append((u, *assignment[(u, v)], v))
    return SubdivisionWitness(branch, tuple(paths))


def elimination_certificate(
    g: Graph, t: int, peel: DegeneracyResult | None = None
) -> bool:
    """True when eliminating g along its min-degree peel proves that g has
    no K_t minor, and so no K_t-subdivision; False proves nothing.

    A K_t-subdivision is a K_t minor, which forces treewidth >= t-1, so an
    elimination ordering of width <= t-2 excludes both (Bodlaender & Koster,
    "Treewidth computations I. Upper bounds", 2010).  Pass `peel` when g is
    already peeled.  The width is at least the degeneracy, so peel.d > t-2
    rejects at once; otherwise one pass computes the Rose-Tarjan-Lueker
    fill: a vertex's later neighbours plus its inherited fill become a
    clique when it is eliminated, and that set, less its earliest member,
    is handed to the earliest member.  It stops at the first set larger
    than t-2; each vertex hands on at most t-3 vertices, so the pass costs
    O(m + n t) after the peel.
    """
    if t < 1:
        return False
    if peel is None:
        peel = degeneracy(g)
    width = t - 2
    if peel.d > width:
        return False
    pos = [0] * g.n
    for i, v in enumerate(peel.ordering):
        pos[v] = i
    at = pos.__getitem__
    adj = g.adj
    fill: dict[int, set[int]] = {}  # sets of peel positions, keyed the same
    for i, v in enumerate(peel.ordering):
        later = {p for p in map(at, adj[v]) if p > i}
        inherited = fill.pop(i, None)
        if inherited:  # without fill, len(later) <= peel.d <= width
            later |= inherited
            if len(later) > width:
                return False
        if len(later) > 1:
            first = min(later)
            later.discard(first)
            if first in fill:
                fill[first] |= later
            else:
                fill[first] = later
    return True


def has_subdivision(
    g: Graph, t: int, oracle_limit: int = DEFAULT_SUBDIVISION_LIMIT
):
    """Exhaustive search for a K_t-subdivision; a witness or None.

    t <= 2 is decided directly on any size of graph.  For t >= 3 the
    graph must fit under oracle_limit.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return SubdivisionWitness((), ())
    if t == 1:
        return SubdivisionWitness((0,), ()) if g.n >= 1 else None
    if t == 2:
        for u in range(g.n):
            if g.adj[u]:
                v = min(g.adj[u])
                return SubdivisionWitness((u, v), ((u, v),))
        return None
    if g.n > oracle_limit:
        raise OracleLimitError(
            f"subdivision search limited to {oracle_limit} vertices, got {g.n}"
        )
    if g.n < t:
        return None
    candidates = [v for v in range(g.n) if len(g.adj[v]) >= t - 1]
    if len(candidates) < t:
        return None
    bits = rows(g)
    clique = _find_clique(bits, candidates, t)
    if clique is not None:
        return SubdivisionWitness(
            clique, tuple(combinations(clique, 2))
        )
    for branch in combinations(candidates, t):
        witness = _route(bits, branch)
        if witness is not None:
            return witness
    return None


def _connected_subsets(bits) -> list[int]:
    """All nonempty vertex subsets inducing a connected subgraph, as masks,
    of the graph whose adjacency rows are `bits`."""
    out = []
    for mask in range(1, 1 << len(bits)):
        low = mask & -mask
        seen = low
        frontier = low
        while frontier:
            grow = 0
            m = frontier
            while m:
                lw = m & -m
                m ^= lw
                grow |= bits[lw.bit_length() - 1]
            frontier = grow & mask & ~seen
            seen |= frontier
        if seen == mask:
            out.append(mask)
    return out


def has_minor(g: Graph, t: int, oracle_limit: int = DEFAULT_MINOR_LIMIT):
    """Brute-force K_t-minor search; a tuple of branch sets or None.

    Branch sets are disjoint, each induces a connected subgraph, and
    every pair is joined by at least one edge.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if g.n > oracle_limit:
        raise OracleLimitError(
            f"minor search limited to {oracle_limit} vertices, got {g.n}"
        )
    if t == 0:
        return ()
    if t == 1:
        return (frozenset({0}),) if g.n >= 1 else None
    if g.n < t:
        return None
    if t == 2:
        for u in range(g.n):
            if g.adj[u]:
                return (frozenset({u}), frozenset({min(g.adj[u])}))
        return None
    bits = rows(g)
    candidates = [v for v in range(g.n) if len(g.adj[v]) >= t - 1]
    clique = _find_clique(bits, candidates, t)
    if clique is not None:
        return tuple(frozenset({v}) for v in clique)

    sets = _connected_subsets(bits)
    sets.sort(key=lambda m: (m.bit_count(), m & -m, m))
    nbr = {}
    for mask in sets:
        reach = 0
        m = mask
        while m:
            low = m & -m
            m ^= low
            reach |= bits[low.bit_length() - 1]
        nbr[mask] = reach & ~mask

    def rec(chosen: list[int], used: int, min_floor: int):
        if len(chosen) == t:
            return tuple(chosen)
        for mask in sets:
            if mask & used:
                continue
            if (mask & -mask) <= min_floor:
                continue
            if any(not (mask & nbr[c]) for c in chosen):
                continue
            got = rec(chosen + [mask], used | mask, mask & -mask)
            if got is not None:
                return got
        return None

    model = rec([], 0, 0)
    if model is None:
        return None
    return tuple(
        frozenset(v for v in range(g.n) if (mask >> v) & 1) for mask in model
    )


def extract_subdivision_dense(g: Graph, t: int) -> SubdivisionWitness:
    """Constructive subdivision extraction for dense near-regular graphs.

    Requires m >= 20t/11 together with either minimum degree >= (9/10)m
    or m > max{20t/11, t^2/5}; the second alternative is how a caller
    asserts that the sparsity conclusion is already violated.  Finds a
    t-subset Y with 4*e(Y) > 4*C(t,2) - m, then one fresh common
    neighbor per missing edge of Y.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    m = g.n
    min_deg = min((len(g.adj[v]) for v in range(m)), default=0)
    ok_size = 11 * m >= 20 * t
    ok_degree = 10 * min_deg >= 9 * m
    ok_oversize = 11 * m > 20 * t and 5 * m > t * t
    if not (ok_size and (ok_degree or ok_oversize)):
        raise ExtractionError(
            f"need n >= 20t/11 and (min degree >= 9n/10 or "
            f"n > max(20t/11, t^2/5)); got n={m}, t={t}, min degree {min_deg}",
            reason="precondition",
        )

    bits = rows(g)
    deficit_bar = 2 * t * (t - 1) - m  # want 4*e(Y) > this

    def edges_within(vertices) -> int:
        total = 0
        for i, u in enumerate(vertices):
            for v in vertices[i + 1:]:
                total += (bits[u] >> v) & 1
        return total

    subset = None
    if comb(m, t) <= EXHAUSTIVE_SUBSET_LIMIT:
        for cand in combinations(range(m), t):
            if 4 * edges_within(cand) > deficit_bar:
                subset = cand
                break
    else:
        # greedy densification: repeatedly add the vertex with the most
        # edges into the part built so far
        acc: list[int] = []
        acc_mask = 0
        for _ in range(t):
            best = -1
            best_gain = -1
            for v in range(m):
                if (acc_mask >> v) & 1:
                    continue
                gain = (bits[v] & acc_mask).bit_count()
                if gain > best_gain:
                    best = v
                    best_gain = gain
            acc.append(best)
            acc_mask |= 1 << best
        acc.sort()
        if 4 * edges_within(acc) > deficit_bar:
            subset = tuple(acc)
    if subset is None:
        raise ExtractionError(
            f"no {t}-subset found with 4*e(Y) > 4*C(t,2) - n; "
            "the density assumption does not hold",
            reason="no_dense_subset",
        )

    used = 0
    for v in subset:
        used |= 1 << v
    paths = []
    for u, v in combinations(subset, 2):
        if (bits[u] >> v) & 1:
            paths.append((u, v))
            continue
        commons = bits[u] & bits[v] & ~used
        if not commons:
            raise ExtractionError(
                f"no unused common neighbor for the missing edge {u},{v}",
                reason="no_connector",
            )
        w = (commons & -commons).bit_length() - 1
        used |= 1 << w
        paths.append((u, w, v))
    return SubdivisionWitness(subset, tuple(paths))
