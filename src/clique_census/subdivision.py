"""Oracles for complete-graph subdivisions and minors.

Both exact oracles open the same way.  They answer t <= 2 on a graph of
any size, since such a model is K_t itself.  From t = 3 a one-sided
polynomial certificate comes first: an elimination ordering of width at
most t-2 bounds the treewidth below t-1, which rules out a K_t minor and
so a K_t-subdivision, so both answer None at any size when it holds.
Only then do they refuse graphs above an explicit size limit instead of
silently running for hours: the searches are desk-scale only.  The
subdivision test backtracks over branch vertex choices and internally
disjoint path assignments; the minor test contracts a partition of the
vertices until its quotient holds a K_t.  The dense extraction routine
follows the constructive averaging argument in one derandomized pass:
the method of conditional expectations picks a t-subset whose edge
deficit is at most the average over all t-subsets, then each missing
edge is patched with a fresh common neighbor.  On a window of minimum
degree >= 9m/10 with 11m >= 20t and 5m > t(t-1) the deficit is below
m/4 and the patching always succeeds; outside that premise either step
may fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (
    DEFAULT_MINOR_LIMIT,
    DEFAULT_SUBDIVISION_LIMIT,
    ExtractionError,
    OracleLimitError,
    _require_int,
)
from .graph import DegeneracyResult, Graph, degeneracy, mask_vertices, rows


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
    """First k-clique within candidates as an ascending tuple, else None;
    k >= 1."""

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
    O(m + n t) after the peel.  A t that is not an int raises TypeError.
    """
    _require_int("t", t)
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


def _exhaustive(g: Graph, t: int, oracle_limit: int, what: str, wrap, search):
    """The opening both exhaustive oracles share, then the oracle's search.

    A t or oracle_limit that is not an int raises TypeError, a negative
    one ValueError.  A K_t-subdivision or K_t minor of order t <= 2 is
    K_t itself, so t <= 2 is decided on a graph of any size.  From t = 3
    the elimination certificate answers None at any size when it holds;
    otherwise a graph above oracle_limit vertices raises
    OracleLimitError naming the `what` search.  A K_t,
    as an ascending vertex tuple, goes to `wrap`; when the vertices of
    degree at least t-1 hold none, `search(bits, candidates, t)` decides.
    """
    _require_int("t", t)
    _require_int("oracle_limit", oracle_limit)
    if t < 0:
        raise ValueError("t must be non-negative")
    if oracle_limit < 0:
        raise ValueError("oracle_limit must be non-negative")
    if t <= 2:
        if t == 2:
            clique = next(
                ((u, min(g.adj[u])) for u in range(g.n) if g.adj[u]), None
            )
        else:
            clique = tuple(range(t)) if g.n >= t else None
        return None if clique is None else wrap(clique)
    if elimination_certificate(g, t):
        return None
    if g.n > oracle_limit:
        raise OracleLimitError(
            f"{what} search limited to {oracle_limit} vertices, got {g.n}"
        )
    if g.n < t:
        return None
    bits = rows(g)
    candidates = [v for v in range(g.n) if len(g.adj[v]) >= t - 1]
    clique = _find_clique(bits, candidates, t)
    if clique is not None:
        return wrap(clique)
    return search(bits, candidates, t)


def _route_branches(bits, candidates: list[int], t: int):
    """First branch set among the candidates that _route realizes."""
    for branch in combinations(candidates, t):
        witness = _route(bits, branch)
        if witness is not None:
            return witness
    return None


def has_subdivision(
    g: Graph, t: int, oracle_limit: int = DEFAULT_SUBDIVISION_LIMIT
):
    """Exhaustive search for a K_t-subdivision; a witness or None.

    t <= 2 is decided directly on any size of graph, and so is a graph
    the elimination certificate proves free.  Any other graph must fit
    under oracle_limit, or OracleLimitError is raised.  Raises
    TypeError for a t or oracle_limit that is not an int, ValueError
    for a negative one.
    """
    return _exhaustive(
        g, t, oracle_limit, "subdivision",
        lambda clique: SubdivisionWitness(clique, tuple(combinations(clique, 2))),
        _route_branches,
    )


def _minor_model(bits, candidates: list[int], t: int):
    """First K_t model of the graph whose adjacency rows are `bits`, as
    vertex sets in increasing order of their least vertex, else None.

    A model inside one component can absorb every other vertex of that
    component into an adjacent branch set, so if a model exists, some
    model coarsens the singleton partition of the vertices, less whole
    components.  The search contracts that partition and remembers the
    partitions that failed.  A quotient with fewer than t parts or fewer
    than C(t,2) edges holds no K_t minor, and an isolated part, a whole
    component, is dropped.  Unless the parts of quotient degree >= t-1
    hold a K_t, a part v of least degree is merged with each neighbour
    in turn when its degree is below t-1, since alone it would miss a
    branch set; otherwise every adjacent pair is merged in turn.
    candidates goes unused: a branch set of several vertices may hold
    vertices of any degree.
    """
    failed: set[tuple[int, ...]] = set()

    def rec(parts: tuple[int, ...]):
        if len(parts) < t or parts in failed:
            return None
        quotient = []
        for mask in parts:
            reach = 0
            for v in mask_vertices(mask):
                reach |= bits[v]
            reach &= ~mask
            quotient.append(sum(1 << j for j, p in enumerate(parts) if reach & p))
        degree = [row.bit_count() for row in quotient]
        if sum(degree) >= t * (t - 1):
            if 0 in degree:
                return rec(tuple(p for p, d in zip(parts, degree) if d))
            hubs = [i for i, d in enumerate(degree) if d >= t - 1]
            clique = _find_clique(quotient, hubs, t)
            if clique is not None:
                return [parts[i] for i in clique]
            v = degree.index(min(degree))
            if degree[v] < t - 1:
                pairs = [(v, u) for u in mask_vertices(quotient[v])]
            else:
                pairs = [(i, j) for i, row in enumerate(quotient)
                         for j in mask_vertices(row) if i < j]
            for i, j in pairs:
                rest = [p for h, p in enumerate(parts) if h != i and h != j]
                got = rec(tuple(sorted(rest + [parts[i] | parts[j]])))
                if got is not None:
                    return got
        failed.add(parts)
        return None

    model = rec(tuple(1 << v for v in range(len(bits))))
    if model is None:
        return None
    model.sort(key=lambda mask: mask & -mask)
    return tuple(frozenset(mask_vertices(mask)) for mask in model)


def has_minor(g: Graph, t: int, oracle_limit: int = DEFAULT_MINOR_LIMIT):
    """Exhaustive K_t-minor search by contraction; a tuple of branch sets
    or None.

    Branch sets are disjoint, each induces a connected subgraph, and
    every pair is joined by at least one edge.  t <= 2 is decided
    directly on any size of graph, and so is a graph the elimination
    certificate proves free.  Any other graph must fit under
    oracle_limit, or OracleLimitError is raised.  Raises TypeError for
    a t or oracle_limit that is not an int, ValueError for a negative
    one.
    """
    return _exhaustive(
        g, t, oracle_limit, "minor",
        lambda clique: tuple(frozenset({v}) for v in clique),
        _minor_model,
    )


def extract_subdivision_dense(g: Graph, t: int) -> SubdivisionWitness:
    """Constructive subdivision extraction for dense near-regular graphs.

    Requires m >= 20t/11 together with either minimum degree >= (9/10)m
    or m > max{20t/11, t^2/5}; the second alternative is how a caller
    asserts that the sparsity conclusion is already violated.  One
    derandomized pass picks a t-subset Y, then each missing edge of Y
    gets one fresh common neighbor.

    The pass is the method of conditional expectations applied to a
    uniform t-subset.  With A the vertices picked so far and R the pool
    of r vertices left, it picks the v in R that maximizes
    (r-2)|N(v) & A| + left |N(v) & R|, where `left` picks follow, and
    the least such v.  Up to a positive factor and terms shared by every
    v, this is the expected edge count of Y given A + {v}, since
    m >= 20t/11 keeps r >= 3 at every pick once t >= 2.  The expected
    number of missing pairs never rises, so Y misses at most
    C(t,2) * miss(G) / C(m,2) pairs, miss(G) the non-adjacent pairs of
    g.  When 10 min degree >= 9m, 11m >= 20t and 5m > t(t-1), that is
    fewer than m/4, so 4*e(Y) > 4*C(t,2) - m; and each missing pair has
    at least 0.8m + 2 common neighbors while fewer than t + m/4 vertices
    are in use, so a witness is returned.  Outside that premise either
    failure, reason "no_dense_subset" or "no_connector", may be raised.
    A t that is not an int raises TypeError, a negative one ValueError.
    """
    _require_int("t", t)
    if t < 0:
        raise ValueError("t must be non-negative")
    m = g.n
    bits = rows(g)
    min_deg = min((row.bit_count() for row in bits), default=0)
    ok_size = 11 * m >= 20 * t
    ok_degree = 10 * min_deg >= 9 * m
    ok_oversize = 11 * m > 20 * t and 5 * m > t * t
    if not (ok_size and (ok_degree or ok_oversize)):
        raise ExtractionError(
            f"need n >= 20t/11 and (min degree >= 9n/10 or "
            f"n > max(20t/11, t^2/5)); got n={m}, t={t}, min degree {min_deg}",
            reason="precondition",
        )

    used = 0
    pool = (1 << m) - 1
    for left in reversed(range(t)):
        r = pool.bit_count()
        # max keeps the least of equal keys
        v = max(mask_vertices(pool), key=lambda v: (
            (r - 2) * (bits[v] & used).bit_count()
            + left * (bits[v] & pool).bit_count()
        ))
        used |= 1 << v
        pool ^= 1 << v
    subset = tuple(mask_vertices(used))
    edges = sum((bits[v] & used).bit_count() for v in subset) // 2
    if 4 * edges <= 2 * t * (t - 1) - m:
        raise ExtractionError(
            f"no {t}-subset found with 4*e(Y) > 4*C(t,2) - n; "
            "the density assumption does not hold",
            reason="no_dense_subset",
        )

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
