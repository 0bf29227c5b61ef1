"""Independent brute-force oracles used only by the test suite.

Everything here works from the edge list alone and avoids the package's
search-tree machinery, so agreement is meaningful.
"""

from itertools import combinations


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
