"""Mechanical audits of the clique-count bound pipeline on concrete graphs.

The headline claim under audit: a graph with no K_t-subdivision has at
most 2^(50t) * n cliques.  The proof factors through a skeleton subtree
of the clique search tree, a case split over the skeleton's boundary
nodes, and a dense-window analysis; each step yields a concrete
inequality that can be re-checked exactly on a given input.  Checks use
exact integer or rational arithmetic wherever both sides are rational.
Where a side is transcendental, the standard library's decimal module
evaluates it at rising precision until a rounding-error bound separates
it from the rational side, so every verdict is exact; reports show such
values to 15 significant digits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal, localcontext
from fractions import Fraction
from functools import cache
from math import comb, floor

from .errors import ExtractionError, _require_int
from . import backend as _backend
from .graph import DegeneracyResult, Graph, _row_edges, degeneracy, min_degree_in, rows
from .graph import induced_subgraph  # noqa: F401  unused here; traced by this name
from .sparsity import _as_fraction
from .subdivision import (
    DEFAULT_SUBDIVISION_LIMIT,
    elimination_certificate,
    extract_subdivision_dense,
    has_subdivision,
    verify_witness,
)
from .tree import _label_children, _local_graphs, count_cliques
from .tree import build_tree  # noqa: F401  unused here; traced by this name

# perfbench/layers.py times the audit by replacing names in this module
# (degeneracy, count_cliques, build_skeleton, audit_boundary_cases,
# audit_dense_window, audit_skeleton_size, audit_total and the
# subdivision oracles), so the audit calls each of them through its
# module-level name.  It also wraps build_tree and induced_subgraph,
# which the audit never calls; the imports above only keep those names.

# reported reals and margins carry 50 significant digits; no exponent limit
_CONTEXT = Context(prec=50, Emax=MAX_EMAX, Emin=MIN_EMIN)
_DISPLAY = Context(prec=15, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)

# a dense window with more cliques than this is not walked for its
# truncation check
DEFAULT_NODE_CAP = 10_000_000


@dataclass(frozen=True)
class AuditConfig:
    """Audit parameters; t below 4 short-circuits to the forest case.

    t and oracle_limit must be ints, not bools: anything else raises
    TypeError."""

    t: int
    assume_subdivision_free: bool = False
    oracle_limit: int = DEFAULT_SUBDIVISION_LIMIT

    def __post_init__(self):
        _require_int("t", self.t)
        _require_int("oracle_limit", self.oracle_limit)
        if self.t < 1:
            raise ValueError("audit needs t >= 1")
        if self.oracle_limit < 0:
            raise ValueError("oracle_limit must be non-negative")

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "assume_subdivision_free": self.assume_subdivision_free,
            "oracle_limit": self.oracle_limit,
        }


@dataclass
class AuditCheck:
    """One audited inequality: lhs <= rhs (or < rhs where noted), save
    the window-min-degree and window-oracle checks, lhs >= rhs."""

    name: str
    lhs: object
    rhs: object
    holds: bool
    anchor: str
    note: str = ""

    @property
    def margin(self):
        """|rhs - lhs|, negated when the check fails: a check of the form
        lhs >= rhs holds with a positive margin too.  Exact unless a side
        is a Decimal, then to 50 digits."""
        with localcontext(_CONTEXT):
            gap = abs(self.rhs - self.lhs)
            return gap if self.holds else -gap

    def to_json(self) -> dict:
        out = {
            "name": self.name,
            "lhs": _fmt(self.lhs),
            "rhs": _fmt(self.rhs),
            "margin": _fmt(self.margin),
            "holds": self.holds,
            "anchor": self.anchor,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class BoundaryCase:
    """Classification of one skeleton boundary node."""

    node: int
    label_size: int
    case: str  # small_label | dense_window | small_children
    window_size: int | None = None
    window_tree_size: int | None = None

    def to_json(self) -> dict:
        return {
            "node": self.node,
            "label_size": self.label_size,
            "case": self.case,
            "window_size": self.window_size,
            "window_tree_size": (
                None
                if self.window_tree_size is None
                else str(self.window_tree_size)
            ),
        }


@dataclass
class AuditReport:
    config: AuditConfig
    n: int
    edge_count: int
    checks: list[AuditCheck] = field(default_factory=list)
    boundary_cases: list[BoundaryCase] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return all(check.holds for check in self.checks)

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "graph": {"n": self.n, "edges": self.edge_count},
            "checks": [check.to_json() for check in self.checks],
            "boundary_cases": [case.to_json() for case in self.boundary_cases],
            "notes": list(self.notes),
            "all_hold": self.all_hold,
        }


@dataclass(frozen=True)
class SkeletonNode:
    """One skeleton node with what the audit needs of its children.

    The children are the node's children in the clique search tree, in
    child order: chosen vertex, label size, the node count of the subtree
    below the child, and whether the child is itself a skeleton node.
    """

    index: int
    depth: int
    label_size: int
    chosen_vertex: int | None
    size: int
    child_vertices: tuple[int, ...]
    child_label_sizes: tuple[int, ...]
    child_sizes: tuple[int, ...]
    child_in_skeleton: tuple[bool, ...]

    def excluded(self) -> list[int]:
        """Positions of the children that lie outside the skeleton."""
        return [i for i, inside in enumerate(self.child_in_skeleton) if not inside]


@dataclass(frozen=True)
class Skeleton:
    """The recursively thinned rooted subtree driving the size bound.

    A child enters iff its label size s satisfies s^2 >= 10 t^2 and
    10 s < 9 * (parent label size); the root always enters.  Nodes are
    listed in preorder; the rest of the tree is never materialized.
    """

    nodes: tuple[SkeletonNode, ...]
    height: int

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def tree_size(self) -> int:
        """Node count of the whole clique search tree: the clique count."""
        return self.nodes[0].size

    @property
    def hanging_count(self) -> int:
        """Children of skeleton nodes that lie outside the skeleton.

        Each roots one hanging subtree, and every tree node outside the
        skeleton lies in exactly one of them.
        """
        return sum(len(node.excluded()) for node in self.nodes)

    def boundary_nodes(self) -> list[SkeletonNode]:
        """Skeleton nodes with at least one child outside the skeleton."""
        return [node for node in self.nodes if not all(node.child_in_skeleton)]


def _fmt(value) -> str:
    """An int as str() does, a Fraction as "p/q", and any other real
    rounded half away from zero to 15 significant digits, trailing zeros
    dropped: in fixed point for decimal exponents -4 to 14, with ".0" on
    a whole value, and otherwise as a mantissa with an exponent, as in
    "3.79151248011886e+54" or "2.0e-5"."""
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    x = Decimal(value).normalize(_DISPLAY)
    if not x:
        return "0.0"
    exponent = x.adjusted()
    if -4 <= exponent <= 14:
        text, suffix = f"{x:f}", ""
    else:
        text, suffix = f"{x.scaleb(-exponent, _DISPLAY):f}", f"e{exponent:+d}"
    return (text if "." in text else text + ".0") + suffix


# The transcendental sides of the checks, each a function of integers (k
# may be a Fraction) evaluated in the current decimal context; _at_most
# bounds their rounding error.


def _height_bound(t):
    """1 + ln(10 t^2) / (2 ln(10/9)), the skeleton height bound."""
    return 1 + Decimal(10 * t * t).ln() / (2 * (Decimal(10) / 9).ln())


def _size_factor(t):
    """2^(44.1 t), the skeleton size bound per vertex."""
    return (Decimal(441 * t) / 10 * Decimal(2).ln()).exp()


def _cap(t):
    """2^(sqrt(10) t), the bound on a small boundary node's subtree."""
    return (Decimal(10).sqrt() * t * Decimal(2).ln()).exp()


def _window_depth(t, m):
    """2 (t^2/m) ln(m/t), the truncation depth before its floor; m >= 5t."""
    return 2 * t * t * (Decimal(m) / t).ln() / m


def _binom_bound(m, k):
    """(e m / k)^k = e^(k (1 + ln(m/k))) for 0 < k <= m."""
    return (Decimal(k.numerator) / k.denominator
            * (1 + (Decimal(m * k.denominator) / k.numerator).ln())).exp()


@cache
def _real(f, *args, prec=50):
    """f(*args) to prec significant digits."""
    with localcontext(_CONTEXT) as ctx:
        ctx.prec = prec
        return f(*args)


def _at_most(x, f, *args) -> bool:
    """Whether the rational x is at most f(*args), decided exactly.

    f is one of the quantities above.  At prec digits a decimal operation
    errs by at most one unit in the last place, a relative r = 10^(1 - prec).
    The quantities without exp end within 15 r of their true value.  An exp
    whose argument Y is within 5.2 r errs by at most (5.2 |Y| + 1) r, and
    |Y| = |ln value| <= 2.31 (|e| + 1) for the value's decimal exponent e.
    Both errors lie below (|e| + 3) 100 r, and the precision doubles until x
    lies outside that distance of the value.  This ends, because no
    quantity is rational: 2^(sqrt(10) t) is transcendental by Gelfond and
    Schneider; e^q for rational q != 0, hence (e m / k)^k = e^k (m/k)^k,
    and ln(m/t) for m != t, hence the depth, by Lindemann; and
    1 + ln(10 t^2) / (2 ln(10/9)) = h would need (10/9)^(2(h - 1)) = 10 t^2,
    which no integer h solves.
    """
    prec = 50
    while True:
        value = _real(f, *args, prec=prec)
        exact = Fraction(value)
        gap = exact - x
        if abs(gap) * 10 ** (prec - 3) > abs(exact) * (abs(value.adjusted()) + 3):
            return gap > 0
        prec *= 2


def build_skeleton(g: Graph, t: int,
                   peel: DegeneracyResult | None = None) -> Skeleton:
    """Walk the skeleton of g's clique search tree top-down.

    Root children come from the min-degree peel (pass `peel` when g is
    already peeled).  Below root child v the walk runs on the rows of
    G[v's label], relabelled in order, and maps ids back, as enumeration
    does.  Each child outside the skeleton roots the tree of G[its
    label], so its subtree is sized by one kernel census of that label on
    the same rows and never walked.  The rows and the label determine the
    size, so equal pairs share one kernel run within the call.
    """
    _require_int("t", t)
    if t < 1:
        raise ValueError("skeleton rule needs t >= 1")
    if peel is None:
        peel = degeneracy(g)
    nodes: list[SkeletonNode | None] = []
    hanging_sizes: dict[tuple[tuple[int, ...], int], int] = {}

    def local(bits, ids, label):
        """The children of `label`, a mask over the rows `bits` of G[ids]."""
        for u, child in _label_children(bits, label):
            yield ids[u], bits, ids, child

    def walk(index, depth, label_size, chosen, children) -> int:
        slot = len(nodes)
        nodes.append(None)  # keeps preorder; filled once the children are sized
        vertices, label_sizes, sizes, inside = [], [], [], []
        next_index = index + 1
        for v, bits, ids, label in children:
            s = label.bit_count()
            enters = s * s >= 10 * t * t and 10 * s < 9 * label_size
            if enters:
                size = walk(next_index, depth + 1, s, v, local(bits, ids, label))
            else:
                key = (bits, label)
                if key not in hanging_sizes:
                    hanging_sizes[key] = sum(_backend.census_of_subset(bits, label))
                size = hanging_sizes[key]
            vertices.append(v)
            label_sizes.append(s)
            sizes.append(size)
            inside.append(enters)
            next_index += size
        nodes[slot] = SkeletonNode(index, depth, label_size, chosen, next_index - index,
                                   tuple(vertices), tuple(label_sizes), tuple(sizes),
                                   tuple(inside))
        return next_index - index

    walk(0, 0, g.n, None, (
        (v, bits, ids, (1 << len(ids)) - 1)
        for v, ids, bits in _local_graphs(g, peel.ordering)
    ))
    return Skeleton(nodes=tuple(nodes), height=max(node.depth for node in nodes))


def audit_skeleton_size(skeleton: Skeleton, t: int, n: int) -> list[AuditCheck]:
    """Height and node-count bounds for the skeleton."""
    # size <= 2^(44.1 t) * n, exactly: size^10 <= 2^(441 t) * n^10
    size = skeleton.size
    return [
        AuditCheck(
            name="skeleton-height",
            lhs=skeleton.height,
            rhs=_real(_height_bound, t),
            holds=_at_most(skeleton.height, _height_bound, t),
            anchor="height <= 1 + ln(10 t^2) / (2 ln(10/9))",
        ),
        AuditCheck(
            name="skeleton-size",
            lhs=size,
            rhs=_CONTEXT.multiply(_real(_size_factor, t), n),
            holds=size**10 <= 2 ** (441 * t) * n**10,
            anchor="skeleton size <= 2^(44.1 t) * n",
        ),
    ]


def _window_start(node: SkeletonNode) -> int | None:
    """Position of the first child keeping >= 9/10 of the label; the
    chosen vertices from there on form the node's dense window."""
    for pos, size in enumerate(node.child_label_sizes):
        if 10 * size >= 9 * node.label_size:
            return pos
    return None


def _truncation_depth(t: int, m: int) -> int:
    """floor(2 (t^2/m) ln(m/t)) for m >= 5t: the floor of the 50-digit
    value, confirmed exactly as depth <= value < depth + 1."""
    depth = int(_real(_window_depth, t, m))
    while not _at_most(depth, _window_depth, t, m):
        depth -= 1
    while _at_most(depth + 1, _window_depth, t, m):
        depth += 1
    return depth


def _largest_label_at_depth(bits, depth: int) -> int:
    """Largest label size among the clique-tree nodes at the given depth of
    the graph with rows `bits`, 0 when there are none.

    Walks the tree first child first, down to that depth only.  Labels lose
    a vertex per level, so a node's child loop stops once its candidates
    left, less the levels to go, cannot beat the best label found."""
    best = 0

    def visit(label, to_go):
        nonlocal best
        if to_go == 0:
            best = max(best, label.bit_count())
            return
        while label.bit_count() - to_go > best:
            v = min_degree_in(bits, label)
            visit(label & bits[v], to_go - 1)
            label ^= 1 << v

    visit((1 << len(bits)) - 1, depth)
    return best


def audit_dense_window(
    bits,
    t: int,
    *,
    window_count: int,
    assume_subdivision_free: bool = False,
    oracle_limit: int = DEFAULT_SUBDIVISION_LIMIT,
) -> list[AuditCheck]:
    """The four dense-window conditions for a window with bit rows `bits`.

    window_count is the window's clique count.  The truncation walk is
    skipped when the window has more cliques than DEFAULT_NODE_CAP.  On a
    failed condition with assume_subdivision_free set, the failure is
    annotated as a contrapositive subdivision claim and, when the window
    fits the oracle, confirmed by extracting a witness from a Graph of
    the rows, the one place a window leaves its rows.
    """
    _require_int("t", t)
    m = len(bits)
    checks = []
    min_deg = min((row.bit_count() for row in bits), default=0)
    checks.append(
        AuditCheck(
            name="window-min-degree",
            lhs=min_deg,
            rhs=Fraction(9 * m, 10),
            holds=10 * min_deg >= 9 * m,
            anchor="window min degree >= (9/10) |X|",
        )
    )
    size_bound = max(Fraction(20 * t, 11), Fraction(t * t, 5))
    checks.append(
        AuditCheck(
            name="window-size",
            lhs=m,
            rhs=size_bound,
            holds=Fraction(m) <= size_bound,
            anchor="window size <= max(20t/11, t^2/5)",
        )
    )
    checks.append(
        AuditCheck(
            name="window-clique-count",
            lhs=window_count,
            rhs=2 ** (5 * t),
            holds=window_count <= 2 ** (5 * t),
            anchor="window clique count <= 2^(5t)",
        )
    )
    if m >= 5 * t:
        depth = _truncation_depth(t, m)
        # the window tree has window_count nodes; past the cap it is not walked
        if window_count > DEFAULT_NODE_CAP:
            checks.append(
                AuditCheck(
                    name="window-truncation",
                    lhs=0,
                    rhs=Fraction(20 * t, 11),
                    holds=True,
                    anchor="labels at the truncation depth have size < 20t/11",
                    note="window tree exceeds node cap; truncation skipped",
                )
            )
        else:
            worst = _largest_label_at_depth(bits, depth)
            checks.append(
                AuditCheck(
                    name="window-truncation",
                    lhs=worst,
                    rhs=Fraction(20 * t, 11),
                    holds=11 * worst < 20 * t,
                    anchor="labels at depth floor(2 (t^2/m) ln(m/t)) have "
                    "size < 20t/11",
                )
            )
    failed = [check for check in checks if not check.holds]
    if failed and assume_subdivision_free:
        for check in failed:
            check.note = f"input contains a K_{t}-subdivision (contrapositive)"
        if m <= oracle_limit:
            g = Graph(m, _row_edges(bits))
            witness = None
            try:
                witness = extract_subdivision_dense(g, t)
            except ExtractionError:
                witness = has_subdivision(g, t, oracle_limit=oracle_limit)
            confirmed = witness is not None and verify_witness(g, witness, t)
            checks.append(
                AuditCheck(
                    name="window-oracle",
                    lhs=int(confirmed),
                    rhs=1,
                    holds=confirmed,
                    anchor="a failed window condition forces a subdivision "
                    "in the window",
                )
            )
    return checks


def audit_boundary_cases(skeleton: Skeleton, cfg: AuditConfig, g: Graph):
    """Classify each boundary node and bound each subtree hanging from it.

    The cap 2^(sqrt(10) t) bounds the subtree of a small_label node,
    label size at most sqrt(10) t, and so every subtree it hangs.  It
    also bounds every excluded child outside a dense window: those
    before the window's start, or all of them at a small_children node,
    whose label is large but which has no window.  A window's children
    are bounded by the window's clique count.  The cap-bounded sizes
    aggregate into two checks; each dense window gets its own check
    group.  Returns the cases, the checks and M, the largest bound on a
    hanging subtree: the cap when some subtree is cap-bounded and no
    window count exceeds the cap, else max(1, largest window count).
    """
    t = cfg.t
    cases: list[BoundaryCase] = []
    checks: list[AuditCheck] = []
    largest_window = 0
    # the largest cap-bounded sizes; a subtree has a node, so 0 means none
    small_label_max = 0
    small_child_max = 0
    # the checks of a window, named "window-...": t and the flags are the
    # same for the whole call, and the rows fix the clique count, so
    # windows with equal rows get equal checks and each rows tuple is
    # audited once. The rows are built once per vertex set.
    window_checks: dict[tuple[int, ...], list[AuditCheck]] = {}
    window_rows: dict[tuple[int, ...], tuple[int, ...]] = {}

    for node in skeleton.boundary_nodes():
        label_size = node.label_size
        if label_size * label_size <= 10 * t * t:
            small_label_max = max(small_label_max, node.size)
            cases.append(BoundaryCase(node.index, label_size, "small_label"))
            continue
        start = _window_start(node)
        # the cap bounds an excluded child outside the window, the
        # window's count one inside it
        for pos in node.excluded():
            if start is None or pos < start:
                small_child_max = max(small_child_max, node.child_sizes[pos])
        if start is None:
            cases.append(BoundaryCase(node.index, label_size, "small_children"))
            continue
        window = node.child_vertices[start:]
        # the tree of G[window] is this node's child loop from `start` on
        window_count = 1 + sum(node.child_sizes[start:])
        largest_window = max(largest_window, window_count)
        cases.append(
            BoundaryCase(
                node.index,
                label_size,
                "dense_window",
                window_size=len(window),
                window_tree_size=window_count,
            )
        )
        ids = tuple(sorted(window))
        key = window_rows.get(ids)
        if key is None:
            key = window_rows[ids] = tuple(rows(g, window))
        if key not in window_checks:
            window_checks[key] = audit_dense_window(
                key,
                t,
                window_count=window_count,
                assume_subdivision_free=cfg.assume_subdivision_free,
                oracle_limit=cfg.oracle_limit,
            )
        label = f"window@{node.index}"
        checks.extend(
            AuditCheck(label + c.name.removeprefix("window"), c.lhs, c.rhs, c.holds,
                       c.anchor, c.note)
            for c in window_checks[key]
        )

    cap = _real(_cap, t)
    checks[:0] = [
        AuditCheck(
            name="boundary-small-subtree",
            lhs=small_label_max,
            rhs=cap,
            holds=_at_most(small_label_max, _cap, t),
            anchor="a boundary node with label size <= sqrt(10) t hangs "
            "at most 2^(sqrt(10) t) nodes",
        ),
        AuditCheck(
            name="boundary-excluded-child",
            lhs=small_child_max,
            rhs=cap,
            holds=_at_most(small_child_max, _cap, t),
            anchor="an excluded child below the small threshold hangs "
            "at most 2^(sqrt(10) t) nodes",
        ),
    ]
    hanging = max(1, largest_window)
    if (small_label_max or small_child_max) and _at_most(hanging, _cap, t):
        return cases, checks, cap
    return cases, checks, hanging


def audit_total(
    tree_size: int,
    skeleton_size: int,
    hanging_count: int,
    cfg: AuditConfig,
    n: int,
    hanging: int | Decimal,
) -> list[AuditCheck]:
    """The bound through the skeleton, then the headline bound.

    The tree is the skeleton plus hanging_count hanging subtrees, each
    bounded by hanging, the largest hanging-subtree bound M that
    audit_boundary_cases returns: an int, or the value of the cap
    2^(sqrt(10) t), against which the check is decided exactly.
    """
    t = cfg.t
    if isinstance(hanging, int):
        rhs = skeleton_size + hanging_count * hanging
        holds = tree_size <= rhs
    else:
        # M is the cap only where a boundary node hangs a subtree: hanging_count >= 1
        rhs = _CONTEXT.fma(hanging_count, hanging, skeleton_size)
        holds = _at_most(Fraction(tree_size - skeleton_size, hanging_count), _cap, t)
    return [
        AuditCheck(
            name="total-product",
            lhs=tree_size,
            rhs=rhs,
            holds=holds,
            anchor="tree size <= skeleton size + hanging subtrees * "
            "max hanging subtree bound",
        ),
        _headline_check(tree_size, t, n),
    ]


def _headline_check(count: int, t: int, n: int) -> AuditCheck:
    rhs = 2 ** (50 * t) * n
    return AuditCheck(
        name="total-headline",
        lhs=count,
        rhs=rhs,
        holds=count <= rhs,
        anchor="clique count <= 2^(50t) * n",
    )


def bound_degenerate(d: int, n: int) -> int:
    """Clique-count ceiling 2^d (n - d + 1) for d-degenerate graphs."""
    _require_int("d", d)
    _require_int("n", n)
    if d < 0:
        raise ValueError("degeneracy must be non-negative")
    if n < d:
        raise ValueError("need n >= d")
    return 2**d * (n - d + 1)


def check_binom_sum_inequality(m: int, k) -> AuditCheck:
    """sum_{i<=floor(k)} C(m, i) <= (e m / k)^k for 0 < k <= m."""
    if m < 1:
        raise ValueError("need m >= 1")
    k = _as_fraction(k)
    if not 0 < k <= m:
        raise ValueError("need 0 < k <= m")
    lhs = sum(comb(m, i) for i in range(floor(k) + 1))
    return AuditCheck(
        name="binomial-prefix-sum",
        lhs=lhs,
        rhs=_real(_binom_bound, m, k),
        holds=_at_most(lhs, _binom_bound, m, k),
        anchor="sum_{i=0}^{floor(k)} C(m, i) <= (e m / k)^k",
    )


def audit_graph(g: Graph, cfg: AuditConfig) -> AuditReport:
    """Run the full audit pipeline on one graph."""
    t = cfg.t
    report = AuditReport(config=cfg, n=g.n, edge_count=g.edge_count)
    peel = degeneracy(g)
    d = peel.d

    if t <= 3 or g.n == 0:
        # no K_t-subdivision with t <= 3 forces a forest (or less); on the
        # empty graph every n-scaled bound is vacuous, the only clique the
        # empty one
        count = count_cliques(g)
        rhs = 2 * g.n if g.n else 1
        report.checks.append(
            AuditCheck(
                name="forest-count" if t <= 3 else "empty-graph",
                lhs=count,
                rhs=rhs,
                holds=count <= rhs,
                anchor="forests have at most 2n cliques" if g.n
                else "the empty graph has exactly the empty clique",
            )
        )
        if g.n:
            report.checks.append(_headline_check(count, t, g.n))
        report.checks.append(_degenerate_check(count, d, g.n))
        report.notes.append(
            "t <= 3 short-circuit: a subdivision-free input is a forest" if t <= 3
            else "empty vertex set: n-scaled bounds skipped"
        )
        return report

    if not cfg.assume_subdivision_free:
        if elimination_certificate(g, t, peel):
            report.notes.append(
                f"elimination width <= {t - 2}: no K_{t}-subdivision present"
            )
        elif g.n <= cfg.oracle_limit:
            witness = has_subdivision(g, t, oracle_limit=cfg.oracle_limit)
            if witness is None:
                report.notes.append(
                    f"oracle verified: no K_{t}-subdivision present"
                )
            else:
                report.notes.append(
                    f"input contains a K_{t}-subdivision; the audited bounds "
                    "make no promise here"
                )
        else:
            report.notes.append(
                "subdivision-freeness neither verified (graph exceeds the "
                "oracle limit) nor asserted"
            )

    report.checks.append(
        AuditCheck(
            name="degeneracy-cap",
            lhs=d,
            rhs=10 * t * t,
            holds=d <= 10 * t * t,
            anchor="subdivision-free graphs are 10 t^2 degenerate",
        )
    )

    skeleton = build_skeleton(g, t, peel)
    count = skeleton.tree_size
    report.checks.extend(audit_skeleton_size(skeleton, t, g.n))
    cases, checks, hanging = audit_boundary_cases(skeleton, cfg, g)
    report.boundary_cases.extend(cases)
    report.checks.extend(checks)
    report.checks.extend(
        audit_total(
            count,
            skeleton.size,
            skeleton.hanging_count,
            cfg,
            g.n,
            hanging,
        )
    )
    report.checks.append(_degenerate_check(count, d, g.n))
    return report


def _degenerate_check(count: int, d: int, n: int) -> AuditCheck:
    bound = bound_degenerate(d, n)
    return AuditCheck(
        name="degenerate-bound",
        lhs=count,
        rhs=bound,
        holds=count <= bound,
        anchor="clique count <= 2^d (n - d + 1) at d = degeneracy",
    )
