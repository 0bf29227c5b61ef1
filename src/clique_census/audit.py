"""Mechanical audits of the clique-count bound pipeline on concrete graphs.

The headline claim under audit: a graph with no K_t-subdivision has at
most 2^(50t) * n cliques.  The proof factors through a skeleton subtree
of the clique search tree, a case split over the skeleton's boundary
nodes, and a dense-window analysis; each step yields a concrete
inequality that can be re-checked exactly on a given input.  Checks use
exact integer or rational arithmetic wherever both sides are rational,
and 50-digit floating point where a side is transcendental.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, e, log, log2, sqrt

from mpmath import mp

from .errors import ExtractionError
from . import backend as _backend
from .graph import DegeneracyResult, Graph, degeneracy, induced_subgraph, rows
from .subdivision import (
    DEFAULT_SUBDIVISION_LIMIT,
    extract_subdivision_dense,
    has_subdivision,
    verify_witness,
)
from .tree import (
    DEFAULT_NODE_CAP,
    _label_children,
    _root_children,
    count_cliques,
)
from .tree import build_tree  # noqa: F401  unused here; traced by this name

# perfbench/layers.py times the audit by replacing names in this module
# (degeneracy, induced_subgraph, count_cliques, build_skeleton,
# audit_boundary_cases, audit_dense_window, audit_skeleton_size,
# audit_total, the subdivision oracles and build_tree), so the audit calls
# each of them through its module-level name.

AUDIT_DPS = 50


@dataclass(frozen=True)
class AuditConfig:
    """Audit parameters; t below 4 short-circuits to the forest case."""

    t: int
    assume_subdivision_free: bool = False
    node_cap: int = DEFAULT_NODE_CAP
    oracle_limit: int = DEFAULT_SUBDIVISION_LIMIT

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("audit needs t >= 1")
        if self.node_cap < 1:
            raise ValueError("node_cap must be positive")

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "assume_subdivision_free": self.assume_subdivision_free,
            "node_cap": self.node_cap,
            "oracle_limit": self.oracle_limit,
        }


@dataclass
class AuditCheck:
    """One audited inequality: lhs <= rhs (or < rhs where noted)."""

    name: str
    lhs: object
    rhs: object
    holds: bool
    anchor: str
    note: str = ""

    @property
    def margin(self):
        with mp.workdps(AUDIT_DPS):
            if isinstance(self.lhs, int) and isinstance(self.rhs, (int, Fraction)):
                return self.rhs - self.lhs
            return _to_mpf(self.rhs) - _to_mpf(self.lhs)

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

    def child_indices(self) -> list[int]:
        """Preorder indices of the children: each follows its earlier
        siblings' subtrees."""
        out = []
        index = self.index + 1
        for size in self.child_sizes:
            out.append(index)
            index += size
        return out

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
    def included(self) -> frozenset[int]:
        return frozenset(node.index for node in self.nodes)

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


def _to_mpf(value):
    if isinstance(value, Fraction):
        return mp.mpf(value.numerator) / value.denominator
    return mp.mpf(value)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    with mp.workdps(AUDIT_DPS):
        return mp.nstr(_to_mpf(value), 15)


def build_skeleton(g: Graph, t: int,
                   peel: DegeneracyResult | None = None) -> Skeleton:
    """Walk the skeleton of g's clique search tree top-down.

    Root children come from the min-degree peel (pass `peel` when g is
    already peeled).  Below root child v the walk runs on the rows of
    G[v's label], relabelled in order, and maps ids back, as census and
    enumeration do.  Each child outside the skeleton roots the tree of
    G[its label], so its subtree is sized by one kernel census of that
    label on the same rows and never walked.
    """
    if t < 1:
        raise ValueError("skeleton rule needs t >= 1")
    nodes: list[SkeletonNode | None] = []

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
                size = sum(_backend.census_of_subset(bits, label))
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
        (v, rows(g, ids), ids, (1 << len(ids)) - 1)
        for v, ids in _root_children(g, peel)
    ))
    return Skeleton(nodes=tuple(nodes), height=max(node.depth for node in nodes))


def audit_skeleton_size(skeleton: Skeleton, t: int, n: int) -> list[AuditCheck]:
    """Height and node-count bounds for the skeleton."""
    checks = []
    with mp.workdps(AUDIT_DPS):
        height_bound = 1 + mp.log(10 * t * t) / (2 * mp.log(mp.mpf(10) / 9))
        checks.append(
            AuditCheck(
                name="skeleton-height",
                lhs=skeleton.height,
                rhs=height_bound,
                holds=mp.mpf(skeleton.height) <= height_bound,
                anchor="height <= 1 + ln(10 t^2) / (2 ln(10/9))",
            )
        )
    # size <= 2^(44.1 t) * n, exactly: size^10 <= 2^(441 t) * n^10
    size = skeleton.size
    holds = size**10 <= 2 ** (441 * t) * n**10
    with mp.workdps(AUDIT_DPS):
        rhs = mp.power(2, mp.mpf(441 * t) / 10) * n
    checks.append(
        AuditCheck(
            name="skeleton-size",
            lhs=size,
            rhs=rhs,
            holds=holds,
            anchor="skeleton size <= 2^(44.1 t) * n",
        )
    )
    return checks


def _sqrt10t_pow(t: int):
    with mp.workdps(AUDIT_DPS):
        return mp.power(2, mp.sqrt(10) * t)


def _window_start(node: SkeletonNode) -> int | None:
    """Position of the first child keeping >= 9/10 of the label; the
    chosen vertices from there on form the node's dense window."""
    for pos, size in enumerate(node.child_label_sizes):
        if 10 * size >= 9 * node.label_size:
            return pos
    return None


def _largest_label_at_depth(g: Graph, depth: int) -> int:
    """Largest label size among g's clique-tree nodes at the given depth.

    Walks the tree down to that depth only."""
    bits = rows(g)
    worst = 0
    stack = [(g.full_mask(), 0)]
    while stack:
        label, d = stack.pop()
        if d == depth:
            worst = max(worst, label.bit_count())
            continue
        stack.extend((child, d + 1) for _, child in _label_children(bits, label))
    return worst


def audit_dense_window(
    g: Graph,
    t: int,
    *,
    assume_subdivision_free: bool = False,
    oracle_limit: int = DEFAULT_SUBDIVISION_LIMIT,
    node_cap: int = DEFAULT_NODE_CAP,
    label: str = "window",
    window_count: int | None = None,
) -> list[AuditCheck]:
    """The four dense-window conditions for a window graph.

    window_count is the window's clique count when the caller already has
    it; None counts it here.  On a failed condition with
    assume_subdivision_free set, the failure is annotated as a
    contrapositive subdivision claim and, when the window fits the
    oracle, confirmed by extracting a witness.
    """
    m = g.n
    checks = []
    min_deg = min((len(g.adj[v]) for v in range(m)), default=0)
    checks.append(
        AuditCheck(
            name=f"{label}-min-degree",
            lhs=min_deg,
            rhs=Fraction(9 * m, 10),
            holds=10 * min_deg >= 9 * m,
            anchor="window min degree >= (9/10) |X|",
        )
    )
    size_bound = max(Fraction(20 * t, 11), Fraction(t * t, 5))
    checks.append(
        AuditCheck(
            name=f"{label}-size",
            lhs=m,
            rhs=size_bound,
            holds=Fraction(m) <= size_bound,
            anchor="window size <= max(20t/11, t^2/5)",
        )
    )
    if window_count is None:
        window_count = count_cliques(g)
    checks.append(
        AuditCheck(
            name=f"{label}-clique-count",
            lhs=window_count,
            rhs=2 ** (5 * t),
            holds=window_count <= 2 ** (5 * t),
            anchor="window clique count <= 2^(5t)",
        )
    )
    if m >= 5 * t:
        with mp.workdps(AUDIT_DPS):
            depth = int(mp.floor(2 * mp.mpf(t * t) / m * mp.log(mp.mpf(m) / t)))
        # the window tree has window_count nodes; past the cap it is not walked
        if window_count > node_cap:
            checks.append(
                AuditCheck(
                    name=f"{label}-truncation",
                    lhs=0,
                    rhs=Fraction(20 * t, 11),
                    holds=True,
                    anchor="labels at the truncation depth have size < 20t/11",
                    note="window tree exceeds node cap; truncation skipped",
                )
            )
        else:
            worst = _largest_label_at_depth(g, depth)
            checks.append(
                AuditCheck(
                    name=f"{label}-truncation",
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
            witness = None
            try:
                witness = extract_subdivision_dense(g, t)
            except ExtractionError:
                witness = has_subdivision(g, t, oracle_limit=oracle_limit)
            confirmed = witness is not None and verify_witness(g, witness, t)
            checks.append(
                AuditCheck(
                    name=f"{label}-oracle",
                    lhs=int(confirmed),
                    rhs=1,
                    holds=confirmed,
                    anchor="a failed window condition forces a subdivision "
                    "in the window",
                )
            )
    return checks


def audit_boundary_cases(skeleton: Skeleton, cfg: AuditConfig, g: Graph):
    """Classify each boundary node and check its hanging-size bound.

    Small-label and small-children cases aggregate into two checks over
    all such nodes; each dense window gets its own check group.  The
    small_children case covers boundary nodes whose label is large but
    whose children all fell below both membership thresholds.
    """
    t = cfg.t
    cases: list[BoundaryCase] = []
    checks: list[AuditCheck] = []
    window_tree_sizes: list[int] = []
    small_label_max = 0
    small_child_max = 0
    have_fallback_nodes = False

    for node in skeleton.boundary_nodes():
        label_size = node.label_size
        if label_size * label_size <= 10 * t * t:
            have_fallback_nodes = True
            small_label_max = max(small_label_max, node.size)
            cases.append(
                BoundaryCase(node.index, label_size, "small_label")
            )
            continue
        start = _window_start(node)
        if start is None:
            have_fallback_nodes = True
            for pos in node.excluded():
                small_child_max = max(small_child_max, node.child_sizes[pos])
            cases.append(
                BoundaryCase(node.index, label_size, "small_children")
            )
            continue
        window = node.child_vertices[start:]
        window_graph, _ = induced_subgraph(g, window)
        window_count = count_cliques(window_graph)
        window_tree_sizes.append(window_count)
        cases.append(
            BoundaryCase(
                node.index,
                label_size,
                "dense_window",
                window_size=len(window),
                window_tree_size=window_count,
            )
        )
        checks.extend(
            audit_dense_window(
                window_graph,
                t,
                assume_subdivision_free=cfg.assume_subdivision_free,
                oracle_limit=cfg.oracle_limit,
                node_cap=cfg.node_cap,
                label=f"window@{node.index}",
                window_count=window_count,
            )
        )
        # children preceding the window fell below the small threshold
        for pos in node.excluded():
            if pos < start:
                small_child_max = max(small_child_max, node.child_sizes[pos])

    cap = _sqrt10t_pow(t)
    with mp.workdps(AUDIT_DPS):
        checks.insert(
            0,
            AuditCheck(
                name="boundary-small-subtree",
                lhs=small_label_max,
                rhs=cap,
                holds=mp.mpf(small_label_max) <= cap,
                anchor="a boundary node with label size <= sqrt(10) t hangs "
                "at most 2^(sqrt(10) t) nodes",
            ),
        )
        checks.insert(
            1,
            AuditCheck(
                name="boundary-excluded-child",
                lhs=small_child_max,
                rhs=cap,
                holds=mp.mpf(small_child_max) <= cap,
                anchor="an excluded child below the small threshold hangs "
                "at most 2^(sqrt(10) t) nodes",
            ),
        )
    return cases, checks, window_tree_sizes, have_fallback_nodes


def audit_total(
    tree_size: int,
    skeleton_size: int,
    hanging_count: int,
    cfg: AuditConfig,
    n: int,
    window_tree_sizes: list[int],
    have_fallback_nodes: bool,
) -> list[AuditCheck]:
    """The bound through the skeleton, then the headline bound.

    The tree is the skeleton plus hanging_count hanging subtrees, each
    bounded by the largest hanging-subtree bound M.
    """
    t = cfg.t
    checks = []
    with mp.workdps(AUDIT_DPS):
        hanging = mp.mpf(1)
        for size in window_tree_sizes:
            hanging = max(hanging, mp.mpf(size))
        if have_fallback_nodes:
            hanging = max(hanging, _sqrt10t_pow(t))
        rhs = skeleton_size + hanging_count * hanging
        checks.append(
            AuditCheck(
                name="total-product",
                lhs=tree_size,
                rhs=rhs,
                holds=mp.mpf(tree_size) <= rhs,
                anchor="tree size <= skeleton size + hanging subtrees * "
                "max hanging subtree bound",
            )
        )
    checks.append(_headline_check(tree_size, t, n))
    return checks


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
    if d < 0:
        raise ValueError("degeneracy must be non-negative")
    if n < d:
        raise ValueError("need n >= d")
    return 2**d * (n - d + 1)


def check_binom_sum_inequality(m: int, k) -> AuditCheck:
    """sum_{i<=floor(k)} C(m, i) <= (e m / k)^k for 0 < k <= m."""
    if m < 1:
        raise ValueError("need m >= 1")
    with mp.workdps(AUDIT_DPS):
        if isinstance(k, Fraction):
            kf = mp.mpf(k.numerator) / k.denominator
        else:
            kf = mp.mpf(k)
        if not 0 < kf <= m:
            raise ValueError("need 0 < k <= m")
        lhs = sum(comb(m, i) for i in range(int(mp.floor(kf)) + 1))
        rhs = mp.power(mp.e * m / kf, kf)
        holds = mp.mpf(lhs) <= rhs
    return AuditCheck(
        name="binomial-prefix-sum",
        lhs=lhs,
        rhs=rhs,
        holds=holds,
        anchor="sum_{i=0}^{floor(k)} C(m, i) <= (e m / k)^k",
    )


def audit_graph(g: Graph, cfg: AuditConfig) -> AuditReport:
    """Run the full audit pipeline on one graph."""
    t = cfg.t
    report = AuditReport(config=cfg, n=g.n, edge_count=g.edge_count)
    peel = degeneracy(g)
    d = peel.d

    if t <= 3:
        count = count_cliques(g)
        # no K_t-subdivision with t <= 3 forces a forest (or less)
        if g.n == 0:
            report.checks.append(
                AuditCheck(
                    name="forest-count",
                    lhs=count,
                    rhs=1,
                    holds=count == 1,
                    anchor="the empty graph has exactly the empty clique",
                )
            )
        else:
            report.checks.append(
                AuditCheck(
                    name="forest-count",
                    lhs=count,
                    rhs=2 * g.n,
                    holds=count <= 2 * g.n,
                    anchor="forests have at most 2n cliques",
                )
            )
            report.checks.append(_headline_check(count, t, g.n))
        report.checks.append(_degenerate_check(count, d, g.n))
        report.notes.append(
            "t <= 3 short-circuit: a subdivision-free input is a forest"
        )
        return report

    if g.n == 0:
        # every n-scaled bound is vacuous; the only clique is the empty one
        count = count_cliques(g)
        report.checks.append(
            AuditCheck(
                name="empty-graph",
                lhs=count,
                rhs=1,
                holds=count == 1,
                anchor="the empty graph has exactly the empty clique",
            )
        )
        report.checks.append(_degenerate_check(count, d, g.n))
        report.notes.append("empty vertex set: n-scaled bounds skipped")
        return report

    if not cfg.assume_subdivision_free:
        if g.n <= cfg.oracle_limit:
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
    if count > cfg.node_cap:
        report.notes.append(
            f"clique tree exceeds node cap {cfg.node_cap} "
            f"({count} nodes); structural audits skipped"
        )
        report.checks.append(_headline_check(count, t, g.n))
        report.checks.append(_degenerate_check(count, d, g.n))
        return report

    report.checks.extend(audit_skeleton_size(skeleton, t, g.n))
    cases, checks, window_sizes, have_fallback = audit_boundary_cases(
        skeleton, cfg, g
    )
    report.boundary_cases.extend(cases)
    report.checks.extend(checks)
    report.checks.extend(
        audit_total(
            count,
            skeleton.size,
            skeleton.hanging_count,
            cfg,
            g.n,
            window_sizes,
            have_fallback,
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


@dataclass(frozen=True)
class RefinedExponentsReport:
    """Exponent accounting for generalized thinning parameters.

    The dense exponent bounds log2(cliques of a window)/t over window
    sizes gamma*t; its asymptotic variant takes the supremum over all
    gamma >= 1.  The skeleton exponent is the finite-t analogue of the
    skeleton size bound with shrink factor 1-alpha and the 10t^2 label
    cap kept.  total = skeleton + max(dense, sqrt(10)) at the given t;
    the sqrt(10) floor is the exponent of the 2^(sqrt(10) t) subtree
    bound hanging at small-label boundary nodes.
    """

    alpha: Fraction
    beta: Fraction
    t: int
    slack: Fraction
    zeta_min: Fraction
    gamma_max: Fraction
    window_size_bound: Fraction
    dense_exponent: float
    dense_exponent_asymptotic: float
    skeleton_exponent: float
    total_exponent: float

    def to_json(self) -> dict:
        return {
            "alpha": _fmt(self.alpha),
            "beta": _fmt(self.beta),
            "t": self.t,
            "slack": _fmt(self.slack),
            "zeta_min": _fmt(self.zeta_min),
            "gamma_max": _fmt(self.gamma_max),
            "window_size_bound": _fmt(self.window_size_bound),
            "dense_exponent": self.dense_exponent,
            "dense_exponent_asymptotic": self.dense_exponent_asymptotic,
            "skeleton_exponent": self.skeleton_exponent,
            "total_exponent": self.total_exponent,
        }


def _coerce_fraction(value, name: str) -> Fraction:
    if isinstance(value, float):
        raise TypeError(f"{name} must be an exact rational, not a float")
    return Fraction(value)


def _window_exponent(gamma: float, beta_f: float, zeta_min_f: float) -> float:
    """Per-t clique exponent of one window size, minimized over tactics.

    Tactics: all subsets (gamma); all subsets of size < t (log2(e*gamma),
    valid once gamma >= 1); truncate at depth t*u/(beta*gamma) with
    u = ln(gamma/zeta) and charge 2^(zeta t) per hanging subtree,
    minimized over the free threshold zeta >= zeta_min.
    """
    best = gamma
    if gamma >= 1.0:
        best = min(best, log2(e * gamma))
    if gamma > zeta_min_f:
        steps = 160
        ratio = gamma / zeta_min_f
        for j in range(steps):
            zeta = zeta_min_f * ratio ** (j / steps)
            u = log(gamma / zeta)
            if u <= 0 or u > beta_f * gamma * gamma:
                continue
            depth_part = (u / (beta_f * gamma)) * log2(
                e * beta_f * gamma * gamma / u
            )
            hang_part = min(zeta, log2(e * zeta))
            best = min(best, depth_part + hang_part)
    return best


def _max_window_exponent(
    beta_f: float, zeta_min_f: float, gamma_hi: float
) -> float:
    if gamma_hi <= 1.0:
        return _window_exponent(gamma_hi, beta_f, zeta_min_f)
    coarse = 600
    ratio = gamma_hi
    best = 0.0
    best_gamma = 1.0
    for j in range(coarse + 1):
        gamma = ratio ** (j / coarse)
        value = _window_exponent(gamma, beta_f, zeta_min_f)
        if value > best:
            best = value
            best_gamma = gamma
    lo = max(1.0, best_gamma / ratio ** (1.0 / coarse))
    hi = min(gamma_hi, best_gamma * ratio ** (1.0 / coarse))
    for j in range(201):
        gamma = lo + (hi - lo) * j / 200
        best = max(best, _window_exponent(gamma, beta_f, zeta_min_f))
    return best


def refined_exponents(alpha, beta, t: int) -> RefinedExponentsReport:
    """Re-run the exponent bookkeeping at generalized (alpha, beta).

    Requires 0 < alpha, 0 < beta, 1 - 2*alpha - beta/2 > 0, t >= 4.
    The derivation behind the three tactics lives in
    docs/refined_bounds.md; the truncation depth is re-optimized
    numerically on a grid, as our own instantiation.
    """
    alpha = _coerce_fraction(alpha, "alpha")
    beta = _coerce_fraction(beta, "beta")
    if t < 4:
        raise ValueError("refined exponents need t >= 4")
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    slack = 1 - 2 * alpha - Fraction(beta, 2)
    if slack <= 0:
        raise ValueError("need 1 - 2*alpha - beta/2 > 0")
    zeta_min = 1 / slack
    gamma_max = max(zeta_min, (alpha / beta) * t)
    window_size_bound = gamma_max * t

    beta_f = float(beta)
    zeta_min_f = float(zeta_min)
    dense = _max_window_exponent(beta_f, zeta_min_f, float(gamma_max))
    dense_asym = _max_window_exponent(beta_f, zeta_min_f, 1.0e4)
    skeleton = (log(10 * t * t) ** 2) / (
        2 * t * log(1 / (1 - float(alpha))) * log(2)
    )
    return RefinedExponentsReport(
        alpha=alpha,
        beta=beta,
        t=t,
        slack=slack,
        zeta_min=zeta_min,
        gamma_max=gamma_max,
        window_size_bound=window_size_bound,
        dense_exponent=dense,
        dense_exponent_asymptotic=dense_asym,
        skeleton_exponent=skeleton,
        total_exponent=skeleton + max(dense, sqrt(10.0)),
    )
