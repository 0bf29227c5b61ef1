"""End-to-end acceptance suite.

Each test pins one externally visible guarantee of the package: exact
closed-form counts on the extremal families, exact agreement with an
independent brute-force oracle on a 200-graph random corpus, structural
invariants of the search tree, soundness of the containment oracles and
the constructive extraction, the closed-form bound calculators, and a
green audit pipeline on subdivision-free inputs.  Every test also
enforces a wall-clock budget; the budgets are part of the contract.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb, log2

from clique_census import (
    AuditConfig,
    Graph,
    audit_graph,
    bound_degenerate,
    build_tree,
    census,
    check_binom_sum_inequality,
    complete,
    complete_multipartite_222,
    count_cliques,
    degeneracy,
    extract_subdivision_dense,
    has_minor,
    has_subdivision,
    induced_subgraph,
    lower_bound_constant,
    path_power,
    petersen,
    verify_witness,
)

from brute import (
    RootedSubtree,
    brute_census,
    census_counts,
    find_minor_alt,
    is_valid_minor_model,
    subtree_at,
    subtree_bound_check,
    trees_isomorphic,
)
from strategies import corpus


def k_minus_matching(n):
    return Graph(
        n,
        [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not (u % 2 == 0 and v == u + 1)
        ],
    )


def subdivided_complete(t):
    edges = []
    n = t
    for u, v in combinations(range(t), 2):
        edges.append((u, n))
        edges.append((v, n))
        n += 1
    return Graph(n, edges)


def test_path_power_counts_closed_form():
    start = time.perf_counter()
    for t, n in ((4, 10), (4, 30), (5, 20), (6, 12), (7, 15)):
        k = t - 2
        assert count_cliques(path_power(n, k)) == 2**k * (n - t + 3)
    assert time.perf_counter() - start < 5.0


def test_path_power_census_is_linear_in_n():
    # a j-clique of the k-th path power is a smallest vertex i plus j - 1
    # of the next min(k, n - 1 - i) vertices; the root split keeps this
    # census linear in n where an O(n^2) root scan would not finish in time
    start = time.perf_counter()
    n, k = 10000, 6
    ours = census(path_power(n, k))
    expected = [1] + [
        sum(comb(min(k, n - 1 - i), j - 1) for i in range(n)) for j in range(1, k + 2)
    ]
    assert list(ours.counts) == expected
    assert ours.total == 2**k * (n - k + 1)
    assert time.perf_counter() - start < 20.0


def test_multipartite_counts_closed_form():
    start = time.perf_counter()
    for k in range(1, 7):
        assert count_cliques(complete_multipartite_222(k)) == 3**k
    assert time.perf_counter() - start < 1.0


def test_census_matches_brute_force_oracle():
    start = time.perf_counter()
    for g in corpus():
        ours = census(g)
        theirs = brute_census(g)
        assert list(ours.counts) == theirs
        assert ours.total == sum(theirs)
    assert time.perf_counter() - start < 60.0


def test_search_tree_structural_invariants():
    start = time.perf_counter()
    rng = random.Random(42)
    for g in corpus():
        tree = build_tree(g)
        counts = census(g)

        # per-size counts are the per-depth node counts, and they sum to
        # the node total
        assert census_counts(tree) == list(counts.counts)
        assert counts.total == tree.node_count

        # a sampled node's subtree is the search tree of its label graph
        for node in rng.sample(tree.nodes, min(50, tree.node_count)):
            sub = subtree_at(tree, node)
            label = sorted(node.label)
            rebuilt = build_tree(induced_subgraph(g, label)[0])
            vmap = {old: new for new, old in enumerate(label)}
            assert sub.node_count == rebuilt.node_count
            assert trees_isomorphic(sub, rebuilt, vmap)

        # labels nest strictly along every edge
        for node in tree.nodes:
            for child in node.children:
                assert child.label_bits & ~node.label_bits == 0
                assert child.label_bits != node.label_bits

        # the counting-through-a-subtree bound holds for random rooted
        # subtrees at t = largest clique size + 1
        t = len(counts.counts)
        for _ in range(20):
            included = {tree.root.index}
            queue = [tree.root]
            while queue:
                node = queue.pop()
                for child in node.children:
                    if rng.random() < 0.6:
                        included.add(child.index)
                        queue.append(child)
            sub = RootedSubtree(tree, included)
            check = subtree_bound_check(tree, t, sub)
            assert check.holds
            assert check.lhs == tree.node_count
    assert time.perf_counter() - start < 120.0


def minor_model_from_witness(w):
    """Contract each path into its first endpoint's branch set."""
    parts = {b: {b} for b in w.branch}
    for path in w.paths:
        parts[path[0]].update(path[1:-1])
    return [frozenset(part) for part in parts.values()]


def test_containment_oracles_sanity_and_implication():
    start = time.perf_counter()
    assert has_subdivision(complete(5), 5) is not None
    assert has_subdivision(petersen(), 5) is None
    assert has_subdivision(subdivided_complete(4), 4) is not None
    assert has_subdivision(complete_multipartite_222(4), 7) is None
    assert has_minor(petersen(), 5) is not None

    # a found subdivision always yields a checked minor model, so a
    # minor-free graph is subdivision-free; within its native size limit
    # the minor oracle must agree
    for t in (4, 5):
        for g in corpus():
            w = has_subdivision(g, t, oracle_limit=18)
            if w is None:
                continue
            assert verify_witness(g, w, t)
            assert is_valid_minor_model(g, minor_model_from_witness(w), t)
            if g.n <= 14:
                assert has_minor(g, t) is not None
    # on the smaller graphs the minor oracle agrees with an independent
    # search over all connected vertex sets
    for g in corpus():
        if g.n <= 11:
            for t in (3, 4, 5):
                parts = has_minor(g, t)
                assert (parts is None) == (find_minor_alt(g, t) is None)
                assert parts is None or is_valid_minor_model(g, parts, t)
    assert time.perf_counter() - start < 120.0


def test_dense_extraction_yields_verified_witnesses():
    start = time.perf_counter()
    size_bound = max(Fraction(20 * 4, 11), Fraction(4 * 4, 5))
    assert size_bound == Fraction(80, 11)
    for g in (complete(10), k_minus_matching(10)):
        assert Fraction(g.n) > size_bound
        w = extract_subdivision_dense(g, 4)
        assert verify_witness(g, w, 4)
    assert time.perf_counter() - start < 10.0


def test_binomial_prefix_sum_bound_holds_everywhere():
    start = time.perf_counter()
    for m in range(1, 61):
        for k in range(1, m + 1):
            assert check_binom_sum_inequality(m, k).holds
    # fractional thresholds, as used by the window truncation depth
    for m, k in ((20, Fraction(16, 5)), (25, Fraction(32, 25)), (40, Fraction(9, 2))):
        assert check_binom_sum_inequality(m, k).holds
    assert time.perf_counter() - start < 5.0


def test_degenerate_ceiling_on_corpus_and_tightness():
    start = time.perf_counter()
    for g in corpus():
        d = degeneracy(g).d
        assert count_cliques(g) <= bound_degenerate(d, g.n)
    g = path_power(20, 3)
    assert degeneracy(g).d == 3
    assert count_cliques(g) == bound_degenerate(3, 20) == 144
    assert time.perf_counter() - start < 10.0


def test_audit_pipeline_green_on_subdivision_free_inputs():
    start = time.perf_counter()

    report = audit_graph(path_power(30, 2), AuditConfig(t=4))
    assert report.all_hold
    names = {check.name for check in report.checks}
    assert {
        "degeneracy-cap",
        "skeleton-height",
        "skeleton-size",
        "boundary-small-subtree",
        "boundary-excluded-child",
        "total-product",
        "total-headline",
        "degenerate-bound",
    } <= names
    assert report.boundary_cases

    report = audit_graph(complete_multipartite_222(3), AuditConfig(t=4))
    assert report.all_hold
    assert report.boundary_cases

    free = []
    for g in corpus():
        if has_subdivision(g, 5, oracle_limit=18) is None:
            free.append(g)
            if len(free) == 20:
                break
    assert len(free) == 20
    for g in free:
        report = audit_graph(g, AuditConfig(t=5, oracle_limit=18))
        assert report.all_hold
        assert any(
            "no K_5-subdivision present" in note for note in report.notes
        )
    assert time.perf_counter() - start < 120.0


def test_lower_bound_exponent_approaches_limit():
    start = time.perf_counter()
    limit = (2.0 / 3.0) * log2(3)
    spots = {2: (4, Fraction(2, 4)), 4: (7, Fraction(4, 7)), 8: (13, Fraction(8, 13))}
    for k, (t, ratio) in spots.items():
        r = lower_bound_constant(k)
        assert r.t == t
        assert abs(r.exponent - float(ratio) * log2(3)) < 1e-9
        assert abs(r.limit - limit) < 1e-9
    prev = 0.0
    for k in range(2, 1002, 2):
        r = lower_bound_constant(k)
        assert prev < r.exponent < r.limit + 1e-9
        prev = r.exponent
    assert r.limit - prev < 1e-3
    assert time.perf_counter() - start < 5.0
