"""Audit pipeline: skeleton rule, boundary cases, window conditions, bounds."""

import random
from contextlib import nullcontext
from fractions import Fraction
from math import comb, isclose

import pytest
from hypothesis import given, settings

import clique_census.audit as audit_module
import clique_census.tree as tree_module
from clique_census import (
    AuditCheck,
    CapacityError,
    AuditConfig,
    audit_dense_window,
    audit_graph,
    bound_degenerate,
    build_skeleton,
    build_tree,
    check_binom_sum_inequality,
    complete,
    complete_multipartite_222,
    count_cliques,
    path_power,
    random_gnp,
    refined_exponents,
)
from clique_census.graph import Graph

from strategies import WORD_EDGE_SIZES, graphs, word_edge_graphs


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


def independent_skeleton(tree, t):
    """Same membership rule, written as a flat preorder scan."""
    included = {tree.root.index}
    for node in tree.nodes[1:]:
        s = node.label_size
        if (
            node.parent.index in included
            and s * s >= 10 * t * t
            and 10 * s < 9 * node.parent.label_size
        ):
            included.add(node.index)
    return included


def checks_by_name(report):
    return {check.name: check for check in report.checks}


def test_skeleton_matches_independent_rescan():
    cases = [
        (random_gnp(12, Fraction(1, 2), seed=5), 1),
        (random_gnp(12, Fraction(4, 5), seed=9), 1),
        (k_minus_matching(15), 4),
        (complete(13), 4),
        (path_power(30, 2), 4),
    ]
    for g, t in cases:
        tree = build_tree(g)
        skel = build_skeleton(g, t)
        want = independent_skeleton(tree, t)
        assert set(skel.included) == want
        assert skel.height == max(tree.nodes[i].depth for i in want)


def tree_case(node, t):
    """Boundary case of a materialized node, by the audit's own rule."""
    if node.label_size * node.label_size <= 10 * t * t:
        return "small_label"
    if any(10 * c.label_size >= 9 * node.label_size for c in node.children):
        return "dense_window"
    return "small_children"


def assert_skeleton_matches_tree(g, t):
    """The streaming skeleton against a rescan of the materialized tree."""
    tree = build_tree(g)
    sizes = tree.subtree_sizes()
    want = independent_skeleton(tree, t)
    skel = build_skeleton(g, t)
    assert skel.included == want
    assert [node.index for node in skel.nodes] == sorted(want)
    assert skel.height == max(tree.nodes[i].depth for i in want)
    assert skel.tree_size == tree.node_count
    excluded = [c for i in sorted(want) for c in tree.nodes[i].children
                if c.index not in want]
    assert skel.hanging_count == len(excluded)
    streamed = []
    for node in skel.nodes:
        twin = tree.nodes[node.index]
        assert node.depth == twin.depth
        assert node.label_size == twin.label_size
        assert node.chosen_vertex == twin.chosen_vertex
        assert node.size == sizes[node.index]
        assert node.child_indices() == [c.index for c in twin.children]
        assert node.child_vertices == tuple(c.chosen_vertex for c in twin.children)
        assert node.child_label_sizes == tuple(c.label_size for c in twin.children)
        streamed.extend((node.child_indices()[pos], node.child_sizes[pos])
                        for pos in node.excluded())
    assert streamed == [(c.index, sizes[c.index]) for c in excluded]
    cfg = AuditConfig(t=t, assume_subdivision_free=True)
    cases, checks, *_ = audit_module.audit_boundary_cases(skel, cfg, g)
    boundary = [tree.nodes[i] for i in sorted(want)
                if any(c.index not in want for c in tree.nodes[i].children)]
    assert [(c.node, c.label_size, c.case) for c in cases] == [
        (node.index, node.label_size, tree_case(node, t)) for node in boundary
    ]
    # the hanging sizes behind the two aggregate boundary checks
    small_label = small_child = 0
    for node in boundary:
        case = tree_case(node, t)
        if case == "small_label":
            small_label = max(small_label, sizes[node.index])
            continue
        children = node.children
        if case == "dense_window":
            cut = next(i for i, c in enumerate(children)
                       if 10 * c.label_size >= 9 * node.label_size)
            children = children[:cut]
        small_child = max([small_child] + [sizes[c.index] for c in children
                                           if c.index not in want])
    assert (checks[0].name, checks[0].lhs) == ("boundary-small-subtree", small_label)
    assert (checks[1].name, checks[1].lhs) == ("boundary-excluded-child", small_child)
    tree.discard()


def seeded_gnp(n, p, seed):
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


@given(graphs(max_n=12))
@settings(max_examples=60)
def test_streaming_skeleton_matches_tree_hypothesis(g):
    for t in (1, 2, 4):
        assert_skeleton_matches_tree(g, t)


def test_streaming_skeleton_matches_tree_across_word_edges():
    for n in WORD_EDGE_SIZES:
        for g in word_edge_graphs(n) + [seeded_gnp(n, 0.25, n)]:
            for t in (1, 2):
                assert_skeleton_matches_tree(g, t)


def depth_scan(g):
    """Largest label per depth of the materialized tree."""
    tree = build_tree(g)
    worst = {}
    for node in tree.nodes:
        worst[node.depth] = max(worst.get(node.depth, 0), node.label_size)
    tree.discard()
    return worst


def assert_truncation_query_matches_tree(g):
    worst = depth_scan(g)
    for depth in range(max(worst) + 2):
        assert audit_module._largest_label_at_depth(g, depth) == worst.get(depth, 0)


@given(graphs(max_n=12))
@settings(max_examples=60)
def test_truncation_query_matches_tree_hypothesis(g):
    assert_truncation_query_matches_tree(g)


def test_truncation_query_matches_tree_across_word_edges():
    for n in WORD_EDGE_SIZES:
        for g in word_edge_graphs(n):
            assert_truncation_query_matches_tree(g)
    for g in (k_minus_matching(12), complete(10), path_power(30, 3)):
        assert_truncation_query_matches_tree(g)


def audit_inputs():
    """The audits of this file and of the acceptance suite."""
    probs = (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
    return [
        (path_power(30, 2), AuditConfig(t=4)),
        (complete_multipartite_222(3), AuditConfig(t=4)),
        (path_power(12, 2), AuditConfig(t=4)),
        (complete(13), AuditConfig(t=4, assume_subdivision_free=True)),
        (complete(13), AuditConfig(t=4)),
        (path_power(2000, 2), AuditConfig(t=4)),
        (Graph(0, []), AuditConfig(t=4)),
        (path_power(5, 1), AuditConfig(t=3)),
        (complete(3), AuditConfig(t=3)),
        (complete(14), AuditConfig(t=4, node_cap=1000)),
        (k_minus_matching(20), AuditConfig(t=4, assume_subdivision_free=True)),
    ] + [
        (random_gnp(8 + (i % 11), probs[i % 3], seed=1000 + i),
         AuditConfig(t=5, oracle_limit=18))
        for i in range(20)
    ]


def test_audit_builds_no_tree(monkeypatch):
    want = [audit_graph(g, cfg).to_json() for g, cfg in audit_inputs()]

    def refuse(*args, **kwargs):
        raise AssertionError("the audit built a clique tree node")

    monkeypatch.setattr(tree_module.CliqueTreeNode, "__init__", refuse)
    with pytest.raises(AssertionError):
        build_tree(complete(2))
    assert [audit_graph(g, cfg).to_json() for g, cfg in audit_inputs()] == want
    checks = audit_dense_window(path_power(24, 2), 4)
    assert {c.name: c for c in checks}["window-truncation"].holds
    checks = audit_dense_window(complete(20), 4, node_cap=100, window_count=2**20)
    assert "node cap" in {c.name: c for c in checks}["window-truncation"].note


def test_audit_peels_the_input_once(monkeypatch):
    for g, cfg in audit_inputs():
        if cfg.t <= 3 or g.n == 0:
            continue  # the short-circuits count the cliques separately
        peels = []
        for module in (audit_module, tree_module):
            def counted(h, _peel=module.degeneracy):
                if h is g:
                    peels.append(h)
                return _peel(h)
            monkeypatch.setattr(module, "degeneracy", counted)
        audit_graph(g, cfg)
        monkeypatch.undo()
        assert len(peels) == 1


def test_skeleton_trivial_cases():
    for g in (complete(3), Graph(5, []), path_power(40, 2)):
        skel = build_skeleton(g, 4)
        assert skel.size == 1
        assert skel.height == 0
        assert skel.included == frozenset({0})
    with pytest.raises(ValueError):
        build_skeleton(complete(3), 0)


def test_skeleton_nontrivial_when_dense_and_large():
    # min-degree vertex of K_15 minus a matching keeps 13 of 15 label
    # vertices: 13^2 >= 160 and 10*13 < 9*15, so its child enters
    skel = build_skeleton(k_minus_matching(15), 4)
    assert skel.size > 1
    assert skel.height >= 1


def test_config_validation():
    with pytest.raises(ValueError):
        AuditConfig(t=0)
    with pytest.raises(ValueError):
        AuditConfig(t=4, node_cap=0)


def test_dense_window_clean_pass():
    # a 10-vertex clique at t = 8: within every window condition
    checks = audit_dense_window(complete(10), 8)
    named = {c.name: c for c in checks}
    assert named["window-min-degree"].holds  # 90 >= 90
    assert named["window-size"].holds  # 10 <= 160/11
    assert named["window-clique-count"].holds
    assert "window-truncation" not in named  # 10 < 5t
    assert "window-oracle" not in named
    assert all(c.holds for c in checks)


def test_dense_window_contrapositive_with_oracle():
    g = k_minus_matching(10)
    checks = audit_dense_window(g, 4, assume_subdivision_free=True)
    named = {c.name: c for c in checks}
    assert not named["window-min-degree"].holds  # 8 < 9
    assert not named["window-size"].holds  # 10 > 80/11
    assert named["window-clique-count"].holds  # 243 <= 2^20
    assert "subdivision (contrapositive)" in named["window-min-degree"].note
    assert named["window-oracle"].holds


def test_dense_window_no_oracle_without_assumption():
    checks = audit_dense_window(k_minus_matching(10), 4)
    named = {c.name: c for c in checks}
    assert "window-oracle" not in named
    assert named["window-min-degree"].note == ""


def test_dense_window_truncation_depth():
    checks = audit_dense_window(path_power(24, 2), 4)
    named = {c.name: c for c in checks}
    assert named["window-truncation"].holds
    assert not named["window-size"].holds
    checks = audit_dense_window(complete(20), 4, node_cap=100)
    named = {c.name: c for c in checks}
    assert named["window-truncation"].holds
    assert "node cap" in named["window-truncation"].note


def test_audit_path_power_clean():
    report = audit_graph(path_power(30, 2), AuditConfig(t=4))
    assert report.all_hold
    named = checks_by_name(report)
    assert named["degeneracy-cap"].lhs == 2
    assert named["skeleton-size"].lhs == 1
    assert named["total-headline"].holds
    assert named["degenerate-bound"].lhs == 116
    assert named["degenerate-bound"].rhs == 116
    assert report.boundary_cases[0].case == "small_children"
    assert any("neither verified" in note for note in report.notes)


def test_audit_octahedron_clean_with_subdivision_note():
    report = audit_graph(complete_multipartite_222(3), AuditConfig(t=4))
    assert report.all_hold
    assert report.boundary_cases[0].case == "small_label"
    assert any("contains a K_4-subdivision" in note for note in report.notes)


def test_audit_verified_free_note():
    report = audit_graph(path_power(12, 2), AuditConfig(t=4))
    assert report.all_hold
    assert any(
        "no K_4-subdivision present" in note for note in report.notes
    )


def test_audit_k13_fails_honestly():
    cfg = AuditConfig(t=4, assume_subdivision_free=True)
    report = audit_graph(complete(13), cfg)
    assert not report.all_hold
    failed = [c.name for c in report.checks if not c.holds]
    assert failed == ["window@0-size"]
    named = checks_by_name(report)
    assert "contrapositive" in named["window@0-size"].note
    assert named["window@0-oracle"].holds
    assert named["total-product"].lhs == 8192
    # rhs = skeleton size 1 + 13 hanging subtrees * window tree size 8192
    assert named["total-product"].margin == 1 + 13 * 8192 - 8192
    case = report.boundary_cases[0]
    assert case.case == "dense_window"
    assert case.window_size == 13
    assert case.window_tree_size == 8192


def test_total_product_counts_every_hanging_subtree():
    # treewidth 2, so no K_4-subdivision: every bound must hold; the root
    # is the whole skeleton and hangs 2000 subtrees
    report = audit_graph(path_power(2000, 2), AuditConfig(t=4))
    assert report.all_hold
    named = checks_by_name(report)
    assert named["total-product"].lhs == 7996


def test_audit_k13_default_mode_notes_subdivision():
    report = audit_graph(complete(13), AuditConfig(t=4))
    assert not report.all_hold
    assert any("contains a K_4-subdivision" in note for note in report.notes)
    named = checks_by_name(report)
    assert "window@0-oracle" not in named
    assert named["window@0-size"].note == ""


def test_audit_empty_graph():
    report = audit_graph(Graph(0, []), AuditConfig(t=4))
    assert report.all_hold
    named = checks_by_name(report)
    assert named["empty-graph"].lhs == 1
    assert "total-headline" not in named
    assert any("empty vertex set" in note for note in report.notes)


def test_audit_forest_short_circuit():
    report = audit_graph(path_power(5, 1), AuditConfig(t=3))
    assert report.all_hold
    named = checks_by_name(report)
    assert named["forest-count"].lhs == 10
    assert named["forest-count"].rhs == 10
    assert any("short-circuit" in note for note in report.notes)

    triangle = audit_graph(complete(3), AuditConfig(t=3))
    assert not triangle.all_hold
    assert not checks_by_name(triangle)["forest-count"].holds


def test_audit_node_cap_degradation():
    report = audit_graph(complete(14), AuditConfig(t=4, node_cap=1000))
    assert report.all_hold
    named = checks_by_name(report)
    assert set(named) == {"degeneracy-cap", "total-headline", "degenerate-bound"}
    assert any("structural audits skipped" in note for note in report.notes)


def test_node_caps_compare_like_build_tree():
    # build_tree raises CapacityError iff the tree has more nodes than the
    # cap; the audit and the window truncation skip exactly then
    for cap, skipped in ((2**14, False), (2**14 - 1, True)):
        with pytest.raises(CapacityError) if skipped else nullcontext():
            build_tree(complete(14), node_cap=cap).discard()
        report = audit_graph(complete(14), AuditConfig(t=4, node_cap=cap))
        notes = " ".join(report.notes)
        assert ("structural audits skipped" in notes) == skipped
        if skipped:
            assert f"({2**14} nodes)" in notes
        else:
            assert "skeleton-size" in checks_by_name(report)
    for cap, skipped in ((2**20, False), (2**20 - 1, True)):
        checks = audit_dense_window(complete(20), 4, node_cap=cap, window_count=2**20)
        named = {c.name: c for c in checks}
        assert ("node cap" in named["window-truncation"].note) == skipped
        assert named["window-truncation"].lhs == (0 if skipped else 18)


def test_bound_degenerate_values():
    assert bound_degenerate(1, 10) == 20
    assert bound_degenerate(3, 20) == 144
    for n in range(0, 8):
        assert bound_degenerate(0, n) == n + 1
    with pytest.raises(ValueError):
        bound_degenerate(-1, 5)
    with pytest.raises(ValueError):
        bound_degenerate(6, 5)


def test_degenerate_bound_is_tight_on_path_power():
    g = path_power(20, 3)
    assert count_cliques(g) == bound_degenerate(3, 20)


def test_binom_sum_inequality():
    check = check_binom_sum_inequality(10, 3)
    assert check.lhs == 176
    assert check.holds
    assert float(check.rhs) == pytest.approx(743.9, abs=0.1)

    check = check_binom_sum_inequality(5, 5)
    assert check.lhs == 32  # the full power set of a 5-set
    assert check.holds

    check = check_binom_sum_inequality(1, 1)
    assert check.lhs == 2
    assert check.holds

    check = check_binom_sum_inequality(100, Fraction(5, 2))
    assert check.lhs == 1 + 100 + comb(100, 2)
    assert check.holds

    with pytest.raises(ValueError):
        check_binom_sum_inequality(0, 1)
    with pytest.raises(ValueError):
        check_binom_sum_inequality(5, 0)
    with pytest.raises(ValueError):
        check_binom_sum_inequality(5, 6)


def test_margin_kinds():
    assert AuditCheck("x", 3, 5, True, "a").margin == 2
    assert AuditCheck("x", 3, Fraction(7, 2), True, "a").margin == Fraction(1, 2)
    big = AuditCheck("x", 2**200, 2**200 + 1, True, "a").margin
    assert big == 1  # exact even far beyond float range
    assert float(AuditCheck("x", 1.5, 2.0, True, "a").margin) == pytest.approx(0.5)


def test_report_json_shapes():
    cfg = AuditConfig(t=4, assume_subdivision_free=True)
    report = audit_graph(complete(13), cfg)
    data = report.to_json()
    assert set(data) == {
        "config",
        "graph",
        "checks",
        "boundary_cases",
        "notes",
        "all_hold",
    }
    assert data["all_hold"] is False
    assert data["config"]["t"] == 4
    assert data["graph"] == {"n": 13, "edges": 78}
    for entry in data["checks"]:
        assert isinstance(entry["lhs"], str)
        assert isinstance(entry["rhs"], str)
        assert isinstance(entry["margin"], str)
        assert isinstance(entry["holds"], bool)
        assert entry["anchor"]
    case = data["boundary_cases"][0]
    assert case["window_tree_size"] == "8192"


def test_refined_exponents_reference_point():
    r = refined_exponents(Fraction(1, 10), Fraction(1, 2), 4)
    assert r.slack == Fraction(11, 20)
    assert r.zeta_min == Fraction(20, 11)
    assert r.gamma_max == Fraction(20, 11)
    assert r.window_size_bound == Fraction(80, 11)
    assert r.window_size_bound == max(Fraction(20 * 4, 11), Fraction(16, 5))
    assert 44.0 <= r.skeleton_exponent <= 44.1
    assert r.dense_exponent_asymptotic <= 5.0
    assert r.total_exponent < 50.0
    assert r.dense_exponent <= r.dense_exponent_asymptotic + 1e-9


def test_refined_exponents_sharper_parameters():
    r = refined_exponents(Fraction(1, 100), Fraction(13, 20), 4)
    assert r.dense_exponent_asymptotic < 4.0
    r = refined_exponents(Fraction(7, 20), Fraction(2, 5), 4)
    assert r.total_exponent < 20.0


def test_refined_exponents_window_bound_scales():
    r = refined_exponents(Fraction(1, 10), Fraction(1, 2), 10)
    assert r.gamma_max == Fraction(2)
    assert r.window_size_bound == Fraction(20)
    assert r.window_size_bound == max(Fraction(20 * 10, 11), Fraction(100, 5))


def test_refined_exponents_validation():
    with pytest.raises(TypeError):
        refined_exponents(0.1, Fraction(1, 2), 4)
    with pytest.raises(ValueError):
        refined_exponents(Fraction(1, 10), Fraction(1, 2), 3)
    with pytest.raises(ValueError):
        refined_exponents(Fraction(0), Fraction(1, 2), 4)
    with pytest.raises(ValueError):
        refined_exponents(Fraction(1, 4), Fraction(1), 4)


def test_refined_exponents_json():
    r = refined_exponents(Fraction(1, 10), Fraction(1, 2), 4)
    data = r.to_json()
    assert data["alpha"] == "1/10"
    assert data["window_size_bound"] == "80/11"
    assert isclose(data["total_exponent"], r.total_exponent)
