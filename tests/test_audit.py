"""Audit pipeline: skeleton rule, boundary cases, window conditions, bounds."""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext
from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb, sqrt

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import clique_census
import clique_census.audit as audit_module
import clique_census.tree as tree_module
from clique_census import (
    AuditCheck,
    CapacityError,
    AuditConfig,
    ExtractionError,
    audit_dense_window,
    audit_graph,
    bound_degenerate,
    build_skeleton,
    build_tree,
    census,
    check_binom_sum_inequality,
    complete,
    complete_multipartite_222,
    count_cliques,
    cycle,
    extract_subdivision_dense,
    path_power,
    petersen,
    random_gnp,
)
from clique_census.cli import main
from clique_census.graph import Graph, induced_subgraph, rows
from clique_census.tree import DEFAULT_NODE_CAP

from brute import (
    at_most_cap,
    binom_within_bound,
    brute_census,
    brute_count,
    height_within_bound,
    largest_label_at_depth,
    truncation_depth,
)
from strategies import WORD_EDGE_SIZES, corpus, graphs, grid, word_edge_graphs


def window_audit(g, t, **kwargs):
    """audit_dense_window on the rows of all of g, as one window."""
    return audit_dense_window(rows(g), t, window_count=count_cliques(g), **kwargs)


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
    cases, checks, hanging = audit_module.audit_boundary_cases(skel, cfg, g)
    boundary = [tree.nodes[i] for i in sorted(want)
                if any(c.index not in want for c in tree.nodes[i].children)]
    assert [(c.node, c.label_size, c.case) for c in cases] == [
        (node.index, node.label_size, tree_case(node, t)) for node in boundary
    ]
    # the hanging sizes behind the two aggregate boundary checks, and the
    # bound each hanging subtree gets: the cap, or its window's count
    small_label = small_child = 0
    windows = [1]
    bounded = []  # (hanging size, its window's count or None for the cap)
    for node, streamed_case in zip(boundary, cases):
        case = tree_case(node, t)
        if case == "small_label":
            small_label = max(small_label, sizes[node.index])
            bounded += [(sizes[c.index], None) for c in node.children
                        if c.index not in want]
            continue
        children = node.children
        if case == "dense_window":
            cut = next(i for i, c in enumerate(children)
                       if 10 * c.label_size >= 9 * node.label_size)
            # the window's tree is the node's child loop from the cut on
            window = children[cut:]
            assert streamed_case.window_size == len(window)
            assert streamed_case.window_tree_size == 1 + sum(sizes[c.index] for c in window)
            window_graph, _ = induced_subgraph(g, [c.chosen_vertex for c in window])
            assert streamed_case.window_tree_size == brute_count(window_graph)
            windows.append(streamed_case.window_tree_size)
            bounded += [(sizes[c.index], streamed_case.window_tree_size)
                        for c in window if c.index not in want]
            children = children[:cut]
        outside = [sizes[c.index] for c in children if c.index not in want]
        small_child = max([small_child] + outside)
        bounded += [(size, None) for size in outside]
    assert (checks[0].name, checks[0].lhs) == ("boundary-small-subtree", small_label)
    assert (checks[1].name, checks[1].lhs) == ("boundary-excluded-child", small_child)
    assert len(bounded) == skel.hanging_count
    # M is the cap when a hanging subtree is capped and no window exceeds
    # the cap, else the largest window count
    capped = any(count is None for _, count in bounded)
    if capped and at_most_cap(max(windows), t):
        assert hanging == audit_module._real(audit_module._cap, t)
    else:
        assert hanging == max(windows)
    assert all(size < count for size, count in bounded if count is not None)
    if checks[0].holds and checks[1].holds:
        # then every hanging subtree is within its bound, so within M
        assert all(at_most_cap(size, t) for size, count in bounded if count is None)
        assert all(size <= hanging for size, _ in bounded)
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


@given(graphs(max_n=12))
@settings(max_examples=60)
def test_degree_order_census_matches_peel_skeleton(g):
    # census orients by (degree, id), the skeleton by the min-degree peel
    # with memoized hanging sizes; both count every clique once
    counts = census(g)
    assert list(counts.counts) == brute_census(g)
    for t in (1, 2, 4):
        assert build_skeleton(g, t).tree_size == counts.total


def test_skeleton_sizes_each_hanging_subtree_once(monkeypatch):
    # at t=8 every root child of path_power(n, 6) hangs, and its label
    # induces one of K_0, ..., K_6
    calls = []
    kernel = audit_module._backend.census_of_subset

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(audit_module._backend, "census_of_subset", counted)
    skel = build_skeleton(path_power(1000, 6), 8)
    assert skel.tree_size == 2**6 * (1000 - 5)
    assert skel.hanging_count == 1000
    assert len(calls) <= 7


def test_streaming_skeleton_matches_tree_across_word_edges():
    for n in WORD_EDGE_SIZES:
        for g in word_edge_graphs(n) + [seeded_gnp(n, 0.25, n)]:
            for t in (1, 2):
                assert_skeleton_matches_tree(g, t)


def test_small_child_before_a_window_is_capped():
    # K_40 and a pendant vertex at t=4: the pendant is the root's child 0
    # and hangs K_1's tree; child 1 keeps 39 of 41 labels and opens a window
    g = Graph(41, complete(40).edges() + [(0, 40)])
    skel = build_skeleton(g, 4)
    cases, checks, hanging = audit_module.audit_boundary_cases(skel, AuditConfig(t=4), g)
    assert {case.case for case in cases} == {"dense_window"}
    root = skel.nodes[0]
    assert audit_module._window_start(root) == 1
    assert root.excluded()[0] == 0
    assert (checks[1].name, checks[1].lhs, checks[1].holds) == (
        "boundary-excluded-child", 2, True)
    # the root's window, K_40's tree, exceeds the cap and is M
    assert hanging == cases[0].window_tree_size == 2**40


def test_small_child_before_a_window_below_the_cap_makes_m_the_cap():
    # K_22 and a pendant vertex at t=7: the skeleton is the root, a
    # dense_window node whose window K_22 has 2^22 cliques, below the cap
    # 2^(sqrt(10) 7) ~ 4.6e6; the pendant before it is the one capped
    # subtree, so M is the cap and not the window count
    g = Graph(23, complete(22).edges() + [(0, 22)])
    cfg = AuditConfig(t=7)
    skel = build_skeleton(g, 7)
    cases, checks, hanging = audit_module.audit_boundary_cases(skel, cfg, g)
    assert [(case.case, case.window_tree_size) for case in cases] == [
        ("dense_window", 2**22)]
    assert [(c.name, c.lhs) for c in checks[:2]] == [
        ("boundary-small-subtree", 0), ("boundary-excluded-child", 2)]
    assert hanging == audit_module._real(audit_module._cap, 7)
    report = audit_graph(g, cfg)
    total = next(c for c in report.checks if c.name == "total-product")
    assert total.holds
    # 1 + 23 * 2^(sqrt(10) 7); the window count would give 1 + 23 * 2^22
    assert total.to_json()["rhs"] == "106001217.241088"


@pytest.mark.parametrize("g, found", [(cycle(8), False), (path_power(7, 3), True)])
def test_window_oracle_searches_where_extraction_fails(monkeypatch, g, found):
    # both rows fail a window condition at t=4 and make extraction raise,
    # so the exhaustive search decides the window-oracle check
    with pytest.raises(ExtractionError):
        extract_subdivision_dense(g, 4)
    searched = []
    search = audit_module.has_subdivision

    def counted(*args, **kwargs):
        searched.append(args[1])
        return search(*args, **kwargs)

    monkeypatch.setattr(audit_module, "has_subdivision", counted)
    checks = window_audit(g, 4, assume_subdivision_free=True)
    assert (checks[-1].name, checks[-1].lhs, checks[-1].holds) == (
        "window-oracle", int(found), found)
    assert searched == [4]


def depth_scan(g):
    """Largest label per depth of the materialized tree."""
    tree = build_tree(g)
    worst = {}
    for node in tree.nodes:
        worst[node.depth] = max(worst.get(node.depth, 0), node.label_size)
    tree.discard()
    return worst


def assert_truncation_query_matches_tree(g):
    # the pruned walk, the unpruned reference walk and the materialized tree
    worst = depth_scan(g)
    bits = rows(g)
    for depth in range(max(worst) + 2):
        assert audit_module._largest_label_at_depth(bits, depth) == worst.get(depth, 0)
        assert largest_label_at_depth(bits, depth) == worst.get(depth, 0)


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


def test_pruned_truncation_walk_matches_unpruned_on_dense_windows():
    # whole dense G(m, p) as windows: m >= 5t, so the audit walks them to
    # depth floor(2 (t^2/m) ln(m/t)) = 5 and 6; build_tree would have to
    # materialize millions of nodes
    for m, p, t, depth in ((40, Fraction(17, 20), 8, 5), (50, Fraction(3, 4), 10, 6)):
        g = random_gnp(m, p, seed=0)
        bits = rows(g)
        for d in (depth - 1, depth):
            assert (audit_module._largest_label_at_depth(bits, d)
                    == largest_label_at_depth(bits, d))
        truncation = {c.name: c for c in window_audit(g, t)}["window-truncation"]
        assert truncation.lhs == largest_label_at_depth(bits, depth)


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
        (complete(14), AuditConfig(t=4)),
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
    checks = window_audit(path_power(24, 2), 4)
    assert {c.name: c for c in checks}["window-truncation"].holds
    checks = audit_dense_window(rows(complete(20)), 4, window_count=DEFAULT_NODE_CAP + 1)
    assert "node cap" in {c.name: c for c in checks}["window-truncation"].note


def test_dense_windows_stay_bit_rows(monkeypatch):
    # a window becomes a Graph only on the oracle branch: a failed check,
    # the premise assumed, and the window within the oracle limit
    planted = Graph(200, path_power(200, 2).edges() + [
        (u, v) for u in range(3, 200, 15) for v in range(u + 15, 200, 15)])
    cases = [(complete(20), AuditConfig(t=4)), (planted, AuditConfig(t=4))]
    oracle_window = rows(k_minus_matching(10))
    built = []
    init = Graph.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the audit built a window graph by induced_subgraph")

    monkeypatch.setattr(Graph, "__init__", counted)
    monkeypatch.setattr(audit_module, "induced_subgraph", refuse)
    for g, cfg in cases:
        report = audit_graph(g, cfg)
        windows = [c for c in report.boundary_cases if c.case == "dense_window"]
        assert windows and built == []
    assert [c.window_size for c in windows] == [13]
    checks = audit_dense_window(oracle_window, 4, window_count=3**5,
                                assume_subdivision_free=True)
    assert {c.name: c for c in checks}["window-oracle"].holds
    assert built[0] == 10


def test_equal_dense_windows_are_audited_once(monkeypatch):
    # G(28, 9/10) at t=4 has 101 dense windows, but only 4 distinct pairs
    # of window rows and clique count; every window fails a check and
    # reaches the oracle
    g = random_gnp(28, Fraction(9, 10), seed=3)
    cfg = AuditConfig(t=4, assume_subdivision_free=True)
    calls = []

    def counted(bits, *args, **kwargs):
        calls.append((tuple(bits), kwargs["window_count"]))
        return audit_dense_window(bits, *args, **kwargs)

    monkeypatch.setattr(audit_module, "audit_dense_window", counted)
    report = audit_graph(g, cfg)
    # each window audited on its own, under its own name
    expected, keys = [], set()
    for node in build_skeleton(g, cfg.t).boundary_nodes():
        start = audit_module._window_start(node)
        if node.label_size ** 2 <= 10 * cfg.t ** 2 or start is None:
            continue
        bits = rows(g, node.child_vertices[start:])
        count = 1 + sum(node.child_sizes[start:])
        keys.add((tuple(bits), count))
        label = f"window@{node.index}"
        expected += [AuditCheck(label + c.name.removeprefix("window"), c.lhs, c.rhs,
                                c.holds, c.anchor, c.note)
                     for c in audit_dense_window(bits, cfg.t, window_count=count,
                                                 assume_subdivision_free=True)]
    windows = [c for c in report.boundary_cases if c.case == "dense_window"]
    assert len(windows) == 101 and len(keys) == 4
    assert sorted(calls) == sorted(keys)
    got = [c for c in report.checks if c.name.startswith("window@")]
    assert [c.to_json() for c in got] == [c.to_json() for c in expected]
    assert sum(c.name.endswith("-oracle") for c in got) == 101

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
        AuditConfig(t=4, oracle_limit=-1)
    assert AuditConfig(t=4, oracle_limit=0).oracle_limit == 0


@pytest.mark.parametrize("params, name", [
    ({"t": 4.5}, "t"),
    ({"t": 4.0}, "t"),
    ({"t": True}, "t"),
    ({"t": Fraction(4)}, "t"),
    ({"t": 4, "oracle_limit": 2.5}, "oracle_limit"),
    ({"t": 4, "oracle_limit": False}, "oracle_limit"),
    ({"t": 4, "oracle_limit": "16"}, "oracle_limit"),
])
def test_config_refuses_parameters_that_are_not_ints(params, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        AuditConfig(**params)


@pytest.mark.parametrize("t", [4.5, True])
def test_skeleton_and_window_refuse_a_t_that_is_not_an_int(t):
    with pytest.raises(TypeError, match=f"^t must be an int, got {t!r}$"):
        build_skeleton(complete(12), t)
    with pytest.raises(TypeError, match=f"^t must be an int, got {t!r}$"):
        audit_dense_window(rows(complete(20)), t, window_count=2**20)


def test_dense_window_clean_pass():
    # a 10-vertex clique at t = 8: within every window condition
    checks = window_audit(complete(10), 8)
    named = {c.name: c for c in checks}
    assert named["window-min-degree"].holds  # 90 >= 90
    assert named["window-size"].holds  # 10 <= 160/11
    assert named["window-clique-count"].holds
    assert "window-truncation" not in named  # 10 < 5t
    assert "window-oracle" not in named
    assert all(c.holds for c in checks)


def test_dense_window_contrapositive_with_oracle():
    g = k_minus_matching(10)
    checks = window_audit(g, 4, assume_subdivision_free=True)
    named = {c.name: c for c in checks}
    assert not named["window-min-degree"].holds  # 8 < 9
    assert not named["window-size"].holds  # 10 > 80/11
    assert named["window-clique-count"].holds  # 243 <= 2^20
    assert "subdivision (contrapositive)" in named["window-min-degree"].note
    assert named["window-oracle"].holds


def test_dense_window_no_oracle_without_assumption():
    checks = window_audit(k_minus_matching(10), 4)
    named = {c.name: c for c in checks}
    assert "window-oracle" not in named
    assert named["window-min-degree"].note == ""


def test_dense_window_truncation_depth():
    checks = window_audit(path_power(24, 2), 4)
    named = {c.name: c for c in checks}
    assert named["window-truncation"].holds
    assert not named["window-size"].holds
    checks = audit_dense_window(rows(complete(20)), 4, window_count=DEFAULT_NODE_CAP + 1)
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
    # treewidth 2 <= t-2: the elimination certificate decides above the
    # oracle limit
    assert "elimination width <= 2: no K_4-subdivision present" in report.notes
    assert not any("neither verified" in note for note in report.notes)


def test_audit_neither_verified_above_oracle_limit():
    # path_power(30,3) fails the certificate's degeneracy test at t=4; the
    # 5x5 grid is 2-degenerate but its fill passes width 2
    for g in (path_power(30, 3), grid(5, 5)):
        report = audit_graph(g, AuditConfig(t=4))
        assert g.n > report.config.oracle_limit
        assert any("neither verified" in note for note in report.notes)
        assert not any("no K_4-subdivision" in note for note in report.notes)


def test_audit_certificate_skips_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the exhaustive oracle ran")

    monkeypatch.setattr(audit_module, "has_subdivision", refuse)
    report = audit_graph(path_power(14, 3), AuditConfig(t=5))
    assert report.all_hold
    assert "elimination width <= 3: no K_5-subdivision present" in report.notes


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
    # the Petersen graph is 3-degenerate with treewidth 4: the certificate
    # fails at t=5 and the exhaustive oracle decides
    report = audit_graph(petersen(), AuditConfig(t=5))
    assert "oracle verified: no K_5-subdivision present" in report.notes


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


def test_multipartite_lower_bound_audited_past_the_node_cap():
    # 3^k cliques, more than the default node cap from k = 15 on, and no
    # K_{3k/2+1}-subdivision; the skeleton is the root alone
    names = ["degeneracy-cap", "skeleton-height", "skeleton-size",
             "boundary-small-subtree", "boundary-excluded-child",
             "total-product", "total-headline", "degenerate-bound"]
    for k in range(15, 19):
        start = time.perf_counter()
        report = audit_graph(complete_multipartite_222(k), AuditConfig(t=3 * k // 2 + 1))
        seconds = time.perf_counter() - start
        assert [c.name for c in report.checks] == names
        assert report.all_hold
        assert checks_by_name(report)["total-headline"].lhs == 3**k
    assert seconds < 2, seconds  # k = 18


def test_node_cap_skips_only_the_window_truncation():
    checks = audit_dense_window(rows(complete(20)), 4, window_count=DEFAULT_NODE_CAP + 1)
    named = {c.name: c for c in checks}
    assert [c.name for c in checks] == ["window-min-degree", "window-size",
                                        "window-clique-count", "window-truncation"]
    assert not named["window-clique-count"].holds
    assert "node cap" in named["window-truncation"].note
    # K_24's one window, all of it, has 2^24 cliques, past the cap
    report = audit_graph(complete(24), AuditConfig(t=4))
    named = checks_by_name(report)
    assert "skeleton-size" in named
    assert named["window@0-clique-count"].lhs == 2**24
    assert "node cap" in named["window@0-truncation"].note


def test_node_caps_compare_like_build_tree():
    # build_tree raises CapacityError iff the tree has more nodes than the
    # cap; the window truncation skips exactly then
    for cap, skipped in ((2**14, False), (2**14 - 1, True)):
        with pytest.raises(CapacityError) if skipped else nullcontext():
            build_tree(complete(14), node_cap=cap).discard()
    for count, skipped in ((DEFAULT_NODE_CAP, False), (DEFAULT_NODE_CAP + 1, True)):
        checks = audit_dense_window(rows(complete(20)), 4, window_count=count)
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


@pytest.mark.parametrize("d, n, name", [(2.5, 10, "d"), (True, 10, "d"), (3, 10.0, "n")])
def test_bound_degenerate_refuses_arguments_that_are_not_ints(d, n, name):
    # these used to return 48.08..., 20 and 64.0
    with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
        bound_degenerate(d, n)


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
    # a float would be audited as its binary value, 0.1 as 3602879701896397/2^55
    with pytest.raises(TypeError):
        check_binom_sum_inequality(10, 0.1)
    with pytest.raises(TypeError):
        check_binom_sum_inequality(10, 3.0)
    assert check_binom_sum_inequality(10, "1/10").lhs == 1


def reference_verdict(check, g, t):
    """The check's verdict by tests/brute.py, or from its exact sides."""
    lhs, rhs = check.lhs, check.rhs
    if check.name == "skeleton-height":
        return height_within_bound(lhs, t)
    if check.name == "skeleton-size":
        return lhs**10 <= 2 ** (441 * t) * g.n**10
    if check.name.startswith("boundary-"):
        return at_most_cap(lhs, t)
    if check.name == "total-product" and isinstance(rhs, Decimal):
        skeleton = build_skeleton(g, t)
        return at_most_cap(Fraction(lhs - skeleton.size, skeleton.hanging_count), t)
    assert not isinstance(rhs, Decimal), check
    if check.name.endswith(("-min-degree", "-oracle")):
        return lhs >= rhs
    if check.name.endswith("-truncation"):
        return lhs < rhs
    return lhs <= rhs


def test_audit_verdicts_match_the_reference():
    inputs = [(g, AuditConfig(t=t)) for t in (4, 5, 8) for g in corpus()]
    for g, cfg in inputs + audit_inputs():
        for check in audit_graph(g, cfg).checks:
            assert check.holds == reference_verdict(check, g, cfg.t), (g, cfg, check)


def test_truncation_depth_matches_the_reference():
    for t in range(1, 11):
        for m in range(5 * t, 5 * t + 60):
            assert audit_module._truncation_depth(t, m) == truncation_depth(t, m), (t, m)


@given(st.integers(1, 12), st.integers(1, 50), st.floats(0.98, 1.02))
@settings(max_examples=200)
def test_cap_verdicts_match_the_reference(t, denominator, ratio):
    x = Fraction(round(2 ** (sqrt(10) * t) * ratio * denominator), denominator)
    # the reference's work grows as the inverse of x's distance from the
    # cap; the near-tie test below covers close values
    assume(abs(float(x) / 2 ** (sqrt(10) * t) - 1) > 1e-4)
    assert audit_module._at_most(x, audit_module._cap, t) == at_most_cap(x, t)


@given(st.integers(1, 60), st.integers(1, 360), st.integers(1, 6))
@settings(max_examples=200)
def test_binom_verdicts_match_the_reference(m, numerator, denominator):
    k = Fraction(numerator, denominator)
    assume(k <= m)
    assert check_binom_sum_inequality(m, k).holds == binom_within_bound(m, k)


def test_near_ties_need_more_than_50_digits():
    # rationals 10^-60 either side of 2^(sqrt(10) t), from 80 digits; 50
    # digits cannot tell them apart
    tiny = Fraction(1, 10**60)
    for t in (1, 4, 5, 8):
        with localcontext() as ctx:
            ctx.prec = 80
            cap = Fraction(Decimal(2) ** (t * Decimal(10).sqrt()))
        assert audit_module._at_most(cap - tiny, audit_module._cap, t)
        assert not audit_module._at_most(cap + tiny, audit_module._cap, t)
    # the same for every quantity, 10^-60 of its size away
    for f, args in ((audit_module._height_bound, (4,)), (audit_module._size_factor, (8,)),
                    (audit_module._window_depth, (4, 20)),
                    (audit_module._binom_bound, (100, Fraction(5, 2)))):
        value = Fraction(audit_module._real(f, *args, prec=80))
        assert audit_module._at_most(value * (1 - tiny), f, *args)
        assert not audit_module._at_most(value * (1 + tiny), f, *args)


def test_margin_kinds():
    assert AuditCheck("x", 3, 5, True, "a").margin == 2
    assert AuditCheck("x", 3, Fraction(7, 2), True, "a").margin == Fraction(1, 2)
    big = AuditCheck("x", 2**200, 2**200 + 1, True, "a").margin
    assert big == 1  # exact even far beyond float range
    assert float(AuditCheck("x", 1.5, 2.0, True, "a").margin) == pytest.approx(0.5)
    # a failed check of the form lhs >= rhs, as a window oracle that found nothing
    assert AuditCheck("window-oracle", 0, 1, False, "a").margin == -1


def test_margin_sign_follows_verdict():
    inputs = [(g, AuditConfig(t=t, assume_subdivision_free=free))
              for t in (4, 5) for free in (False, True) for g in corpus()]
    for g, cfg in inputs + audit_inputs():
        for check in audit_graph(g, cfg).checks:
            assert check.margin >= 0 if check.holds else check.margin <= 0, check
    # K_13's window holds its min degree 12 >= 117/10 by 3/10
    named = {c.name: c for c in audit_graph(complete(13), AuditConfig(
        t=4, assume_subdivision_free=True)).checks}
    assert named["window@0-min-degree"].margin == Fraction(3, 10)
    assert named["window@0-size"].margin == -Fraction(63, 11)


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


# In a fresh interpreter where any import of mpmath fails: runs each CLI
# command line of argv[2] and prints its exit code and output as JSON.
_NO_MPMATH_PROBE = """
import contextlib, io, json, sys
sys.modules["mpmath"] = None
sys.path.insert(0, sys.argv[1])
from clique_census.cli import main
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    print(json.dumps([code, out.getvalue()]))
"""


def test_cli_runs_without_mpmath(capsys):
    k13 = ["--construct", "complete:n=13", "--t", "4", "--format", "json"]
    commands = [
        ["count", "--construct", "complete:n=13"],
        ["audit", *k13],
        ["audit", *k13, "--assume-subdivision-free"],
        ["bounds", "--binom", "100", "5/2"],
        ["census", "--construct", "petersen"],
        ["enumerate", "--construct", "complete:n=4"],
        ["generate", "--construct", "petersen"],
        ["check-subdivision", "--construct", "petersen", "--t", "5"],
        ["check-minor", "--construct", "petersen", "--t", "4"],
        ["sparse-check", "--construct", "petersen", "--t", "4"],
    ]
    package_root = os.path.dirname(os.path.dirname(clique_census.__file__))
    proc = subprocess.run([sys.executable, "-c", _NO_MPMATH_PROBE, package_root,
                           json.dumps(commands)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    for argv, (code, out) in zip(commands, results, strict=True):
        assert [main(argv), capsys.readouterr().out] == [code, out], argv
    for (code, out), free in zip(results[1:3], (False, True)):
        report = json.loads(out)
        del report["config"]
        want = audit_graph(complete(13), AuditConfig(t=4, assume_subdivision_free=free))
        assert code == 1
        assert report == {key: value for key, value in want.to_json().items()
                          if key != "config"}
