"""Subdivision and minor oracles, witness checking, dense extraction."""

import random
import re
import time
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clique_census import (
    ExtractionError,
    Graph,
    OracleLimitError,
    SubdivisionWitness,
    complete,
    complete_multipartite_222,
    cycle,
    degeneracy,
    elimination_certificate,
    extract_subdivision_dense,
    has_minor,
    has_subdivision,
    path_power,
    verify_witness,
)
from clique_census import subdivision

from brute import find_minor_alt, find_subdivision_alt, is_valid_minor_model
from strategies import WORD_EDGE_SIZES, corpus, graphs, grid


def k(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def k_minus_matching(n):
    assert n % 2 == 0
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
    """K_t with every edge subdivided once."""
    edges = []
    n = t
    for u, v in combinations(range(t), 2):
        edges.append((u, n))
        edges.append((v, n))
        n += 1
    return Graph(n, edges)


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return Graph(10, edges)


def test_trivial_t():
    g = Graph(3, [(0, 1)])
    assert has_subdivision(g, 0) is not None
    assert has_subdivision(g, 1).branch == (0,)
    w = has_subdivision(g, 2)
    assert w.branch == (0, 1)
    assert verify_witness(g, w, 2)
    assert has_subdivision(Graph(0, []), 1) is None
    assert has_subdivision(Graph(3, []), 2) is None
    with pytest.raises(ValueError):
        has_subdivision(g, -1)
    assert has_minor(g, 0) == ()
    assert has_minor(g, 1) == (frozenset({0}),)
    assert has_minor(g, 2) == (frozenset({0}), frozenset({1}))
    assert has_minor(Graph(0, []), 1) is None
    assert has_minor(Graph(3, []), 2) is None
    with pytest.raises(ValueError):
        has_minor(g, -1)
    # above both default limits, t <= 2 is still decided: K_t itself
    for big, kt in (
        (Graph(40, [(5, 9)]), [(), (0,), (5, 9)]),
        (Graph(40, []), [(), (0,), None]),
        (complete(20), [(), (0,), (0, 1)]),
    ):
        for t in (0, 1, 2):
            w = has_subdivision(big, t)
            parts = has_minor(big, t)
            if kt[t] is None:
                assert (w, parts) == (None, None)
            else:
                assert w.branch == kt[t] and verify_witness(big, w, t)
                assert parts == tuple(frozenset({v}) for v in kt[t])


def test_known_instances():
    assert has_subdivision(k(5), 5) is not None
    assert has_subdivision(petersen(), 5) is None
    assert has_subdivision(subdivided_complete(4), 4) is not None
    assert has_subdivision(k(4), 5) is None


def test_subdivided_k4_witness_uses_paths():
    g = subdivided_complete(4)
    w = has_subdivision(g, 4)
    assert verify_witness(g, w, 4)
    assert any(len(p) > 2 for p in w.paths)


def test_oracle_limit():
    with pytest.raises(OracleLimitError):
        has_subdivision(k(17), 4)
    with pytest.raises(OracleLimitError):
        has_minor(k(15), 4)
    # t <= 2 decides without the limit in both oracles: the model is K_t
    assert has_subdivision(Graph(40, [(0, 1)]), 2) is not None
    assert has_minor(Graph(40, [(0, 1)]), 2) == (frozenset({0}), frozenset({1}))
    # a graph the elimination certificate proves free is answered at any
    # size; one it cannot decide is still limited
    for g, t in ((path_power(40, 2), 4), (cycle(40), 4), (path_power(100, 3), 5)):
        assert has_subdivision(g, t) is None
        assert has_minor(g, t) is None
    # a negative limit is a usage error at every t, not a limit hit, even
    # where the certificate would decide
    with pytest.raises(ValueError):
        has_subdivision(path_power(40, 2), 4, oracle_limit=-1)
    with pytest.raises(ValueError):
        has_minor(path_power(40, 2), 4, oracle_limit=-1)
    for t in (2, 4):
        with pytest.raises(ValueError):
            has_subdivision(k(3), t, oracle_limit=-1)
        with pytest.raises(ValueError):
            has_minor(k(3), t, oracle_limit=-1)


@pytest.mark.parametrize("oracle", [has_subdivision, has_minor])
@pytest.mark.parametrize("t, limit, name", [
    (4.5, 16, "t"), (True, 16, "t"), (Fraction(4), 16, "t"),
    (4, 2.5, "oracle_limit"), (4, False, "oracle_limit"),
    (2.0, 16, "t"), (4, "16", "oracle_limit"),
])
def test_oracles_refuse_parameters_that_are_not_ints(oracle, t, limit, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        oracle(k(5), t, oracle_limit=limit)


def test_minor_known_instances():
    assert has_minor(petersen(), 5) is not None
    assert has_minor(k(4), 4) is not None
    assert has_minor(Graph(4, [(0, 1), (1, 2), (2, 3)]), 3) is None
    assert has_minor(Graph(0, []), 0) is not None
    assert has_minor(Graph(2, []), 1) == (frozenset({0}),)


def test_minor_witness_shape():
    g = petersen()
    parts = has_minor(g, 5)
    seen = set()
    for part in parts:
        assert part and not part & seen
        seen |= part
    for a, b in combinations(parts, 2):
        assert any(g.has_edge(u, v) for u in a for v in b)


@given(graphs(max_n=8))
@settings(max_examples=60, deadline=None)
def test_found_witnesses_verify(g):
    for t in (3, 4, 5):
        w = has_subdivision(g, t)
        if w is not None:
            assert verify_witness(g, w, t)
            assert all(len(g.adj[v]) >= t - 1 for v in w.branch)


@given(graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_agrees_with_alternative_search(g):
    for t in (3, 4):
        assert (has_subdivision(g, t) is not None) == find_subdivision_alt(g, t)


@given(graphs(max_n=8))
@settings(max_examples=40, deadline=None)
def test_subdivision_implies_minor(g):
    for t in range(6):
        w = has_subdivision(g, t)
        if w is not None:
            assert has_minor(g, t) is not None
        if t <= 2:  # both find the same K_t
            parts = has_minor(g, t)
            assert parts == (None if w is None else
                             tuple(frozenset({v}) for v in w.branch))


def search_only():
    """Switch the elimination certificate off in the oracles' opening, so
    that their search alone answers."""
    return mock.patch.object(subdivision, "elimination_certificate",
                             lambda g, t: False)


@given(graphs(max_n=9))
@settings(max_examples=100, deadline=None)
def test_minor_agrees_with_alternative_search(g):
    for t in range(3, 7):
        want = find_minor_alt(g, t)
        assert want is None or is_valid_minor_model(g, want, t)
        with search_only():
            searched = has_minor(g, t)
        for parts in (has_minor(g, t), searched):
            assert (parts is None) == (want is None), (g.edges(), t)
            assert parts is None or is_valid_minor_model(g, parts, t)


def disjoint_union(*graphs):
    edges, n = [], 0
    for g in graphs:
        edges += [(u + n, v + n) for u, v in g.edges()]
        n += g.n
    return Graph(n, edges)


def test_minor_search_on_several_components():
    # a model lives in one component; the others must be dropped whole
    c4_edge = Graph(9, [(0, 2), (2, 8), (8, 6), (6, 0), (1, 3)])
    for g, t, oracle_limit, found in (
        (disjoint_union(cycle(4), k(2)), 3, 14, True),
        (c4_edge, 3, 14, True),
        (disjoint_union(petersen(), k(2)), 5, 14, True),
        (disjoint_union(k(2), petersen()), 5, 14, True),
        (disjoint_union(petersen(), petersen()), 6, 20, False),
    ):
        with search_only():
            parts = has_minor(g, t, oracle_limit=oracle_limit)
        assert (parts is not None) == found, (g.edges(), t)
        assert parts is None or is_valid_minor_model(g, parts, t)


def test_minor_search_time_on_uncertified_inputs():
    # each input defeats the elimination certificate, so the search decides
    for g, t, oracle_limit, found in (
        (corpus()[4], 6, 14, False),
        (grid(4, 4), 5, 16, False),  # planar
        (grid(4, 4), 4, 16, True),
    ):
        assert not elimination_certificate(g, t)
        start = time.perf_counter()
        parts = has_minor(g, t, oracle_limit=oracle_limit)
        assert time.perf_counter() - start < 1.0
        assert (parts is not None) == found
        assert parts is None or is_valid_minor_model(g, parts, t)


def test_verify_witness_rejects_junk():
    g = k(4)
    good = has_subdivision(g, 3)
    assert verify_witness(g, good, 3)
    assert not verify_witness(g, good, 4)
    assert not verify_witness(
        g, SubdivisionWitness((0, 1, 1), good.paths), 3
    )
    assert not verify_witness(g, SubdivisionWitness(good.branch, ()), 3)
    # a path visiting a non-edge
    bad = SubdivisionWitness((0, 1, 2), ((0, 1), (0, 2), (1, 3, 2)))
    g2 = Graph(4, [(0, 1), (0, 2), (1, 3)])
    assert not verify_witness(g2, bad, 3)


# K_5 at t=3 with one defect each; the base witness is valid.  Several
# defects would also fail a later check, or raise IndexError there.
BASE_BRANCH = (0, 1, 2)
BASE_PATHS = ((0, 1), (0, 2), (1, 3, 2))


@pytest.mark.parametrize("branch, paths", [
    (("a", 1, 2), BASE_PATHS),  # an id that is not an integer
    ((0, 1, 2), ((0, None), (0, 2), (1, 3, 2))),
    ((0, 1, 5), ((0, 1), (5, 0), (1, 5))),  # a branch id out of range
    ((-1, 1, 2), ((-1, 1), (-1, 2), (1, 2))),  # adj[-1] is vertex 4's
    ((0, 1, 2), ((),) + BASE_PATHS),  # a path shorter than 2
    ((0, 1, 2), ((0,), (0, 2), (1, 3, 2))),
    ((0, 1, 2), ((0, 1), (0, 2), (1, 3, 3, 2))),  # a repeated path vertex
    ((0, 1, 2), ((0, 1), (0, 2), (1, 7, 2))),  # a path vertex out of range
    ((0, 1, 2), ((0, 1), (0, 2), (1, -1, 2))),
    ((0, 1, 2), ((0, 4), (0, 2), (1, 3, 2))),  # an end that is no branch vertex
    ((0, 1, 2), BASE_PATHS + ((2, 4, 0),)),  # a pair already seen
    ((0, 1, 2), ((0, 1), (0, 2), (1, 0, 2))),  # an internal branch vertex
    ((0, 1, 2), ((0, 3, 1), (0, 2), (1, 3, 2))),  # an internal vertex used twice
])
def test_verify_witness_rejects_each_defect(branch, paths):
    g = k(5)
    assert verify_witness(g, SubdivisionWitness(BASE_BRANCH, BASE_PATHS), 3)
    assert not verify_witness(g, SubdivisionWitness(branch, paths), 3)


def test_verify_witness_rejects_a_pathless_branch_out_of_range():
    # at t=1 no path names the branch vertex; only its range check can
    g = k(5)
    assert verify_witness(g, SubdivisionWitness((4,), ()), 1)
    assert not verify_witness(g, SubdivisionWitness((5,), ()), 1)
    assert not verify_witness(g, SubdivisionWitness((-1,), ()), 1)


def test_witness_json_roundtrip():
    w = has_subdivision(subdivided_complete(4), 4)
    data = w.to_json()
    assert set(data) == {"branch", "paths"}
    back = SubdivisionWitness.from_json(data)
    assert back == w


def test_extraction_on_dense_graphs():
    for g in (k(10), k_minus_matching(10)):
        w = extract_subdivision_dense(g, 4)
        assert verify_witness(g, w, 4)
        assert Fraction(g.n) > max(Fraction(80, 11), Fraction(16, 5))


def test_extraction_preconditions():
    with pytest.raises(ExtractionError) as err:
        extract_subdivision_dense(Graph(5, [(i, (i + 1) % 5) for i in range(5)]), 4)
    assert err.value.reason == "precondition"
    with pytest.raises(ExtractionError):
        extract_subdivision_dense(Graph(3, []), 4)


@pytest.mark.parametrize("t", [4.5, 4.0, True, Fraction(4)])
def test_extraction_refuses_a_t_that_is_not_an_int(t):
    with pytest.raises(TypeError, match="^t must be an int"):
        extract_subdivision_dense(k(10), t)


def test_extraction_refuses_a_negative_t():
    with pytest.raises(ValueError, match="^t must be non-negative"):
        extract_subdivision_dense(k(10), -1)


def dense_graph(m, seed, keep):
    """K_m less random edges, none of whose removal drops a degree below
    9m/10; each candidate pair is removed with probability 1 - keep."""
    rng = random.Random(seed)
    floor_deg = -(-9 * m // 10)
    degree = [m - 1] * m
    pairs = list(combinations(range(m), 2))
    rng.shuffle(pairs)
    missing = set()
    for u, v in pairs:
        if rng.random() >= keep and min(degree[u], degree[v]) > floor_deg:
            missing.add((u, v))
            degree[u] -= 1
            degree[v] -= 1
    return Graph(m, [p for p in combinations(range(m), 2) if p not in missing])


def in_premise(g, t):
    """The premise under which the one pass is proved to succeed."""
    m = g.n
    min_deg = min(len(a) for a in g.adj)
    return 10 * min_deg >= 9 * m and 11 * m >= 20 * t and 5 * m > t * (t - 1)


# below 10 vertices a minimum degree of 9m/10 exceeds m - 1
@given(st.integers(10, 40), st.integers(0, 2**32), st.floats(0, 1), st.data())
@settings(max_examples=150, deadline=None)
def test_extraction_succeeds_under_its_premise(m, seed, keep, data):
    top = max(t for t in range(11 * m // 20 + 1) if t * (t - 1) < 5 * m)
    t = data.draw(st.integers(0, top))
    g = dense_graph(m, seed, keep)
    assert in_premise(g, t)
    w = extract_subdivision_dense(g, t)
    assert verify_witness(g, w, t)


@pytest.mark.parametrize("g, t", [
    (k_minus_matching(40), 14),
    (k(30), 12),
    (dense_graph(36, 7, 0.0), 13),
    (dense_graph(40, 11, 0.5), 14),
])
def test_extraction_beyond_a_million_subsets(g, t):
    # far more t-subsets than any scan could try: C(40, 14) > 10^10
    assert in_premise(g, t)
    start = time.perf_counter()
    w = extract_subdivision_dense(g, t)
    assert time.perf_counter() - start < 1.0
    assert verify_witness(g, w, t)


def test_extraction_meets_the_average():
    # m > max(20t/11, t^2/5) passes the gate at any degree; the chosen Y
    # misses at most the average C(t,2) miss(G) / C(m,2) pairs
    for seed in range(1000):
        rng = random.Random(seed)
        m, p = rng.randint(10, 30), rng.random()
        top = max(t for t in range(m) if t * t < 5 * m and 20 * t < 11 * m)
        t = rng.randint(2, top)
        g = Graph(m, [e for e in combinations(range(m), 2) if rng.random() < p])
        miss = m * (m - 1) // 2 - g.edge_count
        try:
            w = extract_subdivision_dense(g, t)
        except ExtractionError as err:
            if err.reason == "no_dense_subset":
                # the bar, 4 missing(Y) < m, is below the average too
                assert 4 * t * (t - 1) * miss >= m * m * (m - 1), seed
            continue
        assert verify_witness(g, w, t), seed
        missing = sum(len(path) == 3 for path in w.paths)
        assert missing * m * (m - 1) <= t * (t - 1) * miss, seed


def test_extraction_is_not_led_by_the_least_vertex():
    # K_5 on 0..4 beside a K_25, t = 10: adding the vertex with the most
    # neighbours in the set from vertex 0 on takes the K_5 and misses 25
    # pairs; the average is 90 * 125 / 870 < 13, and the pass keeps to
    # the K_25
    g = disjoint_union(k(5), k(25))
    w = extract_subdivision_dense(g, 10)
    assert min(w.branch) >= 5 and all(len(path) == 2 for path in w.paths)
    assert verify_witness(g, w, 10)


def test_extraction_failure_reports_reason():
    # dense enough to pass the gate but too sparse for a dense t-subset
    g = Graph(8, [(u, v) for u in range(8) for v in range(u + 1, 8)
                  if (u + v) % 2])
    try:
        w = extract_subdivision_dense(g, 4)
    except ExtractionError as err:
        assert err.reason in ("precondition", "no_dense_subset", "no_connector")
    else:
        assert verify_witness(g, w, 4)


def small_constructions():
    yield petersen()
    for n in range(3, 13):
        yield cycle(n)
    for n in range(9):
        yield complete(n)
    for parts in range(1, 6):
        yield complete_multipartite_222(parts)
    for n in range(1, 15):
        for k in range(5):
            yield path_power(n, k)


def assert_certificate_sound(g, t, oracle_limit=16):
    """The certificate never holds on a graph the search finds a witness in;
    returns whether it held.  The oracles' opening runs the certificate
    itself, so the search is asked with it switched off there."""
    if elimination_certificate(g, t):
        with search_only():
            assert has_subdivision(g, t, oracle_limit=oracle_limit) is None, (g, t)
        return True
    return False


@given(graphs(max_n=10), st.integers(min_value=0, max_value=7))
@settings(max_examples=150, deadline=None)
def test_certificate_sound_on_random_graphs(g, t):
    assert_certificate_sound(g, t)


def test_certificate_sound_on_acceptance_corpus():
    certified = sum(
        assert_certificate_sound(g, t, oracle_limit=18)
        for g in corpus()
        for t in range(8)
    )
    assert certified > 0


def test_certificate_sound_on_small_constructions():
    certified = sum(
        assert_certificate_sound(g, t)
        for g in small_constructions()
        for t in range(8)
    )
    assert certified > 0


def test_certificate_needs_the_fill():
    # 2-degenerate, so the degeneracy alone would pass it at t=4, but its
    # treewidth is 4 and it holds a K_4-subdivision
    g = grid(4, 4)
    assert degeneracy(g).d == 2
    assert has_subdivision(g, 4) is not None
    assert not elimination_certificate(g, 4)
    assert elimination_certificate(g, 6)


@pytest.mark.parametrize("n", (1, 2, 5, 14, 30, *WORD_EDGE_SIZES))
def test_certificate_holds_on_path_powers(n):
    for k in range(7):
        g = path_power(n, k)
        peel = degeneracy(g)
        assert elimination_certificate(g, k + 2, peel)
        assert elimination_certificate(g, k + 2)
        if n > k:  # holds K_{k+1}
            assert not elimination_certificate(g, k + 1, peel)


def test_certificate_time_linear_on_long_path_power():
    seconds = {}
    for n, repeats in ((10**4, 3), (10**5, 2)):
        g = path_power(n, 6)
        peel = degeneracy(g)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            assert elimination_certificate(g, 8, peel)
            best = min(best, time.perf_counter() - start)
        seconds[n] = best
    # linear time scales by 10; quadratic would scale by 100
    assert seconds[10**5] < 40 * seconds[10**4]


def test_certificate_holds_on_trees_and_cycles():
    rng = random.Random(7)
    for n in range(1, 120):
        tree = Graph(n, [(v, rng.randrange(v)) for v in range(1, n)])
        assert elimination_certificate(tree, 3)
        if n >= 2:
            assert not elimination_certificate(tree, 2)
    for n in range(3, 120):
        assert elimination_certificate(cycle(n), 4)
        assert not elimination_certificate(cycle(n), 3)


def test_certificate_never_holds_on_complete_or_at_t0():
    for t in range(10):
        assert not elimination_certificate(complete(t), t)
    for g in (Graph(0, []), Graph(1, []), path_power(30, 2), petersen()):
        assert not elimination_certificate(g, 0)


@pytest.mark.parametrize("t", [4.0, 3.5, True, Fraction(4)])
def test_certificate_refuses_a_t_that_is_not_an_int(t):
    # 4.0 used to hold and 3.5 to fail on path_power(6, 2), where the
    # oracles raise TypeError on the same t
    with pytest.raises(TypeError, match=re.escape(f"t must be an int, got {t!r}")):
        elimination_certificate(path_power(6, 2), t)
