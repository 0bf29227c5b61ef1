"""Local sparsity certificates and parameter derivations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from clique_census import (
    Graph,
    OracleLimitError,
    SparsityParams,
    check_local_sparsity,
    generalized_sparsity_params,
    lemma_sparsity_params,
)

from brute import peeling_certificate
from strategies import WORD_EDGE_SIZES, graphs, word_edge_graphs


def k(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_params_validation():
    with pytest.raises(TypeError):
        SparsityParams(0.5, 3)
    with pytest.raises(ValueError):
        SparsityParams(Fraction(3, 2), 3)
    with pytest.raises(ValueError):
        SparsityParams(Fraction(1, 2), 0)
    assert SparsityParams("1/2", 3).beta == Fraction(1, 2)


def test_lemma_params():
    p = lemma_sparsity_params(10, 4)
    assert p.beta == 1 - Fraction(10, 32)
    assert p.n_threshold == 8  # ceil(80/11)
    assert lemma_sparsity_params(0, 1).n_threshold == 2


def test_generalized_reproduces_lemma():
    for m, t in [(5, 4), (10, 4), (7, 5)]:
        base = lemma_sparsity_params(m, t)
        gen, size_bound = generalized_sparsity_params(
            m, t, Fraction(1, 10), Fraction(1, 2)
        )
        assert gen == base
        assert size_bound == max(Fraction(20 * t, 11), Fraction(t * t, 5))


def test_generalized_validation():
    with pytest.raises(TypeError):
        generalized_sparsity_params(5, 4, 0.1, Fraction(1, 2))
    with pytest.raises(ValueError):
        generalized_sparsity_params(5, 4, Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        generalized_sparsity_params(5, 4, Fraction(1, 10), Fraction(0))


def test_complete_graph_violates():
    params = SparsityParams(Fraction(1, 2), 4)
    cert = check_local_sparsity(k(12), params)
    assert cert.verdict == "violated"
    # the witness really is a counterexample subset
    w = cert.witness
    assert len(w) >= 4
    assert len(w) - 1 > Fraction(1, 2) * len(w)


def test_edgeless_is_sparse():
    cert = check_local_sparsity(Graph(6, []), SparsityParams(Fraction(1, 10), 2))
    assert cert.verdict == "sparse"
    assert cert.witness is None


def test_exhaustive_limit():
    with pytest.raises(OracleLimitError):
        check_local_sparsity(Graph(23, []), SparsityParams(Fraction(1, 2), 2))
    with pytest.raises(OracleLimitError):
        check_local_sparsity(
            Graph(11, []), SparsityParams(Fraction(1, 2), 2), exhaustive_limit=10
        )
    cert = check_local_sparsity(
        Graph(11, []), SparsityParams(Fraction(1, 2), 2), exhaustive_limit=11
    )
    assert cert.verdict == "sparse"


def test_bad_mode():
    with pytest.raises(ValueError):
        check_local_sparsity(k(3), SparsityParams(Fraction(1, 2), 2), mode="x")


@given(graphs(max_n=9))
@settings(max_examples=40)
def test_peeling_agrees_with_exhaustive(g):
    params = SparsityParams(Fraction(1, 2), max(1, g.n // 2))
    full = check_local_sparsity(g, params)
    peel = check_local_sparsity(g, params, mode="peeling")
    if peel.verdict == "violated":
        assert full.verdict == "violated"
    if full.verdict == "sparse":
        assert peel.verdict == "unknown"


def _assert_peeling_matches_reference(g, params):
    cert = check_local_sparsity(g, params, mode="peeling")
    assert (cert.verdict, cert.witness) == peeling_certificate(
        g, params.beta, params.n_threshold
    )


@given(
    graphs(max_n=14),
    st.fractions(min_value=0, max_value=1, max_denominator=12),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=150)
def test_peeling_matches_rescanning_reference(g, beta, threshold):
    _assert_peeling_matches_reference(g, SparsityParams(beta, threshold))


@pytest.mark.parametrize("n", WORD_EDGE_SIZES)
def test_peeling_matches_rescanning_reference_at_word_edges(n):
    for g in word_edge_graphs(n):
        for beta, threshold in [(Fraction(1, 10), 2), (Fraction(1, 20), 5),
                                (Fraction(1, 2), 12), (Fraction(1), 1),
                                (Fraction(0), n)]:
            _assert_peeling_matches_reference(g, SparsityParams(beta, threshold))


@given(graphs(max_n=9))
@settings(max_examples=40)
def test_violation_witness_is_real(g):
    params = SparsityParams(Fraction(2, 5), 2)
    cert = check_local_sparsity(g, params)
    if cert.verdict == "violated":
        w = sorted(cert.witness)
        assert len(w) >= params.n_threshold
        for v in w:
            deg = len(g.adj[v] & set(w))
            assert deg > params.beta * len(w)


def test_certificate_json():
    cert = check_local_sparsity(k(5), SparsityParams(Fraction(1, 2), 3))
    data = cert.to_json()
    assert data["verdict"] == "violated"
    assert data["beta"] == "1/2"
    assert isinstance(data["witness"], list)
