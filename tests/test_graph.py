"""Graph construction, parsing, and ordering primitives."""

import random

import pytest
from fractions import Fraction
from hypothesis import given
import hypothesis.strategies as st

from clique_census import (
    Graph,
    GraphParseError,
    average_degree,
    degeneracy,
    induced_subgraph,
    parse_dimacs,
    parse_graph,
    serialize,
)
from clique_census.graph import load_graph, mask_vertices, min_degree_in, rows

from brute import naive_degeneracy
from strategies import WORD_EDGE_SIZES, graphs, word_edge_graphs


def test_parse_path():
    g = parse_graph("3 2\n0 1\n1 2")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_duplicate_mismatch():
    with pytest.raises(GraphParseError):
        parse_graph("3 3\n0 1\n0 1\n1 2")


def test_parse_duplicate_collapses():
    g = parse_graph("3 2\n0 1\n0 1\n1 2")
    assert g.edges() == [(0, 1), (1, 2)]


def test_parse_comments_and_blank_lines():
    g = parse_graph("# header\n3 1\n\n# edge\n0 2\n")
    assert g.edges() == [(0, 2)]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "3 1\n1 1",
        "3 1\n0 5",
        "3 1\n0 1 2",
        "3 1\nx y",
        "3 2\n0 1",
        "-1 0",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(GraphParseError):
        parse_graph(text)


def test_parse_dimacs():
    g = parse_dimacs("c comment\np edge 3 2\ne 1 2\ne 2 3\n")
    assert g.n == 3
    assert g.edges() == [(0, 1), (1, 2)]


@pytest.mark.parametrize(
    "text",
    [
        "p edge 3\ne 1 2",
        "e 1 2",
        "p edge 3 1\ne 1 1",
        "p edge 3 1\ne 1 9",
        "z 1 2",
        "p edge -2 0",
        "p edge 3 1\ne 1 2\np edge 2 0",
    ],
)
def test_parse_dimacs_rejects(text):
    with pytest.raises(GraphParseError):
        parse_dimacs(text)


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("c comment\np edge -2 0", 2),
        ("p edge 3 1\ne 1 2\np edge 2 0", 3),
        ("p edge 3 -7\ne 1 2", 1),
    ],
)
def test_parse_dimacs_header_faults_carry_line_numbers(text, line_no):
    # a negative vertex count, a second problem line redefining n, and a
    # negative edge count
    with pytest.raises(GraphParseError) as info:
        parse_dimacs(text)
    assert info.value.line_no == line_no


@pytest.mark.parametrize(
    "text, line_no",
    [("c comment\np edge x 3", 2), ("p edge 3 1\ne 1 y", 2), ("p edge 3 x\ne 1 2", 1)],
)
def test_parse_dimacs_non_integer_fields(text, line_no):
    with pytest.raises(GraphParseError) as info:
        parse_dimacs(text)
    assert info.value.line_no == line_no
    assert str(info.value).startswith(f"line {line_no}:")


def test_load_graph_dispatch(tmp_path):
    edge_file = tmp_path / "g.txt"
    edge_file.write_text("2 1\n0 1\n")
    col_file = tmp_path / "g.col"
    col_file.write_text("p edge 2 1\ne 1 2\n")
    sniffed = tmp_path / "g2.txt"
    sniffed.write_text("c dimacs by content\np edge 2 1\ne 1 2\n")
    assert load_graph(str(edge_file)) == load_graph(str(col_file))
    assert load_graph(str(sniffed)).edges() == [(0, 1)]


@given(graphs())
def test_serialize_roundtrip(g):
    assert parse_graph(serialize(g)) == g


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


def test_graph_deduplicates():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1
    assert g.has_edge(1, 0)


@given(graphs())
def test_bits_match_adj(g):
    for v in range(g.n):
        assert rows(g)[v] == sum(1 << u for u in g.adj[v])
        assert v not in g.adj[v]


def test_graph_equality_and_hash_follow_the_edge_set():
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    g = Graph(4, edges)
    same = Graph(4, [(v, u) for u, v in reversed(edges)])
    assert g == same and hash(g) == hash(same)
    assert g != Graph(4, edges[:3] + [(1, 3)])
    assert g != Graph(5, edges)
    assert g != Graph(4, edges[:3])


@pytest.mark.parametrize("n", WORD_EDGE_SIZES)
def test_rows_of_induced_subgraphs_at_word_edges(n):
    # the hub (vertex 0 of the third graph) is adjacent to every vertex
    rng = random.Random(n)
    for g in word_edge_graphs(n):
        assert rows(g) == [sum(1 << u for u in g.adj[v]) for v in range(n)]
        for vertices in (
            [0] + rng.sample(range(1, n), n // 3),
            range(n - 12, n),
            [v for v in (0, 62, 63, 64, 65, n - 1) if v < n],
            range(n),
            [],
        ):
            sub, new_to_old = induced_subgraph(g, vertices)
            local = rows(g, vertices)
            assert local == rows(sub)
            assert local == [sum(1 << u for u in sub.adj[v]) for v in range(sub.n)]
            assert list(new_to_old) == sorted(set(vertices))
    with pytest.raises(ValueError):
        rows(Graph(3, []), [1, 3])
    with pytest.raises(ValueError):
        rows(Graph(3, []), [-1, 1])


def test_induced_subgraph_relabels_sorted():
    g = Graph(5, [(0, 2), (2, 4), (1, 3)])
    sub, new_to_old = induced_subgraph(g, [4, 0, 2])
    assert new_to_old == (0, 2, 4)
    assert sub.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        induced_subgraph(g, [9])


@given(graphs(), st.data())
def test_induced_subgraph_edges(g, data):
    verts = data.draw(st.sets(st.integers(0, max(0, g.n - 1)), max_size=g.n))
    verts = {v for v in verts if v < g.n}
    sub, new_to_old = induced_subgraph(g, verts)
    assert sub.n == len(verts)
    for i in range(sub.n):
        for j in range(i + 1, sub.n):
            assert sub.has_edge(i, j) == g.has_edge(new_to_old[i], new_to_old[j])


def test_min_degree_in_ties_break_low():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert min_degree_in(rows(g), g.full_mask()) == 0
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert min_degree_in(rows(star), star.full_mask()) == 1
    # within {0, 3}: deg(0)=1, deg(3)=1, tie -> 0
    assert min_degree_in(rows(star), 0b1001) == 0


@given(graphs(max_n=12), st.integers(min_value=1, max_value=(1 << 12) - 1))
def test_min_degree_in_is_lowest_min_degree(g, mask):
    mask &= g.full_mask()
    if mask == 0:
        return
    vertices = mask_vertices(mask)
    degrees = {v: len(g.adj[v] & set(vertices)) for v in vertices}
    expected = min(vertices, key=lambda v: (degrees[v], v))
    assert min_degree_in(rows(g), mask) == expected


def test_min_degree_in_stops_at_degree_zero():
    # edge 0-1, vertex 2 isolated: no row after 2 may be read
    class Rows(list):
        def __getitem__(self, v):
            assert v <= 2, f"row {v} read after an isolated vertex"
            return list.__getitem__(self, v)

    assert min_degree_in(Rows([0b10, 0b01, 0, 0b10000, 0b1000]), 0b11111) == 2


def test_degeneracy_known_values():
    assert degeneracy(Graph(4, [])).d == 0
    assert degeneracy(Graph(4, [(0, 1), (1, 2), (2, 3)])).d == 1
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert degeneracy(k4).d == 3


@given(graphs())
def test_degeneracy_suffix_property(g):
    d, order = degeneracy(g)
    assert sorted(order) == list(range(g.n))
    for i, v in enumerate(order):
        suffix = set(order[i:])
        assert len(g.adj[v] & suffix) <= d
    if g.n:
        assert d <= max(len(g.adj[v]) for v in range(g.n))


@given(graphs(max_n=14))
def test_degeneracy_matches_naive_peel(g):
    assert tuple(degeneracy(g)) == naive_degeneracy(g)


@pytest.mark.parametrize("n", WORD_EDGE_SIZES)
def test_degeneracy_matches_naive_peel_at_word_edges(n):
    for g in word_edge_graphs(n):
        assert tuple(degeneracy(g)) == naive_degeneracy(g)


def test_average_degree():
    g = Graph(3, [(0, 1), (1, 2)])
    assert average_degree(g) == Fraction(4, 3)
    with pytest.raises(ValueError):
        average_degree(Graph(0, []))
