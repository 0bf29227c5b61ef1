"""Graph construction, parsing, and ordering primitives."""

import random
import re

import pytest
from fractions import Fraction
from hypothesis import given, settings
import hypothesis.strategies as st

from clique_census import (
    Graph,
    GraphParseError,
    average_degree,
    complete,
    complete_multipartite_222,
    cycle,
    degeneracy,
    induced_subgraph,
    parse_dimacs,
    parse_graph,
    path_power,
    serialize,
)
from clique_census.graph import _canonical, load_graph, mask_vertices, min_degree_in, rows

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
    # in either orientation
    assert parse_graph("2 1\n0 1\n1 0").edges() == [(0, 1)]
    assert parse_dimacs("p edge 2 2\ne 1 2\ne 2 1").edges() == [(0, 1)]


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


READER_ERRORS = [
    (parse_graph, "", 'missing header line "n m"', None),
    (parse_graph, "3 1\n1 1", "line 2: self-loop at vertex 1", 2),
    (parse_graph, "3 1\n0 5", "line 2: vertex id out of range in '0 5'", 2),
    (parse_graph, "3 1\n0 1 2", "line 2: expected two integers, got '0 1 2'", 2),
    (parse_graph, "3 1\nx y", "line 2: expected two integers, got 'x y'", 2),
    (parse_graph, "3 2\n0 1", "line 1: declared 2 edges but found 1 after deduplication", 1),
    (parse_graph, "-1 0", "line 1: header counts must be nonnegative", 1),
    (parse_graph, "3 3\n0 1\n1 0\n1 2",
     "line 1: declared 3 edges but found 2 after deduplication", 1),
    (parse_graph, "# made by hand\n\n3 2\n0 1",
     "line 3: declared 2 edges but found 1 after deduplication", 3),
    (parse_dimacs, "p edge 3\ne 1 2", "line 1: bad problem line 'p edge 3'", 1),
    (parse_dimacs, "e 1 2", "line 1: edge line before problem line", 1),
    (parse_dimacs, "p edge 3 1\ne 1 1", "line 2: self-loop at vertex 1", 2),
    (parse_dimacs, "p edge 3 1\ne 1 9", "line 2: vertex id out of range in 'e 1 9'", 2),
    (parse_dimacs, "z 1 2", "line 1: unrecognized line 'z 1 2'", 1),
    (parse_dimacs, "p edge -2 0", "line 1: vertex count must be nonnegative", 1),
    (parse_dimacs, "p edge 3 1\ne 1 2\np edge 2 0", "line 3: second problem line", 3),
    (parse_dimacs, "p edge 3 1\ne 1 2 3", "line 2: bad edge line 'e 1 2 3'", 2),
    (parse_dimacs, "p edge 3 1\ne 1", "line 2: bad edge line 'e 1'", 2),
    (parse_dimacs, "p edge 3 1\ne 1 x", "line 2: bad edge line 'e 1 x'", 2),
    (parse_dimacs, "c no problem line\n", "missing problem line", None),
]
# the edge-list rows with a final newline: those whose lines are all
# "u v" take the bulk path up to the fault, and must report it alike
READER_ERRORS += [(reader, text + "\n", message, line_no)
                  for reader, text, message, line_no in READER_ERRORS
                  if reader is parse_graph and text]


@pytest.mark.parametrize("reader, text, message, line_no", READER_ERRORS)
def test_reader_errors_are_pinned(reader, text, message, line_no):
    with pytest.raises(GraphParseError) as info:
        reader(text)
    assert str(info.value) == message
    assert info.value.line_no == line_no


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


@pytest.mark.parametrize(
    "text",
    [
        "c\tmade by hand\np edge 3 2\ne 1 2\ne 2 3\n",
        "p\tedge 3 2\ne 1 2\ne 2 3\n",
        "comment made by hand\np edge 3 2\ne 1 2\ne 2 3\n",
        "\n  \t\nc\np edge 3 2\ne 1 2\ne 2 3\n",
    ],
)
def test_load_graph_reads_dimacs_by_its_first_line(tmp_path, text):
    # the rule parse_dimacs reads lines by: a comment starts with "c", the
    # problem line has the token "p", whatever whitespace follows
    f = tmp_path / "g.txt"
    f.write_text(text)
    assert load_graph(str(f)) == parse_dimacs(text) == path_power(3, 1)


@pytest.mark.parametrize(
    "text",
    ["# made by hand\n3 2\n0 1\n1 2\n", "#c\n3 2\n0 1\n1 2\n", "\n3\t2\n0 1\n1 2\n"],
)
def test_load_graph_reads_edge_lists_opening_with_a_comment(tmp_path, text):
    f = tmp_path / "g.txt"
    f.write_text(text)
    assert load_graph(str(f)) == parse_graph(text) == path_power(3, 1)


@pytest.mark.parametrize(
    "data, line_no",
    [
        (b"3 2\n0 1\n1 \xff2\n", 3),
        (b"\xff", 1),
        (b"3 2\r\n0 1\r\n\r\n1 2 \xc3\n", 4),
        (b"c by hand\np edge 3 2\ne 1 2\ne 2 \xe2\x82\n", 4),
    ],
)
def test_load_graph_reports_the_line_of_a_byte_that_is_not_utf8(tmp_path, data, line_no):
    f = tmp_path / "g.txt"
    f.write_bytes(data)
    with pytest.raises(GraphParseError) as info:
        load_graph(str(f))
    assert info.value.line_no == line_no
    assert str(info.value).startswith(f"line {line_no}: invalid UTF-8 byte 0x")


@pytest.mark.parametrize(
    "suffix, text",
    [(".txt", "3 2\n0 1\n1 2\n"), (".col", "p edge 3 2\ne 1 2\ne 2 3\n")],
)
def test_load_graph_skips_a_byte_order_mark(tmp_path, suffix, text):
    plain, marked = tmp_path / f"plain{suffix}", tmp_path / f"marked{suffix}"
    plain.write_bytes(text.encode())
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_graph(str(marked)) == load_graph(str(plain)) == path_power(3, 1)


def test_load_graph_counts_a_bad_byte_after_a_byte_order_mark(tmp_path):
    f = tmp_path / "g.txt"
    f.write_bytes(b"\xef\xbb\xbf3 2\n0 1\n1 \xff2\n")
    with pytest.raises(GraphParseError, match="^line 3: invalid UTF-8 byte 0xff$"):
        load_graph(str(f))


@given(graphs())
def test_serialize_roundtrip(g):
    assert parse_graph(serialize(g)) == g


# a comment line sends any text to parse_graph's line scan
SCAN = "# c\n"


@st.composite
def edge_list_texts(draw, graph, m=None):
    """Canonical-form text of graph: every edge on at least one line, in
    either orientation, some lines repeated, ids with leading zeros, in
    any order, under the header "n m" (m the graph's unless given)."""
    def number(v):
        return "0" * draw(st.integers(0, 2)) + str(v)

    lines = graph.edges()
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=5))
    lines = [(v, u) if draw(st.booleans()) else (u, v) for u, v in draw(st.permutations(lines))]
    header = (graph.n, graph.edge_count if m is None else m)
    return "".join(f"{number(a)} {number(b)}\n" for a, b in [header, *lines])


def parse_error(text):
    with pytest.raises(GraphParseError) as info:
        parse_graph(text)
    return info.value


@given(st.data(), graphs())
def test_bulk_and_line_scan_read_the_same_graph(data, g):
    text = data.draw(edge_list_texts(g))
    assert _canonical(text)
    assert parse_graph(text) == parse_graph(SCAN + text) == g


@given(st.data(), graphs(min_n=1),
       st.sampled_from(["out of range", "self-loop", "declared m", "no vertices"]))
def test_bulk_and_line_scan_report_a_fault_alike(data, g, fault):
    if fault == "declared m":
        text = data.draw(edge_list_texts(g, m=data.draw(
            st.integers(0, 50).filter(lambda m: m != g.edge_count))))
    else:
        text = data.draw(edge_list_texts(g))
        lines = text.splitlines(keepends=True)
        u = data.draw(st.integers(0, g.n - 1))
        bad = {"out of range": f"{u} {g.n + data.draw(st.integers(0, 3))}\n",
               "self-loop": f"{u} {u}\n",
               "no vertices": "0 1\n"}[fault]
        if fault == "no vertices":
            lines[0] = f"0 {data.draw(st.integers(0, 3))}\n"
        at = data.draw(st.integers(1, len(lines)))
        text = "".join(lines[:at] + [bad] + lines[at:])
    assert _canonical(text)
    bulk, scan = parse_error(text), parse_error(SCAN + text)
    assert scan.line_no == bulk.line_no + 1
    assert str(bulk).split(": ", 1)[1] == str(scan).split(": ", 1)[1]


@pytest.mark.parametrize("text, canonical", [
    ("3 2\n0 1\n1 2\n", True),
    ("0 0\n", True),
    ("007 1\n00 3\n", True),
    ("", False),
    ("\n", False),
    ("3 0", False),
    ("3 0\n\n", False),
    ("3 1\n0 1\n\n", False),
    (" 3 0\n", False),
    ("3  0\n", False),
    ("3 0 \n", False),
    ("3 0\n 0 1\n", False),
    ("3 1 0\n1\n", False),
    ("3\n1 0 1\n", False),
    ("3 1\r\n0 1\r\n", False),
    ("3\t1\n0 1\n", False),
    ("-3 1\n0 1\n", False),
    ("3 1\n0 \u0661\n", False),
    ("3 1\n0 1_0\n", False),
    ("3 1\n0 1\n\ud800", False),
    # the separators alternate, but a run of digits is empty
    (" 3\n", False),
    ("3 \n", False),
    ("3 1\n 1\n", False),
])
def test_canonical_form(text, canonical):
    assert _canonical(text) is canonical


@settings(max_examples=300)
@given(st.text(alphabet="0123  \n\r\t#-x", max_size=24))
def test_parse_graph_reads_any_text_as_its_line_scan_does(text):
    # the line scan of SCAN + text sees text's lines one line lower
    def read(text):
        try:
            return parse_graph(text)
        except GraphParseError as err:
            message = str(err).split(": ", 1)[-1] if err.line_no else str(err)
            return message, err.line_no

    got, scanned = read(text), read(SCAN + text)
    if isinstance(got, tuple) and got[1] is not None:
        scanned = (scanned[0], scanned[1] - 1)
    assert got == scanned


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(-1, [])


@pytest.mark.parametrize("n", [True, False, 3.0, Fraction(3), "3"])
def test_graph_refuses_a_vertex_count_that_is_not_an_int(n):
    # Graph(True, []) used to serialize as "True 0", which parse_graph refuses
    with pytest.raises(TypeError, match=f"^n must be an int, got {re.escape(repr(n))}$"):
        Graph(n, [])


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
            # independent of rows: the subgraph's edges against g's own
            for i in range(sub.n):
                for j in range(i + 1, sub.n):
                    assert sub.has_edge(i, j) == g.has_edge(new_to_old[i], new_to_old[j])
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


def test_bucket_peel_on_tie_heavy_graphs():
    star = Graph(10, [(0, v) for v in range(1, 10)])
    star_at_top = Graph(10, [(9, v) for v in range(9)])
    wheel = Graph(13, [(0, v) for v in range(1, 13)]
                  + [(v, v % 12 + 1) for v in range(1, 13)])
    cases = [Graph(0, []), Graph(7, []), complete(1), complete(9), star, star_at_top,
             path_power(30, 3), path_power(66, 6), complete_multipartite_222(5),
             cycle(12), wheel]
    for g in cases:
        assert tuple(degeneracy(g)) == naive_degeneracy(g)
    # the last leaf and the hub tie at degree 1, and the hub has the smaller id
    assert degeneracy(star) == (1, tuple(range(1, 9)) + (0, 9))
    assert degeneracy(star_at_top) == (1, tuple(range(10)))


def test_bucket_peel_steps_below_the_current_bucket():
    # removing a vertex of the lowest bucket b drops each neighbour to
    # b - 1, below that bucket, so the next pop comes from bucket b - 1
    assert degeneracy(complete(4)) == (3, (0, 1, 2, 3))
    assert degeneracy(cycle(5)) == (2, (0, 1, 2, 3, 4))
    # peeling 4 and the cycle 5-6-7-8 drops 5 from degree 4 to 1 a bucket
    # at a time, leaving a stale entry in each bucket it passes
    g = Graph(9, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (1, 3), (0, 5),
                  (4, 5), (5, 6), (6, 7), (7, 8), (5, 8), (4, 1)])
    assert degeneracy(g) == (3, (4, 6, 7, 8, 5, 0, 1, 2, 3))
    assert tuple(degeneracy(g)) == naive_degeneracy(g)


def test_average_degree():
    g = Graph(3, [(0, 1), (1, 2)])
    assert average_degree(g) == Fraction(4, 3)
    with pytest.raises(ValueError):
        average_degree(Graph(0, []))
