"""Command-line interface: formats, exit codes, determinism, config echo."""

import io
import json
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings

from clique_census import (
    Graph,
    build_tree,
    complete,
    complete_multipartite_222,
    enumerate_cliques,
    path_power,
    random_gnp,
    serialize,
)
from clique_census import cli
from clique_census.cli import main
from clique_census.tree import _clique_blocks

from strategies import WORD_EDGE_SIZES, graphs, word_edge_graphs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_text(capsys):
    code, out, _ = run(capsys, "count", "--construct", "path_power:n=20,k=3")
    assert code == 0
    assert out == "144\n"


def test_count_json_embeds_config(capsys):
    code, out, _ = run(
        capsys,
        "count",
        "--construct",
        "path_power:n=20,k=3",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "144"
    cfg = payload["config"]
    assert cfg["command"] == "count"
    assert cfg["input"] == "path_power:n=20,k=3"
    assert cfg["format"] == "json"


def test_census_text_and_json(capsys):
    code, out, _ = run(capsys, "census", "--construct", "complete:n=4")
    assert code == 0
    assert out == "0 1\n1 4\n2 6\n3 4\n4 1\n"
    code, out, _ = run(
        capsys, "census", "--construct", "complete:n=4", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["census"] == ["1", "4", "6", "4", "1"]
    assert payload["total"] == "16"


def test_enumerate_text_and_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--construct", "complete:n=2")
    assert code == 0
    assert out == "\n0\n0 1\n1\n"
    code, out, _ = run(
        capsys, "enumerate", "--construct", "complete:n=2", "--format", "json"
    )
    assert json.loads(out)["cliques"] == [[], [0], [0, 1], [1]]


def test_enumerate_json_streams_the_same_bytes(capsys, tmp_path):
    rng = random.Random(3)
    pairs = [(u, v) for u in range(25) for v in range(u + 1, 25)]
    graphs = [
        Graph(0, []),
        complete(2),
        path_power(30, 2),
        Graph(25, [e for e in pairs if rng.random() < 0.3]),
    ]
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.txt"
        path.write_text(serialize(g))
        code, out, _ = run(capsys, "enumerate", str(path), "--format", "json")
        assert code == 0
        payload = {
            "config": json.loads(out)["config"],
            "cliques": [sorted(c) for c in enumerate_cliques(g)],
        }
        assert out == json.dumps(payload, indent=2) + "\n"


def _preorder_listing(g):
    """The text listing built independently from build_tree's preorder."""
    return "".join(" ".join(map(str, sorted(node.clique()))) + "\n"
                   for node in build_tree(g).nodes)


def _assert_text_listing(g, directory):
    graph_path = Path(directory) / "g.txt"
    graph_path.write_text(serialize(g))
    listing_path = Path(directory) / "listing.txt"
    assert main(["enumerate", str(graph_path), "--output", str(listing_path)]) == 0
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        assert main(["enumerate", str(graph_path)]) == 0
    expected = _preorder_listing(g)
    assert listing_path.read_text() == expected
    assert stdout.getvalue() == expected


def _assert_json_listing(g, directory):
    """The JSON listing of g equals json.dumps of build_tree's preorder."""
    graph_path = Path(directory) / "g.txt"
    graph_path.write_text(serialize(g))
    listing_path = Path(directory) / "listing.json"
    assert main(["enumerate", str(graph_path), "--format", "json",
                 "--output", str(listing_path)]) == 0
    out = listing_path.read_text()
    cliques = [sorted(node.clique()) for node in build_tree(g).nodes]
    payload = {"config": json.loads(out)["config"], "cliques": cliques}
    assert out == json.dumps(payload, indent=2) + "\n"


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_enumerate_text_matches_tree_preorder(g):
    with tempfile.TemporaryDirectory() as directory:
        _assert_text_listing(g, directory)


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_enumerate_json_matches_tree_preorder(g):
    with tempfile.TemporaryDirectory() as directory:
        _assert_json_listing(g, directory)


@pytest.mark.parametrize("n", WORD_EDGE_SIZES)
def test_enumerate_text_matches_tree_preorder_at_word_edges(n, tmp_path):
    for g in word_edge_graphs(n):
        _assert_text_listing(g, tmp_path)


def test_enumerate_text_across_write_batches(tmp_path):
    _assert_text_listing(Graph(0, []), tmp_path)
    g = complete_multipartite_222(8)  # 3^8 = 6561 cliques
    assert 6561 > cli._LISTING_BATCH
    _assert_text_listing(g, tmp_path)


def test_enumerate_json_across_write_batches(tmp_path):
    g = complete_multipartite_222(8)
    assert 3 ** 8 > cli._LISTING_BATCH
    _assert_json_listing(g, tmp_path)


def test_enumerate_block_larger_than_a_write_batch(tmp_path):
    # the first root child of K_14 is one block: 0 plus any subset of 1..13
    g = complete(14)
    assert 2 ** 13 > cli._LISTING_BATCH
    _assert_text_listing(g, tmp_path)
    _assert_json_listing(g, tmp_path)


@pytest.mark.parametrize("n", [13, 17])
def test_enumerate_blocks_around_the_chunk_cap(n, tmp_path):
    # K_n's first block has n - 1 tail ids: K_13's is formatted whole as
    # 2^12 lines, K_17's streams four levels above such a text
    g = complete(n)
    _assert_text_listing(g, tmp_path)
    _assert_json_listing(g, tmp_path)


def _assert_listings_match_tree_preorder(g, directory):
    _assert_text_listing(g, directory)
    _assert_json_listing(g, directory)
    assert list(enumerate_cliques(g)) == [node.clique() for node in build_tree(g).nodes]


def test_enumerate_run_longer_than_a_formatted_text(tmp_path):
    # vertex 0 is joined to K_14 minus the edge 1-2 on 1..14, whose ids
    # are also joined to 15 and 16, so 0 peels first; its child loop
    # branches on 1, then 2..14 is a clique: a run of 13 > _WHOLE_TAIL
    # ids, streamed without its first line
    core = range(1, 15)
    edges = [(u, v) for u in core for v in core if u < v and (u, v) != (1, 2)]
    edges += [(a, u) for a in (0, 15, 16) for u in core] + [(15, 16)]
    g = Graph(17, edges)
    runs = [(chosen, tail) for chosen, tail, first in _clique_blocks(g) if not first]
    assert ((0,), tuple(range(2, 15))) in runs
    assert 13 > cli._WHOLE_TAIL
    _assert_listings_match_tree_preorder(g, tmp_path)


def test_enumerate_random_graphs_match_tree_preorder(tmp_path):
    for n in range(1, 41):
        g = random_gnp(n, Fraction(1 + n % 3, 5), seed=n)
        _assert_listings_match_tree_preorder(g, tmp_path)


def _subsets_in_preorder(ids, prefix=()):
    yield prefix
    for i, v in enumerate(ids):
        yield from _subsets_in_preorder(ids[i + 1:], prefix + (v,))


def test_enumerate_streams_a_block():
    # K_40's first block alone holds 2^39 lines; they come a chunk at a time
    chunks = cli._listing(complete(40))
    first = next(chunks)
    lines = first.split("\n")[1:]  # every line starts with "\n"
    assert len(lines) == cli._LISTING_BATCH
    assert lines[:10] == ["", "0", "0 1", "0 1 2", "0 1 2 3", "0 1 2 3 4", "0 1 2 3 4 5",
                          "0 1 2 3 4 5 6", "0 1 2 3 4 5 6 7", "0 1 2 3 4 5 6 7 8"]
    # the first chunk ends inside a streamed copy; the next one goes on from there
    lines += next(chunks).split("\n")[1:]
    expected = islice(_subsets_in_preorder(tuple(range(40))), 2 * cli._LISTING_BATCH)
    assert lines == [" ".join(map(str, s)) for s in expected]


class _Writes(io.StringIO):
    """An output stream that keeps every write apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("spec, cliques", [("complete:n=16", 2 ** 16),
                                           ("complete_multipartite:k=8", 3 ** 8)])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_enumerate_writes_at_most_a_chunk(spec, cliques, fmt):
    out = _Writes()
    with redirect_stdout(out):
        assert main(["enumerate", "--construct", spec, "--format", fmt]) == 0
    # a text clique is one line; a JSON one opens with "[" at indent 4
    mark = "\n" if fmt == "text" else "\n    ["
    counts = [text.count(mark) for text in out.writes]
    assert max(counts) <= cli._LISTING_BATCH
    assert sum(counts) == cliques
    if fmt == "json":
        assert len(json.loads(out.getvalue())["cliques"]) == cliques


def test_generate_then_count_roundtrip(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code, out, _ = run(
        capsys,
        "generate",
        "--construct",
        "path_power:n=20,k=3",
        "--output",
        str(path),
    )
    assert code == 0
    assert out == ""
    header = path.read_text().splitlines()[0]
    assert header == "20 54"
    code, out, _ = run(capsys, "count", str(path))
    assert code == 0
    assert out == "144\n"


def test_generate_json_predicts(capsys):
    code, out, _ = run(
        capsys,
        "generate",
        "--construct",
        "complete_multipartite:k=3",
        "--format",
        "json",
    )
    payload = json.loads(out)
    assert payload["n"] == 6
    assert payload["predicted_clique_count"] == "27"
    assert payload["config"]["spec"]["family"] == "complete_multipartite"
    assert len(payload["edges"]) == 12


def test_construct_from_json_file(capsys, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"family": "path_power", "params": {"n": 20, "k": 3}})
    )
    code, out, _ = run(capsys, "count", "--construct", str(spec))
    assert code == 0
    assert out == "144\n"


def test_construct_from_json_file_with_a_byte_order_mark(capsys, tmp_path):
    text = json.dumps({"family": "random_gnp", "params": {"n": 12, "p": "1/2"}, "seed": 3})
    outputs = []
    for name, data in (("plain.json", text.encode()), ("marked.json", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / name).write_bytes(data)
        outputs.append(run(capsys, "generate", "--construct", str(tmp_path / name)))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1].startswith("12 ")


def test_byte_determinism(capsys):
    argv = (
        "census",
        "--construct",
        "random_gnp:n=14,p=1/2,seed=9",
        "--format",
        "json",
    )
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_seed_override(capsys):
    _, base, _ = run(
        capsys, "count", "--construct", "random_gnp:n=12,p=1/2,seed=7"
    )
    _, overridden, _ = run(
        capsys,
        "count",
        "--construct",
        "random_gnp:n=12,p=1/2,seed=1",
        "--seed",
        "7",
    )
    assert overridden == base


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "count")[0] == 2
    f = tmp_path / "g.txt"
    f.write_text("1 0\n")
    assert run(capsys, "count", str(f), "--construct", "complete:n=3")[0] == 2
    assert run(capsys, "count", "--construct", "mystery:n=3")[0] == 2
    assert run(capsys, "count", str(tmp_path / "missing.txt"))[0] == 2
    assert run(capsys, "bounds")[0] == 2
    # 0 is a given --lower-bound, out of range
    code, _, err = run(capsys, "bounds", "--lower-bound", "0")
    assert (code, err) == (2, "error: lower_bound_constant needs k >= 1\n")
    code, _, err = run(capsys, "count", "--construct", "path_power:n=5")
    assert (code, err) == (2, "error: construction path_power needs parameter 'k'\n")
    # a negative limit is a usage error, not a limit hit
    for argv in (
        ["check-subdivision", "--construct", "petersen", "--t", "5", "--oracle-limit", "-1"],
        ["check-minor", "--construct", "petersen", "--t", "5", "--oracle-limit", "-1"],
        # the limit is checked before the certificate, which decides this graph
        ["check-subdivision", "--construct", "path_power:n=30,k=2", "--t", "5",
         "--oracle-limit", "-1"],
        ["sparse-check", "--construct", "petersen", "--t", "5", "--exhaustive-limit", "-1"],
        ["audit", "--construct", "petersen", "--t", "5", "--oracle-limit", "-1"],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "must be non-negative" in err or "must be positive" in err
    # the dense-window guard is a constant, not an option
    assert run(capsys, "audit", "--construct", "petersen", "--t", "5", "--node-cap", "9")[0] == 2
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_parser_is_built_once(capsys):
    assert cli._build_parser() is cli._build_parser()
    # a failed parse leaves the shared parser usable
    assert main(["count", "--format", "yaml"]) == 2
    assert run(capsys, "count", "--construct", "path_power:n=20,k=3")[:2] == (0, "144\n")


def test_parse_error_exit_2(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("3 1\n0 7\n")
    code, _, err = run(capsys, "count", str(f))
    assert code == 2
    assert "parse" in err
    col = tmp_path / "bad.col"
    col.write_text("c negative vertex count\np edge -2 0\n")
    code, _, err = run(capsys, "count", str(col))
    assert code == 2
    assert "cannot parse input: line 2:" in err


def test_input_that_is_not_utf8_exits_2_with_its_line(capsys, tmp_path):
    f = tmp_path / "bad.txt"
    f.write_bytes(b"3 2\n0 1\n1 \xff2\n")
    code, out, err = run(capsys, "count", str(f))
    assert (code, out) == (2, "")
    assert "cannot parse input: line 3: invalid UTF-8 byte 0xff" in err


@pytest.mark.parametrize("content, message", [
    (b'{"params": {"n": 5}}', 'a construction spec needs a "family"'),
    (b'{"family": "complete", "params": 5}', 'construction "params" must be a JSON object'),
    (b"[1, 2]", "a construction spec must be a JSON object"),
    (b'{"family": "complete",\n "params": {"n": \xff}}',
     "cannot parse input: line 2: invalid UTF-8 byte 0xff"),
    (b'{"family": "complete", "params": {"n": 4.7}}',
     "construction complete needs an integer n, got 4.7"),
    (b'{"family": "random_gnp", "params": {"n": 5, "p": "1/0"}}',
     "bad fraction '1/0': zero denominator"),
    (b'{"family": "random_gnp", "params": {"n": 5, "p": "1/2"}, "seed": "1/0"}',
     "bad fraction '1/0': zero denominator"),
    (b'{"family": "random_gnp", "params": {"n": 5, "p": true}}',
     "construction random_gnp needs a rational p, got True"),
    (b'{"family": "random_gnp", "params": {"n": 5, "p": null}}',
     "construction random_gnp needs a rational p, got None"),
], ids=["no family", "params not an object", "not an object", "not UTF-8", "float n",
        "zero denominator p", "zero denominator seed", "boolean p", "null p"])
def test_bad_spec_file_exits_2(capsys, tmp_path, content, message):
    spec = tmp_path / "spec.json"
    spec.write_bytes(content)
    assert run(capsys, "count", "--construct", str(spec)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("spec, message", [
    ("complete:n=5/2", "construction complete needs an integer n, got 5/2"),
    ("path_power:n=7/2,k=1", "construction path_power needs an integer n, got 7/2"),
    ("cycle:n=4.5", "construction cycle needs an integer n, got 9/2"),
    ("random_gnp:n=12,p=1/2,seed=7.9",
     "construction random_gnp needs an integer seed, got 79/10"),
    ('{"family": "random_gnp", "params": {"n": 12, "p": "1/2"}, "seed": 7.9}',
     "construction random_gnp needs an integer seed, got 7.9"),
    ('{"family": "random_gnp", "params": {"n": 12, "p": "1/2"}, "seed": true}',
     "construction random_gnp needs an integer seed, got True"),
    # a typed rational goes through one parser: no ZeroDivisionError, and
    # no message of Python's own
    ("random_gnp:n=5,p=1/0", "bad fraction '1/0': zero denominator"),
    ("random_gnp:n=5,p=0/0", "bad fraction '0/0': zero denominator"),
    ("path_power:n=5,k=1/0", "bad fraction '1/0': zero denominator"),
    ("random_gnp:n=5,p=1/2,seed=1/0", "bad fraction '1/0': zero denominator"),
    ("random_gnp:n=5,p=abc", "bad fraction 'abc'"),
])
def test_construction_parameter_not_an_integer_exits_2(capsys, tmp_path, spec, message):
    if spec.startswith("{"):  # a spec file
        (tmp_path / "s.json").write_text(spec)
        spec = str(tmp_path / "s.json")
    for command in ("count", "generate"):
        assert run(capsys, command, "--construct", spec) == (2, "", f"error: {message}\n")


def test_oracle_limit_exit_3(capsys):
    for command in ("check-subdivision", "check-minor"):
        code, _, err = run(
            capsys, command, "--construct", "complete:n=17", "--t", "4"
        )
        assert code == 3
        assert "limited to" in err
        code, _, _ = run(
            capsys,
            command,
            "--construct",
            "complete:n=17",
            "--t",
            "4",
            "--oracle-limit",
            "17",
        )
        assert code == 0
        # above the limit, the elimination certificate answers when it holds
        code, out, _ = run(
            capsys, command, "--construct", "path_power:n=2000,k=2",
            "--t", "4",
        )
        assert (code, out) == (0, "none\n")
        code, out, _ = run(
            capsys, command, "--construct", "path_power:n=2000,k=2",
            "--t", "4", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["witness"] is None


def test_containment_default_limits_stay_apart(capsys):
    # K_15 fits the subdivision oracle's default of 16 vertices, not the
    # minor oracle's 14
    code, out, _ = run(
        capsys, "check-subdivision", "--construct", "complete:n=15", "--t", "4"
    )
    assert code == 0
    assert out.startswith("branch: 0 1 2 3\npath 0 1: 0 1\n")
    code, out, err = run(
        capsys, "check-minor", "--construct", "complete:n=15", "--t", "4"
    )
    assert (code, out) == (3, "")
    assert err == "error: minor search limited to 14 vertices, got 15\n"
    for command, limit in (("check-subdivision", 16), ("check-minor", 14)):
        code, out, _ = run(
            capsys, command, "--construct", "complete:n=6", "--t", "4",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["config"]["oracle_limit"] == limit


@pytest.mark.parametrize("command", ["check-subdivision", "check-minor"])
def test_negative_oracle_limit_rejected_before_certificate(capsys, command):
    # the certificate alone would answer "none" on this graph
    code, out, err = run(capsys, command, "--construct", "path_power:n=2000,k=2",
                         "--t", "4", "--oracle-limit", "-1")
    assert (code, out) == (2, "")
    assert err == "error: oracle_limit must be non-negative\n"


def test_check_minor_certificate_above_oracle_limit(capsys):
    # elimination width 2 excludes a K_4 minor at any size
    code, out, _ = run(
        capsys, "check-minor", "--construct", "path_power:n=2000,k=2", "--t", "4"
    )
    assert (code, out) == (0, "none\n")
    # without the certificate the search is still limited
    code, _, err = run(
        capsys, "check-minor", "--construct", "complete:n=17", "--t", "4"
    )
    assert code == 3
    assert "limited to" in err
    # except at t <= 2, where the minor is K_t itself, found at any size
    assert run(capsys, "check-minor", "--construct", "complete:n=20", "--t", "2") == (
        0, "branch 0: 0\nbranch 1: 1\n", "")
    code, out, err = run(capsys, "check-minor", "--construct", "complete:n=20", "--t", "4")
    assert (code, out) == (3, "")
    assert err == "error: minor search limited to 14 vertices, got 20\n"


def test_exhaustive_limit_exit_3(capsys):
    code, _, err = run(
        capsys, "sparse-check", "--construct", "complete:n=23", "--t", "4"
    )
    assert code == 3
    assert "exhaustive" in err
    code, _, _ = run(
        capsys,
        "sparse-check",
        "--construct",
        "complete:n=23",
        "--t",
        "4",
        "--mode",
        "peeling",
    )
    assert code == 1


def test_check_subdivision_query_semantics(capsys):
    code, out, _ = run(
        capsys, "check-subdivision", "--construct", "petersen", "--t", "5"
    )
    assert code == 0
    assert out == "none\n"
    code, out, _ = run(
        capsys, "check-subdivision", "--construct", "complete:n=6", "--t", "4"
    )
    assert code == 0
    assert out.startswith("branch: ")
    assert "path" in out


def test_check_minor_outputs(capsys):
    code, out, _ = run(
        capsys, "check-minor", "--construct", "petersen", "--t", "5"
    )
    assert code == 0
    assert out.count("branch ") == 5
    code, out, _ = run(
        capsys,
        "check-minor",
        "--construct",
        "petersen",
        "--t",
        "5",
        "--format",
        "json",
    )
    witness = json.loads(out)["witness"]
    assert len(witness) == 5
    code, out, _ = run(
        capsys, "check-minor", "--construct", "cycle:n=8", "--t", "4"
    )
    assert code == 0
    assert out == "none\n"


def test_sparse_check_exit_codes(capsys):
    code, out, _ = run(
        capsys, "sparse-check", "--construct", "path_power:n=14,k=2", "--t", "4"
    )
    assert code == 0
    assert out == "sparse\n"
    code, out, _ = run(
        capsys,
        "sparse-check",
        "--construct",
        "path_power:n=14,k=2",
        "--t",
        "4",
        "--mode",
        "peeling",
    )
    assert code == 0
    assert out == "unknown\n"
    code, out, _ = run(
        capsys, "sparse-check", "--construct", "complete:n=12", "--t", "4"
    )
    assert code == 1
    assert out.startswith("violated:")
    code, out, _ = run(
        capsys,
        "sparse-check",
        "--construct",
        "complete:n=12",
        "--beta",
        "9/10",
        "--n-threshold",
        "6",
        "--format",
        "json",
    )
    assert code == 1
    cert = json.loads(out)["certificate"]
    assert cert["verdict"] == "violated"
    code, _, _ = run(
        capsys, "sparse-check", "--construct", "complete:n=12", "--beta", "9/10"
    )
    assert code == 2
    code, _, _ = run(capsys, "sparse-check", "--construct", "complete:n=12")
    assert code == 2
    for beta, message in (("abc", "bad fraction 'abc'"),
                          ("1/0", "bad fraction '1/0': zero denominator")):
        assert run(capsys, "sparse-check", "--construct", "petersen", "--beta", beta,
                   "--n-threshold", "3") == (2, "", f"error: {message}\n")


def test_audit_exit_and_text(capsys):
    code, out, _ = run(
        capsys,
        "audit",
        "--construct",
        "path_power:n=30,k=2",
        "--t",
        "4",
    )
    assert code == 0
    assert out.rstrip().endswith("all checks hold")
    code, out, _ = run(
        capsys,
        "audit",
        "--construct",
        "complete:n=13",
        "--t",
        "4",
        "--assume-subdivision-free",
    )
    assert code == 1
    assert "FAIL window@0-size: 13 vs 80/11" in out
    assert "ok   window@0-oracle" in out
    assert "boundary node 0: dense_window (label 13)" in out
    assert "contrapositive" in out
    assert out.rstrip().endswith("some checks FAILED")


def test_audit_json_merges_config(capsys):
    code, out, _ = run(
        capsys,
        "audit",
        "--construct",
        "complete:n=13",
        "--t",
        "4",
        "--format",
        "json",
    )
    assert code == 1
    payload = json.loads(out)
    cfg = payload["config"]
    assert cfg["command"] == "audit"
    assert cfg["t"] == 4
    assert cfg["assume_subdivision_free"] is False
    assert payload["all_hold"] is False
    assert any(c["name"] == "window@0-size" for c in payload["checks"])


BASE_CONFIG = ["command", "input", "format", "seed"]

# command line -> (top-level keys, config keys) of its JSON report
JSON_KEY_ORDER = {
    "count": (["config", "count"], BASE_CONFIG),
    "census": (["config", "census", "total"], BASE_CONFIG),
    "enumerate": (["config", "cliques"], BASE_CONFIG),
    "generate": (
        ["config", "n", "edges", "predicted_clique_count"],
        BASE_CONFIG + ["spec"],
    ),
    "check-subdivision --t 4": (
        ["config", "witness"],
        BASE_CONFIG + ["t", "oracle_limit"],
    ),
    "check-minor --t 4": (["config", "witness"], BASE_CONFIG + ["t", "oracle_limit"]),
    "sparse-check --t 4": (
        ["config", "certificate"],
        BASE_CONFIG + ["t", "exhaustive_limit", "mode"],
    ),
    "audit --t 4": (
        ["config", "graph", "checks", "boundary_cases", "notes", "all_hold"],
        ["t", "assume_subdivision_free", "oracle_limit"] + BASE_CONFIG,
    ),
}


@pytest.mark.parametrize("command", JSON_KEY_ORDER)
def test_json_key_order(capsys, command):
    keys, config_keys = JSON_KEY_ORDER[command]
    code, out, _ = run(
        capsys, *command.split(), "--construct", "complete:n=4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == keys
    assert list(payload["config"]) == config_keys


def test_bounds_json_key_order(capsys):
    # entries follow the fixed order of the options, not the order given
    code, out, _ = run(
        capsys,
        "bounds",
        "--lower-bound",
        "2",
        "--binom",
        "10",
        "3",
        "--degenerate",
        "3",
        "20",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["config", "degenerate", "binom", "lower_bound"]
    assert list(payload["config"]) == BASE_CONFIG
    assert payload["config"] == {"command": "bounds", "input": None, "format": "json", "seed": None}


@pytest.mark.parametrize("argv", [
    ("/nonexistent",),
    ("--construct", "mystery:n=3"),
    ("--seed", "5"),
    ("--refined", "1/10", "1/2", "4"),
])
def test_bounds_refuses_a_graph_and_removed_options(capsys, argv):
    code, out, err = run(capsys, "bounds", "--degenerate", "3", "20", *argv)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


def test_bounds_text(capsys):
    code, out, _ = run(capsys, "bounds", "--degenerate", "3", "20")
    assert code == 0
    assert out == "degenerate: 144\n"
    code, out, _ = run(capsys, "bounds", "--binom", "10", "3")
    assert code == 0
    assert out.startswith("binom: holds lhs=176")
    code, out, _ = run(capsys, "bounds", "--lower-bound", "2")
    assert code == 0
    assert "k=2 t=4" in out


def test_bounds_json(capsys):
    code, out, _ = run(
        capsys,
        "bounds",
        "--degenerate",
        "3",
        "20",
        "--binom",
        "5",
        "5",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["degenerate"]["bound"] == "144"
    assert payload["binom"]["lhs"] == "32"
    assert payload["binom"]["holds"] is True


def test_bounds_bad_rational_exit_2(capsys):
    assert run(capsys, "bounds", "--binom", "10", "0")[0] == 2
    code, out, err = run(capsys, "bounds", "--binom", "10", "1/0")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad fraction") and "zero denominator" in err
    for argv, message in ((("--binom", "2.5", "1"), "bad integer '2.5'"),
                          (("--binom", "10", "abc"), "bad fraction 'abc'")):
        assert run(capsys, "bounds", *argv) == (2, "", f"error: {message}\n")


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys,
        "count",
        "--construct",
        "complete:n=3",
        "--format",
        "json",
        "--output",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["count"] == "8"


def test_module_entry_point():
    # -m puts the working directory on sys.path, so the child imports this
    # checkout's package whether or not PYTHONPATH names it
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "clique_census.cli",
            "count",
            "--construct",
            "path_power:n=20,k=3",
        ],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parent.parent / "src",
    )
    assert proc.returncode == 0
    assert proc.stdout == "144\n"


_COLD_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from clique_census.cli import main
code = main(sys.argv[2:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("clique_census."))]))
"""


@pytest.mark.parametrize("command", ["count", "census", "enumerate"])
def test_cold_counting_command_loads_no_audit_code(tmp_path, command):
    path = tmp_path / "g.txt"
    path.write_text("4 4\n0 1\n1 2\n2 0\n2 3\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-c", _COLD_PROBE, src, command, str(path)],
                          check=True, capture_output=True, text=True, timeout=120)
    code, loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert code == 0
    assert loaded == ["clique_census.backend", "clique_census.cli", "clique_census.errors",
                      "clique_census.graph", "clique_census.tree"]


def test_help_shows_the_library_limits(capsys):
    from clique_census.sparsity import DEFAULT_EXHAUSTIVE_LIMIT
    from clique_census.subdivision import DEFAULT_MINOR_LIMIT, DEFAULT_SUBDIVISION_LIMIT

    for command, option, limit in (
        ("check-subdivision", "--oracle-limit", DEFAULT_SUBDIVISION_LIMIT),
        ("check-minor", "--oracle-limit", DEFAULT_MINOR_LIMIT),
        ("sparse-check", "--exhaustive-limit", DEFAULT_EXHAUSTIVE_LIMIT),
        ("audit", "--oracle-limit", DEFAULT_SUBDIVISION_LIMIT),
    ):
        assert main([command, "--help"]) == 0
        # the option's own entry follows its last mention
        out = " ".join(capsys.readouterr().out.split())
        assert f"(default {limit})" in out.split(option)[-1], command
