"""Command-line interface: formats, exit codes, determinism, config echo."""

import io
import json
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
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
    serialize,
)
from clique_census import cli
from clique_census.cli import main

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


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_enumerate_text_matches_tree_preorder(g):
    with tempfile.TemporaryDirectory() as directory:
        _assert_text_listing(g, directory)


@pytest.mark.parametrize("n", WORD_EDGE_SIZES)
def test_enumerate_text_matches_tree_preorder_at_word_edges(n, tmp_path):
    for g in word_edge_graphs(n):
        _assert_text_listing(g, tmp_path)


def test_enumerate_text_across_write_batches(tmp_path):
    _assert_text_listing(Graph(0, []), tmp_path)
    g = complete_multipartite_222(8)  # 3^8 = 6561 cliques
    assert 6561 > cli._LISTING_BATCH
    _assert_text_listing(g, tmp_path)


def test_enumerate_json_across_write_batches(capsys):
    g = complete_multipartite_222(8)
    code, out, _ = run(capsys, "enumerate", "--construct", "complete_multipartite:k=8",
                       "--format", "json")
    assert code == 0
    cliques = [sorted(c) for c in enumerate_cliques(g)]
    assert len(cliques) > cli._LISTING_BATCH
    payload = {"config": json.loads(out)["config"], "cliques": cliques}
    assert out == json.dumps(payload, indent=2) + "\n"


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
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


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


def test_oracle_limit_exit_3(capsys):
    code, _, err = run(
        capsys, "check-subdivision", "--construct", "complete:n=17", "--t", "4"
    )
    assert code == 3
    assert "limited to" in err
    code, _, _ = run(
        capsys,
        "check-subdivision",
        "--construct",
        "complete:n=17",
        "--t",
        "4",
        "--oracle-limit",
        "17",
    )
    assert code == 0


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
    assert cfg["node_cap"] > 0
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
        ["t", "assume_subdivision_free", "node_cap", "oracle_limit"] + BASE_CONFIG,
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
        "--refined",
        "1/10",
        "1/2",
        "4",
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
    assert list(payload) == ["config", "degenerate", "binom", "refined", "lower_bound"]
    assert list(payload["config"]) == BASE_CONFIG


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
    code, out, _ = run(capsys, "bounds", "--refined", "1/10", "1/2", "4")
    assert code == 0
    assert out.startswith("refined: dense=")
    assert "skeleton=44.0" in out


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
    assert run(capsys, "bounds", "--refined", "zero", "1/2", "4")[0] == 2
    assert run(capsys, "bounds", "--binom", "10", "0")[0] == 2


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
    )
    assert proc.returncode == 0
    assert proc.stdout == "144\n"
