"""The names and calls the benchmark in perfbench/ reaches still exist.

perfbench/ is frozen between benchmark changes, so a rename or removal in
the package would only show when the benchmark runs. This reads
perfbench/layers.py, which needs only the standard library, and changes
nothing there.
"""

import importlib.util
from pathlib import Path

import clique_census
import clique_census.cli
from clique_census import (
    available_backends,
    build_tree,
    census,
    default_backend,
    path_power,
)

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    layers = load_layers()
    names = [(mod, attr) for mod, attr, _, _ in layers.WRAPPED]
    names.append(("cli", "enumerate_cliques"))
    for mod, attr in names:
        assert callable(getattr(getattr(clique_census, mod), attr)), (mod, attr)
    # what run.py and scaling.py call on the package itself
    for attr in ("Graph", "degeneracy", "load_graph", "AuditConfig", "audit_graph",
                 "census", "available_backends", "default_backend", "build_tree"):
        assert callable(getattr(clique_census, attr)), attr
    assert callable(clique_census.cli.main)


def test_benchmark_calls_work():
    g = path_power(30, 3)
    expected = census(g).counts
    assert census(g, threads=2).counts == expected
    assert census(g, threads=1, backend="pure").counts == expected
    assert default_backend() in available_backends()
    assert build_tree(g).node_count == sum(expected)
