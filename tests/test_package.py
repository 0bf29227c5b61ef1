"""The package's lazy surface, each probe in a fresh interpreter.

`import clique_census` loads no submodule; an exported name or a
submodule's name loads its submodule on first access. The probes run in
a subprocess, since this process has long imported every submodule.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the standard modules that only the submodules past graph need
HEAVY_STDLIB = ("dataclasses", "decimal", "fractions")


def probe(code: str, *args: str) -> dict:
    """Run code in a fresh interpreter that imports the package from this
    checkout's src/; return the JSON object its last output line holds."""
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys\nsys.path.insert(0, sys.argv[1])\n" + code,
         SRC, *args],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def package_modules(loaded) -> set[str]:
    return {m for m in loaded if m == "clique_census" or m.startswith("clique_census.")}


@pytest.fixture
def edge_list(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n", encoding="utf-8")
    return str(path)


def test_import_and_load_graph_load_only_errors_and_graph(edge_list):
    bare = probe("print(json.dumps(sorted(sys.modules)))")
    got = probe(
        "import clique_census\n"
        "g = clique_census.load_graph(sys.argv[2])\n"
        "print(json.dumps({'n': g.n, 'modules': sorted(sys.modules)}))",
        edge_list,
    )
    assert got["n"] == 4
    assert package_modules(got["modules"]) == {
        "clique_census", "clique_census.errors", "clique_census.graph"}
    for name in HEAVY_STDLIB:
        assert name not in got["modules"] or name in bare, name


def test_every_exported_name_resolves_to_its_submodule():
    got = probe(
        "import clique_census as cc\n"
        "before = sorted(m for m in sys.modules if m.startswith('clique_census.'))\n"
        "rows = []\n"
        "for name in cc.__all__:\n"
        "    obj = getattr(cc, name)\n"
        "    home = sys.modules[obj.__module__]\n"
        "    rows.append([name, obj.__module__, getattr(home, name) is obj])\n"
        "print(json.dumps({'before': before, 'rows': rows, 'dir': dir(cc),\n"
        "                  'all': cc.__all__}))"
    )
    assert got["before"] == []
    assert len(got["rows"]) == len(set(got["all"])) == 58
    for name, module, same in got["rows"]:
        assert module.startswith("clique_census.") and same, (name, module)
    assert set(got["all"]) <= set(got["dir"])


def test_submodule_names_resolve_after_a_bare_import():
    got = probe(
        "import clique_census as cc\n"
        "audit = getattr(cc, 'audit')\n"
        "print(json.dumps([audit.__name__, audit is sys.modules['clique_census.audit'],\n"
        "                  cc.cli.__name__]))"
    )
    assert got == ["clique_census.audit", True, "clique_census.cli"]


def test_unknown_names_raise():
    got = probe(
        "import clique_census as cc\n"
        "errors = []\n"
        "try:\n"
        "    cc.no_such_name\n"
        "except AttributeError as err:\n"
        "    errors.append(str(err))\n"
        "try:\n"
        "    from clique_census import no_such_name\n"
        "except ImportError as err:\n"
        "    errors.append(type(err).__name__)\n"
        "print(json.dumps(errors))"
    )
    assert got == ["module 'clique_census' has no attribute 'no_such_name'", "ImportError"]
