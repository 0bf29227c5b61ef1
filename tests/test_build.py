"""The in-place build that the benchmark runs before every run."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_build_ext_inplace_from_a_copy(tmp_path):
    for name in ("setup.py", "pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    build = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert build.returncode == 0, build.stderr
    probe = subprocess.run(
        [sys.executable, "-c",
         "import clique_census as cc; print(cc.__file__); print(cc.available_backends())"],
        cwd=tmp_path, env={"PYTHONPATH": str(tmp_path / "src")},
        capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode == 0, probe.stderr
    where, backends = probe.stdout.splitlines()
    assert Path(where).is_relative_to(tmp_path)
    assert backends == "('pure',)"
