"""Build glue: the package is pure Python, so `build_ext --inplace` builds
nothing and succeeds; project metadata lives in pyproject.toml."""

from setuptools import setup

setup()
