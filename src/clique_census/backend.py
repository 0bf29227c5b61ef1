"""Kernel selection: compiled extension when importable, pure Python otherwise.

The environment variable CLIQUE_CENSUS_BACKEND ("compiled" or "pure") forces
a choice; asking for the compiled kernel when it is not built is an error.
"""

from __future__ import annotations

import os
from array import array

from . import _kernel_py
from .graph import check_mask

try:
    from . import _kernel  # type: ignore[attr-defined]
except ImportError:
    _kernel = None

_WORD_MASK = (1 << 64) - 1


def available_backends() -> tuple[str, ...]:
    return ("compiled", "pure") if _kernel is not None else ("pure",)


def default_backend() -> str:
    forced = os.environ.get("CLIQUE_CENSUS_BACKEND", "").strip().lower()
    if forced:
        return resolve_backend(forced)
    return "compiled" if _kernel is not None else "pure"


def resolve_backend(backend: str | None) -> str:
    """The backend a request selects; None means the default."""
    if backend is None:
        return default_backend()
    if backend not in ("compiled", "pure"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "compiled" and _kernel is None:
        raise ValueError("compiled backend requested but not built")
    return backend


def releases_gil(backend: str) -> bool:
    """Whether the backend's kernel runs without the interpreter lock, so
    that jobs on several threads actually overlap."""
    return backend == "compiled"


def census_of_subset(g, start_mask: int, backend: str | None = None) -> list[int]:
    """Per-size clique counts of the subgraph of g induced on start_mask.

    counts[k] is the number of k-cliques, which is also the number of
    depth-k nodes of the min-degree clique tree below that candidate set.
    The pure kernel counts them by pivoting, without visiting each clique;
    the compiled kernel walks that tree with uint64 counters. Raises
    ValueError for a negative mask or one with bits at or above g.n.
    """
    check_mask(g, start_mask)
    if resolve_backend(backend) == "pure":
        return _kernel_py.census_of_subset(g.bits, start_mask)
    if g.n == 0:
        return [1]
    w, adj = g.packed_words()
    start = array("Q", [(start_mask >> (64 * i)) & _WORD_MASK for i in range(w)])
    return _kernel.census_of_words(adj, start, g.n, w)
