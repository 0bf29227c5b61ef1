"""Local sparsity checks and parameter derivations.

A graph is (beta, N)-locally sparse when every vertex subset X with
|X| >= N contains a vertex whose degree inside the induced subgraph is at
most beta * |X|. All threshold arithmetic is exact rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_EXHAUSTIVE_LIMIT, OracleLimitError, _require_int
from .graph import Graph, degeneracy, mask_vertices, rows
from .tree import _forward_sets


def _as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("pass rationals as Fraction, int or string, not float")
    return Fraction(x)


@dataclass(frozen=True)
class SparsityParams:
    """Threshold pair: degree ratio beta (rational, at most 1) and minimum
    subset size n_threshold (positive integer; anything but an int, a bool
    included, raises TypeError)."""

    beta: Fraction
    n_threshold: int

    def __post_init__(self):
        object.__setattr__(self, "beta", _as_fraction(self.beta))
        if self.beta > 1:
            raise ValueError("beta must be at most 1")
        _require_int("n_threshold", self.n_threshold)
        if self.n_threshold < 1:
            raise ValueError("n_threshold must be at least 1")

    def beta_string(self) -> str:
        return f"{self.beta.numerator}/{self.beta.denominator}"


@dataclass(frozen=True)
class SparsityCertificate:
    verdict: str  # "sparse" | "violated" | "unknown"
    method: str  # "exhaustive" | "peeling"
    params: SparsityParams
    witness: frozenset[int] | None = None

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "method": self.method,
            "witness": sorted(self.witness) if self.witness is not None else None,
            "beta": self.params.beta_string(),
            "N": self.params.n_threshold,
        }


def _has_low_degree_vertex(bits, mask: int, size: int, beta: Fraction) -> bool:
    # some v in X with deg_X(v) <= beta * |X|, compared exactly
    p, q = beta.numerator, beta.denominator
    m = mask
    while m:
        low = m & -m
        v = low.bit_length() - 1
        deg = (bits[v] & mask).bit_count()
        if deg * q <= p * size:
            return True
        m ^= low
    return False


def check_local_sparsity(
    g: Graph,
    params: SparsityParams,
    mode: str = "exhaustive",
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> SparsityCertificate:
    """Decide or probe (beta, N)-local sparsity.

    Exhaustive mode scans every subset of size at least N and returns a
    definite verdict; it refuses graphs larger than exhaustive_limit.
    Peeling mode checks only the vertex sets arising along a min-degree
    peeling order; it is one-sided, reporting either a concrete violation
    or "unknown". Any violation witness is itself a qualifying subset.
    Raises TypeError for an exhaustive_limit that is not an int and
    ValueError for a negative one.
    """
    _require_int("exhaustive_limit", exhaustive_limit)
    if exhaustive_limit < 0:
        raise ValueError("exhaustive_limit must be non-negative")
    beta, threshold = params.beta, params.n_threshold
    if mode == "exhaustive":
        if g.n > exhaustive_limit:
            raise OracleLimitError(
                f"exhaustive sparsity scan limited to {exhaustive_limit} vertices, "
                f"got {g.n}"
            )
        bits = rows(g)
        for mask in range(1, 1 << g.n):
            size = mask.bit_count()
            if size < threshold:
                continue
            if not _has_low_degree_vertex(bits, mask, size, beta):
                return SparsityCertificate(
                    "violated", "exhaustive", params, frozenset(mask_vertices(mask))
                )
        return SparsityCertificate("sparse", "exhaustive", params)
    if mode == "peeling":
        # the peel removes a minimum-degree vertex of what is left, smallest
        # id on ties, so what is left before step i is the suffix order[i:]
        # and the removed vertex's degree there counts its later neighbours
        p, q = beta.numerator, beta.denominator
        order = degeneracy(g).ordering
        forward = _forward_sets(g, order)
        for i, v in enumerate(order[:max(0, g.n - threshold + 1)]):
            if len(forward[v]) * q > p * (g.n - i):
                return SparsityCertificate(
                    "violated", "peeling", params, frozenset(order[i:])
                )
        return SparsityCertificate("unknown", "peeling", params)
    raise ValueError(f"unknown mode {mode!r}")


def lemma_sparsity_params(m: int, t: int) -> SparsityParams:
    """Sparsity parameters for a dense window of m vertices at clique-order t:
    beta = 1 - m / (2 t^2), N = ceil(20 t / 11)."""
    return generalized_sparsity_params(m, t, Fraction(1, 10), Fraction(1, 2))[0]


def generalized_sparsity_params(m: int, t: int, alpha, beta) -> tuple[SparsityParams, Fraction]:
    """Parameterized variant: with minimum degree at least (1 - alpha) m and
    no clique-order-t topological witness, a window must satisfy
    m <= max{t / (1 - 2 alpha - beta/2), (alpha/beta) t^2} and be
    (1 - beta m / t^2, t / (1 - 2 alpha - beta/2))-locally sparse.

    Returns (SparsityParams, size_bound) with all values exact rationals
    (the threshold N is rounded up to an integer). lemma_sparsity_params
    is the case (alpha, beta) = (1/10, 1/2).
    """
    _require_int("m", m)
    _require_int("t", t)
    if t < 1:
        raise ValueError("t must be at least 1")
    if m < 0:
        raise ValueError("m must be nonnegative")
    alpha = _as_fraction(alpha)
    beta = _as_fraction(beta)
    if beta <= 0:
        raise ValueError("beta must be positive")
    slack = 1 - 2 * alpha - beta / 2
    if slack <= 0:
        raise ValueError("need 1 - 2 alpha - beta/2 > 0")
    local_beta = 1 - beta * Fraction(m, t * t)
    threshold_exact = Fraction(t) / slack
    threshold = -((-threshold_exact.numerator) // threshold_exact.denominator)
    size_bound = max(threshold_exact, (alpha / beta) * t * t)
    return SparsityParams(local_beta, max(1, threshold)), size_bound
