"""Reference graph families with exact predicted clique counts.

The two extremal families are powers of paths and complete multipartite
graphs with parts of size two; both have closed-form clique counts that
the counting engine must reproduce exactly.  A seeded G(n, p) generator
rounds out the set for randomized cross-checks.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, log2

from .errors import _require_int
from .graph import Graph

def path_power(n: int, k: int) -> Graph:
    """k-th power of the path on vertices 0..n-1: edge iff 0 < |i-j| <= k."""
    if n < 1:
        raise ValueError("path_power needs n >= 1")
    if k < 0:
        raise ValueError("path_power needs k >= 0")
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, min(i + k, n - 1) + 1)
    ]
    return Graph(n, edges)


def complete_multipartite_222(k: int) -> Graph:
    """Complete k-partite graph with parts {2i, 2i+1} of size two."""
    if k < 1:
        raise ValueError("complete_multipartite_222 needs k >= 1")
    n = 2 * k
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if u // 2 != v // 2
    ]
    return Graph(n, edges)


def complete(n: int) -> Graph:
    if n < 0:
        raise ValueError("complete needs n >= 0")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def random_gnp(n: int, p, seed: int = 0) -> Graph:
    """G(n, p) with edges drawn pair by pair in lexicographic order.

    Uses random.Random(seed), whose random() stream is stable across
    Python releases, so a (n, p, seed) triple pins the graph exactly.
    The seed must be an int (TypeError otherwise).
    """
    _require_int("seed", seed)
    if n < 0:
        raise ValueError("random_gnp needs n >= 0")
    if not 0 <= p <= 1:
        raise ValueError("random_gnp needs 0 <= p <= 1")
    rng = random.Random(seed)
    # random() returns k/2**53 with k an integer, so a draw is below p
    # exactly when it is below ceil(p * 2**53)/2**53, and that threshold is
    # a float: each draw is one float comparison, even for a Fraction p
    limit = ceil(Fraction(p) * 2**53) / 2**53
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < limit
    ]
    return Graph(n, edges)


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def _path_power_count(n: int, k: int) -> int:
    return 2**n if n < k + 1 else 2**k * (n - k + 1)


# family -> (builder, its integer parameters in order, closed-form clique
# count of those parameters or None); random_gnp also takes p and the seed
FAMILIES = {
    "path_power": (path_power, ("n", "k"), _path_power_count),
    "complete_multipartite": (complete_multipartite_222, ("k",), lambda k: 3**k),
    "complete": (complete, ("n",), lambda n: 2**n),
    "cycle": (cycle, ("n",), lambda n: 8 if n == 3 else 2 * n + 1),
    "random_gnp": (random_gnp, ("n",), None),
    # triangle-free: the empty set, 10 vertices, 15 edges
    "petersen": (petersen, (), lambda: 26),
}


def _family(name):
    """The FAMILIES entry of name; any other name raises ValueError."""
    # a JSON spec's family may be a list, which no dict lookup takes
    if not isinstance(name, str) or name not in FAMILIES:
        raise ValueError(f"unknown construction family {name!r}")
    return FAMILIES[name]


@dataclass
class ConstructionSpec:
    """A named family plus its parameters; seed applies to random_gnp only."""

    family: str
    params: dict = field(default_factory=dict)
    seed: int | None = None

    def to_json(self) -> dict:
        params = {
            key: (str(value) if isinstance(value, Fraction) else value)
            for key, value in self.params.items()
        }
        out = {"family": self.family, "params": params}
        if self.seed is not None:
            out["seed"] = self.seed
        return out


_INT_RE = re.compile(r"-?\d+\Z")


def parse_fraction(text: str) -> Fraction:
    """The rational a user typed, e.g. "9/10" or "0.5"; malformed text or
    a zero denominator raises ValueError naming the text."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"bad fraction {text!r}: zero denominator") from None
    except ValueError:
        raise ValueError(f"bad fraction {text!r}") from None


def _parse_value(text: str):
    # integer literals stay ints, so a spec echoes "n": 5, not "n": "5"
    if _INT_RE.match(text):
        return int(text)
    return parse_fraction(text)


def parse_construction_spec(text: str) -> ConstructionSpec:
    """Parse the inline form family:key=val,key=val or a bare family name."""
    family, _, tail = text.partition(":")
    family = family.strip()
    _family(family)
    params = {}
    seed = None
    if tail:
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"bad construction parameter {item!r}")
            key = key.strip()
            if key == "seed":
                seed = _whole(family, key, _parse_value(value.strip()))
            else:
                params[key] = _parse_value(value.strip())
    return ConstructionSpec(family, params, seed)


def spec_from_json(data) -> ConstructionSpec:
    """The spec of a JSON object {family, params, seed}, or of its text."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError("a construction spec must be a JSON object")
    if "family" not in data:
        raise ValueError('a construction spec needs a "family"')
    family, params = data["family"], data.get("params", {})
    _family(family)
    if not isinstance(params, dict):
        raise ValueError('construction "params" must be a JSON object')
    params = {key: (_parse_value(value) if isinstance(value, str) else value)
              for key, value in params.items()}
    seed = data.get("seed")
    if seed is not None:
        seed = _whole(family, "seed", _parse_value(seed) if isinstance(seed, str) else seed)
    return ConstructionSpec(family, params, seed)


def _param(spec: ConstructionSpec, key: str):
    try:
        return spec.params[key]
    except KeyError:
        raise ValueError(
            f"construction {spec.family} needs parameter {key!r}"
        ) from None


def _whole(family: str, key: str, value) -> int:
    """The value as an int; a value that is not a whole number raises
    ValueError instead of being truncated."""
    # a bool is an int, but not a count; inf and nan leave a nan remainder
    if not (type(value) is int or isinstance(value, (float, Fraction)) and value % 1 == 0):
        raise ValueError(f"construction {family} needs an integer {key}, got {value}")
    return int(value)


def _int_param(spec: ConstructionSpec, key: str) -> int:
    return _whole(spec.family, key, _param(spec, key))


def generate(spec: ConstructionSpec) -> Graph:
    build, keys, _ = _family(spec.family)
    args = [_int_param(spec, key) for key in keys]
    if spec.family == "random_gnp":
        p = _param(spec, "p")
        # a bool is an int, but not a probability
        if isinstance(p, bool) or not isinstance(p, (int, float, Fraction)):
            raise ValueError(f"construction random_gnp needs a rational p, got {p}")
        args += [p, 0 if spec.seed is None else spec.seed]
    return build(*args)


def predicted_clique_count(spec: ConstructionSpec):
    """Exact closed-form clique count, or None when the family has none."""
    _, keys, count = FAMILIES.get(spec.family, (None, (), None))
    if count is None:
        return None
    return count(*(_int_param(spec, key) for key in keys))


@dataclass(frozen=True)
class LowerBoundReport:
    """Exponent of the 3^k clique count of K_{2,...,2} against its t."""

    k: int
    t: int
    clique_count: int
    exponent: float
    limit: float


def lower_bound_constant(k: int) -> LowerBoundReport:
    """Per-k exponent log2(3^k)/t with t = floor(3k/2) + 1.

    The graph K_{2,...,2} on k parts has 3^k cliques and no subdivision
    of the complete graph on t = floor(3k/2) + 1 vertices, so the best
    possible per-t exponent is at least k*log2(3)/t, approaching
    (2/3)*log2(3) from below as k grows.  A k that is not an int, a bool
    included, raises TypeError.
    """
    _require_int("k", k)
    if k < 1:
        raise ValueError("lower_bound_constant needs k >= 1")
    t = (3 * k) // 2 + 1
    return LowerBoundReport(
        k=k,
        t=t,
        clique_count=3**k,
        exponent=k * log2(3) / t,
        limit=(2.0 / 3.0) * log2(3),
    )
