"""Construction families: closed-form counts, spec parsing, lower bounds."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from clique_census import (
    ConstructionSpec,
    Graph,
    census,
    count_cliques,
    cycle,
    complete,
    complete_multipartite_222,
    generate,
    lower_bound_constant,
    parse_construction_spec,
    path_power,
    petersen,
    predicted_clique_count,
    random_gnp,
    spec_from_json,
)

from clique_census import constructions

from brute import brute_count


def spec(family, **params):
    seed = params.pop("seed", None)
    return ConstructionSpec(family, params, seed)


def test_path_power_counts_exact():
    for n in range(1, 13):
        for k in range(0, 6):
            s = spec("path_power", n=n, k=k)
            predicted = predicted_clique_count(s)
            if n < k + 1:
                assert predicted == 2**n
            else:
                assert predicted == 2**k * (n - k + 1)
            assert count_cliques(generate(s)) == predicted


def test_multipartite_counts_exact():
    for k in range(1, 7):
        s = spec("complete_multipartite", k=k)
        assert predicted_clique_count(s) == 3**k
        assert count_cliques(generate(s)) == 3**k


def test_other_families_exact():
    assert count_cliques(complete(0)) == 1
    for n in range(0, 11):
        assert count_cliques(complete(n)) == 2**n
    assert predicted_clique_count(spec("cycle", n=3)) == 8
    for n in range(3, 13):
        assert count_cliques(cycle(n)) == predicted_clique_count(spec("cycle", n=n))
    assert count_cliques(petersen()) == predicted_clique_count(spec("petersen")) == 26
    assert list(census(petersen()).counts) == [1, 10, 15]


def test_family_validation():
    with pytest.raises(ValueError):
        path_power(0, 2)
    with pytest.raises(ValueError):
        path_power(5, -1)
    with pytest.raises(ValueError):
        complete_multipartite_222(0)
    with pytest.raises(ValueError):
        complete(-1)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        random_gnp(-1, Fraction(1, 2))
    with pytest.raises(ValueError):
        random_gnp(5, 2)


@pytest.mark.parametrize("text, missing", [
    ("path_power:n=5", "k"),
    ("path_power:k=2", "n"),
    ("complete_multipartite", "k"),
    ("complete", "n"),
    ("cycle", "n"),
    ("random_gnp:n=5", "p"),
])
def test_missing_parameter_is_named(text, missing):
    s = parse_construction_spec(text)
    with pytest.raises(ValueError, match=f"needs parameter '{missing}'"):
        generate(s)
    if s.family != "random_gnp":  # the only family without a closed form
        with pytest.raises(ValueError, match=f"needs parameter '{missing}'"):
            predicted_clique_count(s)


def test_gnp_seeded_determinism():
    a = random_gnp(9, Fraction(1, 2), seed=7)
    b = random_gnp(9, Fraction(1, 2), seed=7)
    assert a == b
    c = random_gnp(9, Fraction(1, 2), seed=8)
    assert a != c
    assert predicted_clique_count(spec("random_gnp", n=9, p=Fraction(1, 2))) is None
    assert count_cliques(a) == brute_count(a)


def test_gnp_edge_probabilities():
    assert random_gnp(6, 0).edges() == []
    assert random_gnp(6, 1).edge_count == 15


def gnp_by_direct_draws(n, p, seed):
    """G(n, p) by its definition: each pair's random() draw compared with p."""
    rng = random.Random(seed)
    return Graph(n, [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ])


@pytest.mark.parametrize("p", [
    0, 1, Fraction(1, 3), Fraction(3, 5), Fraction(1, 2**60),
    1 - Fraction(1, 2**53), 1e-20, 0.1, 0.5, Fraction(1, 200),
])
def test_gnp_threshold_matches_direct_draws(p):
    for i in range(15):
        n, seed = 5 + 4 * i, 31 * i + 1
        assert random_gnp(n, p, seed=seed) == gnp_by_direct_draws(n, p, seed)


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(3, 5), 0.1, Fraction(1, 2**60)])
def test_gnp_threshold_is_exact_at_the_boundary(monkeypatch, p):
    # feed the draws k/2**53 on either side of p, the only values random()
    # returns, and check each pair against the exact comparison with p
    k = math.ceil(Fraction(p) * 2**53)
    draws = [(k + d) / 2**53 for d in (-2, -1, 0, 1) if k + d >= 0]

    class Scripted:
        def __init__(self, seed):
            self.draws = iter(draws)

        def random(self):
            return next(self.draws, 1.0)

    monkeypatch.setattr(constructions, "random", SimpleNamespace(Random=Scripted))
    n = 4  # six pairs, drawn in lexicographic order
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    expected = [e for e, r in zip(pairs, draws) if r < p]
    assert random_gnp(n, p).edges() == expected


@pytest.mark.parametrize("s, message", [
    (spec("complete", n=Fraction(5, 2)), "construction complete needs an integer n, got 5/2"),
    (spec("cycle", n=4.7), "construction cycle needs an integer n, got 4.7"),
    (spec("cycle", n=True), "construction cycle needs an integer n, got True"),
    (spec("path_power", n=Fraction(7, 2), k=1),
     "construction path_power needs an integer n, got 7/2"),
    (spec("path_power", n=7, k=Fraction(1, 2)),
     "construction path_power needs an integer k, got 1/2"),
    (spec("complete_multipartite", k=2.5),
     "construction complete_multipartite needs an integer k, got 2.5"),
    (spec("random_gnp", n=Fraction(9, 2), p=Fraction(1, 2)),
     "construction random_gnp needs an integer n, got 9/2"),
    # a seed is checked as the spec is read, in either form
    ('{"family": "random_gnp", "params": {"n": 12, "p": "1/2"}, "seed": 7.9}',
     "construction random_gnp needs an integer seed, got 7.9"),
    ('{"family": "random_gnp", "params": {"n": 12, "p": "1/2"}, "seed": true}',
     "construction random_gnp needs an integer seed, got True"),
    ('{"family": "random_gnp", "params": {"n": 12, "p": "1/2"}, "seed": "7.9"}',
     "construction random_gnp needs an integer seed, got 79/10"),
    ("random_gnp:n=12,p=1/2,seed=7.9",
     "construction random_gnp needs an integer seed, got 79/10"),
])
def test_integer_parameter_is_not_truncated(s, message):
    with pytest.raises(ValueError) as err:
        if isinstance(s, str):
            s = spec_from_json(s) if s.startswith("{") else parse_construction_spec(s)
        generate(s)
    assert str(err.value) == message
    if isinstance(s, ConstructionSpec) and s.family != "random_gnp":
        # random_gnp is the only family without a closed form
        with pytest.raises(ValueError) as err:
            predicted_clique_count(s)
        assert str(err.value) == message


def test_whole_number_parameters_are_integers():
    # 10/2 from the inline form, 5.0 from a JSON file
    for value in (Fraction(10, 2), 5.0, 5):
        s = spec("complete", n=value)
        assert generate(s) == complete(5)
        assert predicted_clique_count(s) == 2**5
    assert generate(parse_construction_spec("cycle:n=12/2")) == cycle(6)
    # so is a seed, in either spec form
    for seed in ("7", "10/2", "7.0"):
        s = parse_construction_spec(f"random_gnp:n=9,p=1/2,seed={seed}")
        assert type(s.seed) is int and s.seed == Fraction(seed)
    for seed in (7, "7", "10/2", 5.0):
        s = spec_from_json({"family": "random_gnp", "params": {"n": 9, "p": "1/2"},
                            "seed": seed})
        assert type(s.seed) is int and s.seed == Fraction(seed)


def test_parse_inline_spec():
    s = parse_construction_spec("path_power:n=30,k=2")
    assert s.family == "path_power"
    assert s.params == {"n": 30, "k": 2}
    assert s.seed is None
    s = parse_construction_spec("random_gnp:n=10,p=1/5,seed=3")
    assert s.params == {"n": 10, "p": Fraction(1, 5)}
    assert s.seed == 3
    assert parse_construction_spec("petersen").params == {}
    with pytest.raises(ValueError):
        parse_construction_spec("mystery:n=3")
    with pytest.raises(ValueError):
        parse_construction_spec("cycle:n")


def test_spec_json_roundtrip():
    s = parse_construction_spec("random_gnp:n=12,p=2/7,seed=41")
    data = s.to_json()
    assert data == {
        "family": "random_gnp",
        "params": {"n": 12, "p": "2/7"},
        "seed": 41,
    }
    back = spec_from_json(data)
    assert back == s
    assert spec_from_json('{"family": "cycle", "params": {"n": 6}}') == spec(
        "cycle", n=6
    )
    with pytest.raises(ValueError):
        spec_from_json({"family": "nope", "params": {}})


@pytest.mark.parametrize("data, message", [
    ([1, 2], "a construction spec must be a JSON object"),
    ("5", "a construction spec must be a JSON object"),
    ({"params": {"n": 5}}, 'a construction spec needs a "family"'),
    ({"family": "complete", "params": 5}, 'construction "params" must be a JSON object'),
    ({"family": "complete", "params": None}, 'construction "params" must be a JSON object'),
    ({"family": "complete", "params": [5]}, 'construction "params" must be a JSON object'),
])
def test_spec_json_shape_errors(data, message):
    with pytest.raises(ValueError) as err:
        spec_from_json(data)
    assert str(err.value) == message


def test_generated_graphs_match_predictions_via_brute():
    for text in (
        "path_power:n=9,k=3",
        "complete_multipartite:k=3",
        "cycle:n=9",
        "petersen",
    ):
        s = parse_construction_spec(text)
        g = generate(s)
        assert brute_count(g) == predicted_clique_count(s)


def test_lower_bound_spot_values():
    r2 = lower_bound_constant(2)
    assert r2.t == 4 and r2.clique_count == 9
    assert r2.exponent == pytest.approx(0.7924812503605781, abs=1e-12)
    r4 = lower_bound_constant(4)
    assert r4.t == 7 and r4.clique_count == 81
    assert r4.exponent == pytest.approx(0.9056928575549464, abs=1e-12)
    r8 = lower_bound_constant(8)
    assert r8.t == 13
    assert r8.exponent == pytest.approx(8 * math.log2(3) / 13, abs=1e-12)
    assert r2.limit == pytest.approx((2 / 3) * math.log2(3), abs=1e-15)
    with pytest.raises(ValueError):
        lower_bound_constant(0)


@pytest.mark.parametrize("k", [2.5, 2.0, True])
def test_lower_bound_refuses_a_k_that_is_not_an_int(k):
    # 2.5 used to give t = 4.0, and True the k = 1 report
    with pytest.raises(TypeError, match=f"^k must be an int, got {k!r}$"):
        lower_bound_constant(k)


def test_lower_bound_monotone_toward_limit():
    limit = (2 / 3) * math.log2(3)
    prev = 0.0
    for k in range(2, 200, 2):
        r = lower_bound_constant(k)
        assert prev < r.exponent < limit
        prev = r.exponent
    assert limit - lower_bound_constant(398).exponent < 0.002
