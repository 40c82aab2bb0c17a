from fractions import Fraction

import pytest

from latflow.capacities import (
    CapacityDistribution,
    derive_seed,
    dump_capacities,
    edge_words,
    load_capacities,
    mix64,
    region_edges,
    sample_capacities,
    sample_numerators,
)
from latflow.geometry import EdgeId, Region, box, discretize_domain, unit_square_domain


def test_constant_distribution_samples_ones():
    L = discretize_domain(unit_square_domain(), 2)
    t = sample_capacities(L, CapacityDistribution.constant(1), seed=5)
    assert all(v == 1 for v in t.values.values())


def test_determinism_across_runs_and_iteration_order():
    L = discretize_domain(unit_square_domain(), 3)
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    a = sample_capacities(L, dist, seed=42)
    b = sample_capacities(list(reversed(L.edges)), dist, seed=42)
    assert a.values == b.values


def test_exact_and_float_modes_agree_for_discrete_kinds():
    L = discretize_domain(unit_square_domain(), 3)
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    exact = sample_capacities(L, dist, seed=9, exact=True)
    flt = sample_capacities(L, dist, seed=9, exact=False)
    for e in L.edges:
        assert float(exact[e]) == flt[e]


def test_values_within_support_bound():
    region = Region(boxes=(box((0, 6), (0, 6)),))
    edges = region_edges(region, 1, d=2)
    for dist in (
        CapacityDistribution.uniform(0, 2),
        CapacityDistribution.discrete([1, 2, 3], [Fraction(1, 3)] * 3),
        CapacityDistribution.bernoulli(Fraction(1, 4), Fraction(3, 4), Fraction(1, 3)),
    ):
        t = sample_capacities(edges, dist, seed=11)
        M = dist.support_bound
        assert all(0 <= v <= M for v in t.values.values())


def test_uniform_empirical_mean_within_clt_band():
    region = Region(boxes=(box((0, 224), (0, 224)),))
    edges = region_edges(region, 1, d=2)  # ~1e5 edges
    dist = CapacityDistribution.uniform(0, 2)
    t = sample_capacities(edges, dist, seed=123, exact=False)
    vals = list(t.values.values())
    mean = sum(vals) / len(vals)
    # sd of U(0,2) is 1/sqrt(3); three sigma of the mean
    band = 3 * (1 / 3**0.5) / len(vals) ** 0.5
    assert abs(mean - 1.0) < band


def test_resampling_same_seed_is_bit_identical():
    L = discretize_domain(unit_square_domain(), 3)
    dist = CapacityDistribution.uniform(0, 2)
    a = sample_capacities(L, dist, seed=77, exact=False)
    b = sample_capacities(L, dist, seed=77, exact=False)
    assert a.values == b.values
    c = sample_capacities(L, dist, seed=78, exact=False)
    assert a.values != c.values


def test_text_round_trip():
    L = discretize_domain(unit_square_domain(), 2)
    dist = CapacityDistribution.uniform(0, 2)
    t = sample_capacities(L, dist, seed=3, exact=True)
    text = dump_capacities(t)
    back = load_capacities(text)
    assert back.values == t.values
    tf = sample_capacities(L, dist, seed=3, exact=False)
    assert load_capacities(dump_capacities(tf)).values == tf.values


def test_tail_mass():
    b = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    assert b.tail_mass(1) == Fraction(1, 2)
    assert b.tail_mass(Fraction(1, 2)) == Fraction(1, 2)
    assert b.tail_mass(0) == 1
    u = CapacityDistribution.uniform(0, 2)
    assert u.tail_mass(1) == Fraction(1, 2)
    assert u.tail_mass(3) == 0


def test_derive_seed_distinct():
    seeds = {derive_seed(1, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_invalid_distributions():
    with pytest.raises(ValueError):
        CapacityDistribution.bernoulli(0, 1, 2)
    with pytest.raises(ValueError):
        CapacityDistribution.uniform(2, 1)
    with pytest.raises(ValueError):
        CapacityDistribution.discrete([1, 2], [Fraction(1, 2), Fraction(1, 3)])


def _word_to_value(dist, u, exact):
    """The per-word formula the samplers replace: Fraction arithmetic on
    every call, rounded to float at the end in float mode."""
    if dist.kind == "constant":
        v = dist.params[0]
    elif dist.kind == "bernoulli":
        a, b, p = dist.params
        v = b if u < p * (1 << 64) else a
    elif dist.kind == "uniform":
        a, b = dist.params
        v = a + (b - a) * Fraction(u, 1 << 64)
    else:
        values, probs = dist.params
        acc, v = Fraction(0), values[-1]
        for value, p in zip(values, probs):
            acc += p
            if u < acc * (1 << 64):
                v = value
                break
    return v if exact else float(v)


@pytest.mark.parametrize("dist", [
    CapacityDistribution.constant(Fraction(2, 3)),
    CapacityDistribution.bernoulli(0, 1, Fraction(1, 3)),
    CapacityDistribution.bernoulli(Fraction(1, 7), 2, Fraction(1, 2)),
    CapacityDistribution.uniform(0, 1),
    CapacityDistribution.uniform(Fraction(1, 3), Fraction(22, 7)),
    CapacityDistribution.discrete([0, Fraction(1, 2), 3], [Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)]),
], ids=lambda dist: dist.kind)
def test_sampler_matches_the_per_word_formula_bit_for_bit(dist):
    import random

    rng = random.Random(11)
    words = [rng.getrandbits(64) for _ in range(10_000)]
    # the words on either side of every threshold
    for p in (Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)):
        cut = -(-p.numerator * (1 << 64) // p.denominator)
        words += [cut - 1, cut, cut + 1]
    words += [0, (1 << 64) - 1]
    for exact in (True, False):
        draw = dist.sampler(exact)
        for u in words:
            got, want = draw(u), _word_to_value(dist, u, exact)
            assert type(got) is type(want) and got == want, (exact, u)


def edge_word(seed, edge):
    """The per-edge hash that ``edge_words`` computes a line at a time."""
    return mix64(seed, edge.axis + 1, *[c + (1 << 31) for c in edge.x])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_edge_words_equal_the_per_edge_hash_in_order(d):
    import random

    rng = random.Random(d)
    edges = [EdgeId(tuple(rng.randint(-4, 4) for _ in range(d)), rng.randrange(d)) for _ in range(600)]
    # beyond -2^31 the offset coordinate is negative and masked to 64 bits
    edges += [EdgeId(tuple(rng.choice([-(1 << 40), -1, 1 << 40]) for _ in range(d)), rng.randrange(d))
              for _ in range(40)]
    rng.shuffle(edges)
    for seed in (0, 5, (1 << 64) - 1):
        assert edge_words(seed, edges) == [edge_word(seed, e) for e in edges]
    assert edge_words(5, []) == []


SAMPLED_LAWS = [
    CapacityDistribution.constant(Fraction(2, 3)),
    CapacityDistribution.bernoulli(Fraction(1, 7), 2, Fraction(1, 2)),
    CapacityDistribution.uniform(Fraction(1, 3), Fraction(22, 7)),
    CapacityDistribution.discrete([0, Fraction(1, 2), Fraction(5, 3)], [Fraction(1, 3), Fraction(1, 6), Fraction(1, 2)]),
]


@pytest.mark.parametrize("dist", SAMPLED_LAWS, ids=lambda dist: dist.kind)
def test_sample_numerators_are_the_samples_over_one_denominator(dist):
    L = discretize_domain(unit_square_domain(), 4)
    edges = list(reversed(L.edges))
    nums, D = sample_numerators(edges, dist, 21)
    assert len(nums) == len(edges) and all(type(x) is int for x in nums)
    exact = sample_capacities(edges, dist, 21, exact=True)
    flt = sample_capacities(edges, dist, 21, exact=False)
    for e, x in zip(edges, nums):
        assert exact[e] == Fraction(x, D) and type(exact[e]) is Fraction
        assert flt[e] == x / D and type(flt[e]) is float
