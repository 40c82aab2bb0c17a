import hashlib
from array import array
from fractions import Fraction

import pytest

from latflow.capacities import (
    CapacityDistribution,
    EdgeHasher,
    derive_seed,
    mix64,
    region_edges,
    sample_capacities,
    sample_numerators,
)
from latflow.geometry import EdgeId, Region, box, discretize_domain, unit_square_domain


def test_constant_distribution_samples_ones():
    L = discretize_domain(unit_square_domain(), 2)
    t = sample_capacities(L, CapacityDistribution.constant(1), seed=5)
    assert all(v == 1 for v in t.values())


def test_determinism_across_runs_and_iteration_order():
    L = discretize_domain(unit_square_domain(), 3)
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    a = sample_capacities(L, dist, seed=42)
    b = sample_capacities(list(reversed(L.edges)), dist, seed=42)
    assert a == b


def test_exact_and_float_modes_agree_for_discrete_kinds():
    # the rate trials run on the floats x / D of the numerators
    L = discretize_domain(unit_square_domain(), 3)
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    exact = sample_capacities(L, dist, seed=9)
    nums, D = sample_numerators(EdgeHasher(L.edges), dist, 9)
    for e, x in zip(L.edges, nums):
        assert float(exact[e]) == x / D


def test_values_within_support_bound():
    region = Region(boxes=(box((0, 6), (0, 6)),))
    edges = region_edges(region, 1)
    for dist, M in (
        (CapacityDistribution.uniform(0, 2), 2),
        (CapacityDistribution.discrete([1, 2, 3], [Fraction(1, 3)] * 3), 3),
        (CapacityDistribution.bernoulli(Fraction(1, 4), Fraction(3, 4), Fraction(1, 3)), Fraction(3, 4)),
    ):
        t = sample_capacities(edges, dist, seed=11)
        assert all(0 <= v <= M for v in t.values())


def test_uniform_empirical_mean_within_clt_band():
    region = Region(boxes=(box((0, 224), (0, 224)),))
    edges = region_edges(region, 1)  # ~1e5 edges
    dist = CapacityDistribution.uniform(0, 2)
    nums, D = sample_numerators(EdgeHasher(edges), dist, 123)
    vals = [x / D for x in nums]
    mean = sum(vals) / len(vals)
    # sd of U(0,2) is 1/sqrt(3); three sigma of the mean
    band = 3 * (1 / 3**0.5) / len(vals) ** 0.5
    assert abs(mean - 1.0) < band


def test_resampling_same_seed_is_bit_identical():
    L = discretize_domain(unit_square_domain(), 3)
    dist = CapacityDistribution.uniform(0, 2)
    a = sample_capacities(L, dist, seed=77)
    b = sample_capacities(L, dist, seed=77)
    assert a == b
    c = sample_capacities(L, dist, seed=78)
    assert a != c


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
    D, draw = dist.scaled_sampler()
    for exact in (True, False):
        for u in words:
            got = Fraction(draw(u), D) if exact else draw(u) / D
            want = _word_to_value(dist, u, exact)
            assert type(got) is type(want) and got == want, (exact, u)


def edge_word(seed, edge):
    """The per-edge hash that ``EdgeHasher.words`` computes for all edges at once."""
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
        assert EdgeHasher(edges).words(seed) == [edge_word(seed, e) for e in edges]
    assert EdgeHasher([]).words(5) == []


def test_lanes_are_64_bit_words():
    assert array("Q").itemsize == 8


def test_one_hasher_gives_the_per_edge_hash_for_every_seed():
    import random

    rng = random.Random(15)
    # last coordinates -2^31 and 2^64 - 1 - 2^31 hash the last words 0 and 2^64 - 1
    extremes = [-(1 << 31), (1 << 64) - 1 - (1 << 31)]
    for d in (1, 2, 3):
        edges = [EdgeId(tuple(rng.randint(-3, 3) for _ in range(d)), rng.randrange(d)) for _ in range(300)]
        edges += [EdgeId((*e.x[:-1], c), e.axis) for e in edges[:20] for c in extremes]
        rng.shuffle(edges)
        for hasher in (EdgeHasher(edges), EdgeHasher(edges[:1]), EdgeHasher([])):
            for seed in (0, 1, 7, (1 << 64) - 1, 1 << 64, (1 << 70) + 3, *[rng.getrandbits(64) for _ in range(12)]):
                assert hasher.words(seed) == [edge_word(seed, e) for e in hasher.edges], (d, seed)


def test_one_hasher_shared_by_threads_gives_each_seed_its_words():
    import sys
    import threading

    hasher = EdgeHasher(discretize_domain(unit_square_domain(), 8).edges)
    seeds = range(6)
    serial = [hasher.words(seed) for seed in seeds]
    results = [[] for _ in seeds]

    def work(w):
        for _ in range(40):
            results[w].append(hasher.words(seeds[w]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between nearly every bytecode
    try:
        workers = [threading.Thread(target=work, args=(w,)) for w in range(len(seeds))]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in workers)
    assert results == [[words] * 40 for words in serial]


# SHA-256 of the decimal words, one a line, of the unit-square n=24 edges and
# then the d=3 tau network's edges, each for seeds 0, 1 and 2^64 - 1: recorded
# with the per-line hash the lanes replaced
GOLDEN_WORDS = "08e045636507b1d904f5a43d3e0a234660d4bfb3feb806cc9eb793503430742a"


def test_edge_words_are_bit_identical_to_recorded_words():
    from latflow.estimate import straight_base
    from latflow.maxflow import tau_network

    square = discretize_domain(unit_square_domain(), 24).edges
    tau = tau_network(straight_base(3, 4, 2), 4).edges
    assert (len(square), len(tau)) == (1200, 152)
    words = []
    for edges in (square, tau):
        hasher = EdgeHasher(edges)
        for seed in (0, 1, (1 << 64) - 1):
            words += hasher.words(seed)
    assert hashlib.sha256("\n".join(map(str, words)).encode()).hexdigest() == GOLDEN_WORDS


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
    nums, D = sample_numerators(EdgeHasher(edges), dist, 21)
    assert len(nums) == len(edges) and all(type(x) is int for x in nums)
    exact = sample_capacities(edges, dist, 21)
    for e, x in zip(edges, nums):
        assert exact[e] == Fraction(x, D) and type(exact[e]) is Fraction
