import random
from fractions import Fraction

import pytest

from latflow.capacities import CapacityDistribution, sample_capacities
from latflow.geometry import EdgeId, Region, discretize_domain, unit_cube, unit_square_domain
from latflow.maxflow import max_flow
from latflow.reconnect import cube_box
from latflow.stream import (
    Stream,
    admissibility_region_report,
    admissibility_report,
    constant_stream,
    divergence_at,
    dump_stream,
    face_flux,
    flow_value,
    load_stream,
    transform,
    vector_measure,
)

import oracles


def test_divergence_of_empty_stream():
    f = Stream(2, 2)
    assert divergence_at(f, (0, 0)) == 0


def test_divergence_sign_convention_single_edge():
    # one edge <x, x+e1/n> with s = 1: water disappears at x, appears at x+e1/n
    f = Stream(2, 2)
    f.values[EdgeId((0, 0), 0)] = 1
    assert divergence_at(f, (0, 0)) == -1
    assert divergence_at(f, (1, 0)) == 1
    assert divergence_at(f, (0, 1)) == 0


def test_maxflow_stream_conserves_interior():
    L = discretize_domain(unit_square_domain(), 3)
    t = sample_capacities(L, CapacityDistribution.uniform(0, 1), seed=4)
    res = max_flow(L, t)
    for x in L.omega - (L.gamma1 | L.gamma2):
        assert divergence_at(res.stream, x) == 0


def test_zero_stream_admissible():
    L = discretize_domain(unit_square_domain(), 2)
    t = sample_capacities(L, CapacityDistribution.constant(1), seed=1)
    rep = admissibility_report(Stream(2, 2), t, L)
    assert rep.admissible


def test_capacity_violation_is_reported_with_edge():
    L = discretize_domain(unit_square_domain(), 2)
    t = sample_capacities(L, CapacityDistribution.constant(1), seed=1)
    f = Stream(2, 2)
    bad = EdgeId((0, 1), 0)
    f.values[bad] = Fraction(11, 10)
    rep = admissibility_report(f, t, L)
    assert not rep.capacity
    assert bad in rep.bad_capacity


def test_maxflow_output_passes_admissibility():
    L = discretize_domain(unit_square_domain(), 3)
    t = sample_capacities(L, CapacityDistribution.bernoulli(0, 1, Fraction(1, 2)), seed=8)
    res = max_flow(L, t)
    rep = admissibility_report(res.stream, t, L)
    assert rep.admissible


def test_region_report_checks_only_left_endpoints_in_region():
    region = Region(boxes=(unit_cube(2),))
    f = Stream(2, 2)
    outside = EdgeId((5, 5), 0)
    f.values[outside] = 100
    t = {}
    rep = admissibility_region_report(f, t, region)
    assert rep.capacity  # the offending edge sits outside the region


def test_vector_measure_single_edge():
    f = Stream(2, 2)
    f.values[EdgeId((0, 0), 0)] = 1
    nu = vector_measure(f)
    assert len(nu.atoms) == 1
    point, weight = nu.atoms[0]
    assert point == (Fraction(1, 4), Fraction(0))
    assert weight == (Fraction(1, 4), 0)


def test_vector_measure_total_variation_and_linearity():
    rng = random.Random(5)
    f = Stream(2, 2)
    g = Stream(2, 2)
    lo, hi = cube_box(2, 2)
    for x0 in range(lo, hi):
        for x1 in range(lo, hi):
            for ax in range(2):
                f.set(EdgeId((x0, x1), ax), Fraction(rng.randint(-3, 3)))
                g.set(EdgeId((x0, x1), ax), Fraction(rng.randint(-3, 3)))
    tv = vector_measure(f).total_variation()
    expected = sum(abs(v) for v in f.values.values()) / 2**2
    assert abs(tv - float(expected)) < 1e-12
    addition = vector_measure(f + g)
    merged = {}
    for p, w in vector_measure(f).atoms + vector_measure(g).atoms:
        acc = merged.setdefault(p, [0, 0])
        acc[0] += w[0]
        acc[1] += w[1]
    for p, w in addition.atoms:
        assert tuple(merged[p]) == w


def test_flow_value_single_line():
    L = discretize_domain(unit_square_domain(), 2)
    f = Stream(2, 2)
    for k in range(2):
        f.values[EdgeId((k, 1), 0)] = 1
    assert flow_value(f, L) == 1


def test_flow_value_matches_divergence_sum():
    L = discretize_domain(unit_square_domain(), 3)
    rng = random.Random(11)
    for _ in range(100):
        t = sample_capacities(L, CapacityDistribution.uniform(0, 1), seed=rng.getrandbits(32))
        res = max_flow(L, t)
        total = sum(-divergence_at(res.stream, x) for x in L.gamma1)
        assert flow_value(res.stream, L) == total


def test_face_flux_constant_stream():
    d, n, m = 2, 4, 2
    s = Fraction(3, 5)
    f = constant_stream(unit_cube(d), (s, Fraction(0)), n)
    from latflow.geometry import face_partition

    for cell in face_partition(d, 0, 1, m):
        flux = face_flux(f, cell, 0, 1)
        assert flux == s * Fraction(1, m ** (d - 1)) * n ** (d - 1)
    for cell in face_partition(d, 1, 1, m):
        assert face_flux(f, cell, 1, 1) == 0


def test_face_flux_gauss_green():
    # conservative stream in the cube: inflow equals outflow over the faces
    d, n = 2, 4
    f = constant_stream(unit_cube(d), (Fraction(1), Fraction(1, 2)), n)
    total_in = sum(
        face_flux(f, oracles.cube_face(d, ax, -1), ax, -1) for ax in range(d)
    )
    total_out = sum(
        face_flux(f, oracles.cube_face(d, ax, 1), ax, 1) for ax in range(d)
    )
    assert total_in == total_out


def test_stream_file_round_trip_exact_and_float():
    f = Stream(2, 3)
    f.values[EdgeId((-1, 2), 0)] = Fraction(22, 7)
    f.values[EdgeId((0, 0), 1)] = -3
    text = dump_stream(f)
    assert text == "2 3\n-1 2 0 22/7\n0 0 1 -3\n"
    g = load_stream(text)
    assert g.d == f.d and g.n == f.n
    assert g.values == f.values
    # a value written as a float, such as a float's shortest repr, is read as
    # exactly the decimal written
    g = load_stream("2 3\n0 0 1 -0.1234567890123456789\n1 0 0 1e-3\n")
    assert g.values == {EdgeId((0, 0), 1): Fraction("-0.1234567890123456789"),
                        EdgeId((1, 0), 0): Fraction(1, 1000)}
    for bad in ("inf", "nan", "-inf", "1/0", "one"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            load_stream(f"2 3\n0 0 1 {bad}\n")


def test_transform_round_trip():
    f = Stream(2, 1)
    f.values[EdgeId((0, 1), 0)] = Fraction(2)
    f.values[EdgeId((1, 1), 1)] = Fraction(-3)
    g = transform(f, [False, True], [2, 3])
    # an edge along the flipped axis changes sign, one across it keeps its value
    assert g.values == {EdgeId((2, 1), 0): Fraction(2), EdgeId((3, 0), 1): Fraction(3)}
    # the same flip, with the opposite shift, undoes it
    assert transform(g, [False, True], [-2, 3]).values == f.values


def test_decompose_then_sum_identity_on_maxflow_outputs():
    from latflow.reconnect import decompose, recompose

    rng = random.Random(3)
    L = discretize_domain(unit_square_domain(), 3)
    for _ in range(20):
        t = sample_capacities(
            L, CapacityDistribution.bernoulli(0, 1, Fraction(1, 2)), seed=rng.getrandbits(32)
        )
        res = max_flow(L, t)
        paths = decompose(res.stream, L)
        assert recompose(paths, 2, 3).values == res.stream.values


def _rounded_file(f):
    """The stream file of f with each value rounded once to a float, read
    back: each value is then exactly the decimal of that float."""
    return load_stream(dump_stream(Stream(f.d, f.n, {e: float(v) for e, v in f.values.items()})))


def test_decompose_rejects_a_rounded_float_max_flow():
    # each value is the exact flow rounded once, so the exact node law breaks
    from latflow.reconnect import decompose

    L = discretize_domain(unit_square_domain(), 3)
    t = sample_capacities(L, CapacityDistribution.uniform(0, 1), seed=21)
    with pytest.raises(ValueError, match="node law violated"):
        decompose(_rounded_file(max_flow(L, t).stream), L)


def test_decompose_float_max_flow_of_integer_capacities_exactly():
    # 0 / 1 capacities give an integer flow, which no rounding changes
    from latflow.reconnect import decompose, recompose

    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    for n, seed in ((3, 7), (4, 3), (6, 6)):
        L = discretize_domain(unit_square_domain(), n)
        f = max_flow(L, sample_capacities(L, dist, seed=seed)).stream
        g = _rounded_file(f)
        assert f.values and g.values == f.values
        paths = decompose(g, L)
        assert recompose(paths, 2, n).values == f.values


def test_region_report_trio_on_cube():
    region = Region(boxes=(unit_cube(2),))
    t = sample_capacities(
        [EdgeId((x0, x1), ax) for x0 in range(-2, 2) for x1 in range(-2, 2) for ax in range(2)],
        CapacityDistribution.constant(1), seed=0,
    )
    assert admissibility_region_report(Stream(2, 4), t, region).admissible
    f = Stream(2, 4)
    f.values[EdgeId((0, 0), 0)] = Fraction(3, 2)  # above capacity
    rep = admissibility_region_report(f, t, region)
    assert not rep.capacity and EdgeId((0, 0), 0) in rep.bad_capacity
    g = constant_stream(unit_cube(2), (Fraction(1, 2), Fraction(0)), 4)
    rep2 = admissibility_region_report(g, t, region)
    assert rep2.capacity and rep2.node_law


def test_in_place_sum_matches_the_copying_sum():
    f = Stream(2, 3, {EdgeId((0, 0), 0): Fraction(1, 2), EdgeId((1, 0), 1): 1})
    g = Stream(2, 3, {EdgeId((0, 0), 0): Fraction(-1, 2), EdgeId((2, 0), 0): 3})
    f_before, g_before = dict(f.values), dict(g.values)
    total = f + g
    assert (f.values, g.values) == (f_before, g_before)
    acc = f.copy()
    alias = acc
    acc += g
    assert acc is alias
    assert acc.values == total.values == {EdgeId((1, 0), 1): 1, EdgeId((2, 0), 0): 3}
    with pytest.raises(ValueError):
        acc += Stream(2, 4)
