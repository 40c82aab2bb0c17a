import hashlib
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from latflow.capacities import (
    CapacityDistribution,
    EdgeHasher,
    derive_seed,
    sample_numerators,
)
from latflow import estimate
from latflow.estimate import (
    SETTLE_ROUNDS,
    STALL_EVALUATIONS,
    CubeDistanceTables,
    CubeSpace,
    constant_target,
    estimate_flow_constant,
    estimate_rate,
    min_distance,
    rate_upper_bound,
    tail_probability,
    wilson_interval,
)
from latflow.geometry import EdgeId, discretize_domain, unit_cube, unit_square_domain
from latflow.measure import DistanceOptions, VectorMeasure, distance
from latflow.stream import Stream, dump_stream, vector_measure

import oracles


def float_capacities(edges, dist, seed):
    """{edge: capacity} as a rate trial samples it: each numerator of
    ``sample_numerators`` over D, rounded once to a float."""
    nums, D = sample_numerators(EdgeHasher(edges), dist, seed)
    return {e: x / D for e, x in zip(edges, nums)}


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0 and 0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1 and 0.95 < lo < 1
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_rate_upper_bound_values():
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    assert rate_upper_bound(dist, (1, 0)) == pytest.approx(2 * math.log(2))
    assert rate_upper_bound(dist, (0, 0)) == 0
    zero = CapacityDistribution.constant(0)
    assert rate_upper_bound(zero, (1, 0)) == float("inf")


def test_min_distance_feasible_atomic_target_holds():
    # target = mu_n(g) for an admissible g: the warm start recovers g and the
    # result is the tail-only bracket
    d, n = 2, 3
    space = CubeSpace(d, n)
    g = Stream(d, n)
    from latflow.reconnect import cube_box

    lo, hi = cube_box(d, n)
    for x0 in range(lo, hi):
        for x1 in range(lo, hi):
            g.values[EdgeId((x0, x1), 0)] = 0.5
    target = vector_measure(g)
    res = min_distance(CubeDistanceTables(space, target, DistanceOptions()), [1.0] * len(space.edges), eps=0.01)
    tail = (0.5 + target.total_variation()) / 2**12
    assert res.status == "holds"
    assert res.value <= tail + 1e-12


def test_min_distance_zero_capacities():
    d, n = 2, 2
    space = CubeSpace(d, n)
    target = constant_target(d, Fraction(1, 2), (1, 0))
    res = min_distance(CubeDistanceTables(space, target, DistanceOptions()), [0.0] * len(space.edges), eps=0.2)
    assert res.stream.values == {}
    br = distance(VectorMeasure(d=d), target)
    assert res.value == pytest.approx(br.upper, abs=1e-9)
    assert res.status == "unknown"
    assert res.value >= br.lower > 0


def _three_edge_instance():
    """Capacities positive on exactly three edges at the interior vertex of
    the n=2 cube: the feasible set is a 2-parameter polytope."""
    d, n = 2, 2
    space = CubeSpace(d, n)
    center = (0, 0)
    keep = [
        EdgeId((-1, 0), 0),  # into the center along x
        EdgeId((0, 0), 0),   # out of the center along x
        EdgeId((0, -1), 1),  # into the center along y
    ]
    t = {e: Fraction(1) if e in keep else Fraction(0) for e in space.edges}
    return space, t, keep


def _dense_polytope_min(tables, keep, grids=(41, 41)):
    """Two-stage dense grid search over the 2-dim feasible polytope."""
    space = tables.space
    ne = len(space.edges)
    idx = {e: i for i, e in enumerate(space.edges)}
    i_in, i_out, i_up = (idx[e] for e in keep)

    def value(a, b):
        # node law at the center: a enters, b leaves along x, c enters along y
        # divergence = -(-a + b - c) = 0  =>  c = b - a
        c = b - a
        if abs(c) > 1:
            return None
        s = np.zeros(ne)
        s[i_in], s[i_out], s[i_up] = a, b, c
        return tables.value(s)

    lo_a, hi_a, lo_b, hi_b = -1.0, 1.0, -1.0, 1.0
    best = (float("inf"), 0.0, 0.0)
    for stage, g in enumerate(grids):
        for a in np.linspace(lo_a, hi_a, g):
            for b in np.linspace(lo_b, hi_b, g):
                v = value(a, b)
                if v is not None and v < best[0]:
                    best = (v, a, b)
        step_a = (hi_a - lo_a) / (g - 1)
        step_b = (hi_b - lo_b) / (g - 1)
        lo_a, hi_a = best[1] - step_a, best[1] + step_a
        lo_b, hi_b = best[2] - step_b, best[2] + step_b
    return best[0]


def test_min_distance_matches_dense_grid_oracle():
    d, n = 2, 2
    space, t, keep = _three_edge_instance()
    target = constant_target(d, Fraction(1, 4), (1, 0))
    opts = DistanceOptions()
    tables = CubeDistanceTables(space, target, opts)
    res = min_distance(tables, [t[e] for e in space.edges], eps=1.0, iters=400)
    oracle = _dense_polytope_min(tables, keep)
    tail = res.value - _stream_grid_value(tables, res.stream)
    assert res.value - tail <= oracle + 1e-3
    assert oracle <= res.value - tail + 1e-3


def _stream_grid_value(tables, f):
    s = np.zeros(len(tables.space.edges))
    for i, e in enumerate(tables.space.edges):
        s[i] = float(f.get(e))
    return tables.value(s)


def test_estimate_rate_zero_target():
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    [r] = estimate_rate(0, (1, 0), [0.1], 2, 50, dist, seed=5)
    assert r.p_hat == 1.0
    assert r.successes == 50
    assert r.i_hat == 0.0


def test_estimate_rate_monotone_in_eps():
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    rs = estimate_rate(Fraction(1, 2), (1, 0), [0.3, 0.5, 0.8, 1.2], 2, 40, dist, seed=9)
    succ = [r.successes for r in rs]
    assert succ == sorted(succ)


def test_estimate_rate_respects_analytic_bound():
    # bernoulli(0,1,1/2), d=2, n=3, eps=0.3, s=1/2: I_hat (or its zero-success
    # CI bound) stays below 2 log 2 + 3 half-widths
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    [r] = estimate_rate(Fraction(1, 2), (1, 0), [0.3], 3, 120, dist, seed=11)
    bound = 2 * math.log(2)
    value = r.i_hat if r.i_hat != float("inf") else r.i_hat_bound
    assert value <= bound + 3 * r.ci_half_width


def test_estimate_rate_conservative_vs_oracle():
    # the exhaustive oracle (dense search seeded with the solver point) finds
    # at least as many successes on n=2 instances
    d, n = 2, 2
    eps = 0.6
    target = constant_target(d, Fraction(1, 4), (1, 0))
    opts = DistanceOptions()
    space, t_template, keep = _three_edge_instance()
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    tables = CubeDistanceTables(space, target, opts)
    solver_succ = 0
    oracle_succ = 0
    for trial in range(12):
        t = float_capacities(space.edges, dist, derive_seed(3, trial))
        res = min_distance(tables, [t[e] for e in space.edges], eps)
        grid_val = _stream_grid_value(tables, res.stream)
        tail = res.value - grid_val
        # oracle: coarse random search over the full box + the solver point
        rng = random.Random(trial)
        caps = np.array([float(t.get(e, 0)) for e in space.edges])
        best = grid_val
        B = (space.B * (caps > 0)).astype(float)
        P = np.linalg.pinv(B @ B.T, rcond=1e-12)
        for _ in range(60):
            s = np.array([rng.uniform(-c, c) for c in caps])
            s = s - B.T @ (P @ (B @ s))
            s = np.clip(s, -caps, caps)
            s = s - B.T @ (P @ (B @ s))
            ratio = max(
                (abs(s[i]) / caps[i] for i in range(len(s)) if caps[i] > 0 and abs(s[i]) > 0),
                default=0.0,
            )
            if ratio > 1:
                s = s / ratio
            best = min(best, tables.value(s))
        solver_succ += res.value <= eps
        oracle_succ += best + tail <= eps
    assert solver_succ <= oracle_succ


def test_flow_constant_unit_capacities_exact_ratio_one():
    dist = CapacityDistribution.constant(1)
    points = estimate_flow_constant(dist, 1, [2, 4], lambda n: n, trials=3, seed=1, d=2)
    for p in points:
        assert all(r == 1 for r in p.ratios)
        assert p.mean == 1.0


def test_flow_constant_two_point_distribution_bounds():
    dist = CapacityDistribution.discrete([1, 2], [Fraction(1, 2), Fraction(1, 2)])
    points = estimate_flow_constant(dist, 1, [3], lambda n: n, trials=8, seed=2, d=2)
    for p in points:
        for r in p.ratios:
            assert 1 <= r <= 2


def test_flow_constant_ci_shrinks_with_trials():
    dist = CapacityDistribution.uniform(0, 1)
    small = estimate_flow_constant(dist, 1, [3], lambda n: 3, trials=8, seed=3, d=2)[0]
    big = estimate_flow_constant(dist, 1, [3], lambda n: 3, trials=32, seed=3, d=2)[0]
    hw_small = (small.ci_hi - small.ci_lo) / 2
    hw_big = (big.ci_hi - big.ci_lo) / 2
    assert hw_big < hw_small


def test_tail_probability_extremes_and_consistency():
    L = discretize_domain(unit_square_domain(), 3)
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    # ceiling at lam = 10: any flat layer bounds the flow by the edge count times M
    (p0, _, _), (p_hi, _, _) = tail_probability([0, 10], 3, 30, dist, seed=4, L=L)
    assert p0 == 1.0
    assert p_hi == 0.0
    lam = Fraction(1, 2)
    [(pa, (lo_a, hi_a), _)] = tail_probability([lam], 3, 400, dist, seed=5, L=L)
    [(pb, (lo_b, hi_b), _)] = tail_probability([lam], 3, 400, dist, seed=6, L=L)
    assert 0 < pa < 1 and 0 < pb < 1
    # two independent estimates agree within 4 combined binomial sigmas
    pool = (pa + pb) / 2
    sigma = math.sqrt(2 * pool * (1 - pool) / 400)
    assert abs(pa - pb) <= 4 * sigma


def test_tail_probability_matches_the_exact_law():
    # phi_2 on the unit square under bernoulli(0, 1, 1/2), by enumerating all
    # 2^8 capacity configurations with an independent min cut
    from itertools import product

    from latflow.maxflow import max_flow

    L = discretize_domain(unit_square_domain(), 2)
    law = oracles.flow_law(L, (0, 1))
    assert law == {0: 84, 1: 122, 2: 46, 3: 4}
    edges = sorted(L.active_edges)
    solved = [max_flow(L, dict(zip(edges, caps))).value for caps in product((0, 1), repeat=len(edges))]
    assert {phi: solved.count(phi) for phi in set(solved)} == law
    # thresholds lam * n = 1/2, 3/2, 5/2 fall between the atoms of phi
    trials = 2000
    lams = [Fraction(1, 4), Fraction(3, 4), Fraction(5, 4)]
    out = tail_probability(lams, 2, trials, CapacityDistribution.bernoulli(0, 1, Fraction(1, 2)),
                           seed=7, L=L)
    assert [s for _, _, s in out] == [1362, 386, 33]
    for lam, (_, _, successes) in zip(lams, out):
        p = Fraction(sum(c for phi, c in law.items() if phi >= lam * 2), 256)
        z = (successes - trials * p) / math.sqrt(trials * p * (1 - p))
        assert abs(z) <= 4
    # thresholds on the atoms themselves, where a tie counts: P(phi >= k) at
    # lam = k / 2, and at lam = 7k / 20 under bernoulli(0, 7/10, 1/2), whose
    # samples come from the same hash words and whose atoms 7k/10 are not
    # dyadic, so a float comparison misses the ties
    for a, lams in ((1, [Fraction(k, 2) for k in range(4)]),
                    (Fraction(7, 10), [Fraction(7 * k, 20) for k in range(4)])):
        out = tail_probability(lams, 2, trials, CapacityDistribution.bernoulli(0, a, Fraction(1, 2)),
                               seed=7, L=L)
        assert [s for _, _, s in out] == [2000, 1362, 386, 33], a


def test_tail_probability_solves_each_trial_once_for_all_lams(monkeypatch):
    from latflow.maxflow import FlowNetwork

    solves = []
    real = FlowNetwork.sample_value

    def counting(network, nums, D):
        solves.append(1)
        return real(network, nums, D)

    monkeypatch.setattr(FlowNetwork, "sample_value", counting)
    L = discretize_domain(unit_square_domain(), 4)
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    lams = [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1]
    out = tail_probability(lams, 4, 200, dist, seed=7, L=L)
    assert len(solves) == 200
    counts = [s for _, _, s in out]
    # the counts of one call per lam, each re-solving every trial
    assert counts == [200, 126, 38, 8, 0]
    for p, ci, s in out:
        assert p == s / 200 and ci == wilson_interval(s, 200)


def test_one_edge_hasher_per_network(monkeypatch):
    import latflow.estimate
    from latflow.capacities import EdgeHasher

    built = []

    class Counting(EdgeHasher):
        def __init__(self, edges):
            built.append(1)
            super().__init__(edges)

    monkeypatch.setattr(latflow.estimate, "EdgeHasher", Counting)
    dist = CapacityDistribution.uniform(0, 1)
    for trials in (1, 6):
        built.clear()
        estimate_flow_constant(dist, 1, [2, 3, 4], lambda n: n, trials=trials, seed=1, d=2)
        assert len(built) == 3
        built.clear()
        tail_probability([0, 1], 3, trials, dist, seed=2, L=discretize_domain(unit_square_domain(), 3))
        assert len(built) == 1


@pytest.mark.parametrize("n", [3, 4])
def test_certified_upper_matches_distance_on_random_streams(n):
    d = 2
    rng = random.Random(100 + n)
    space = CubeSpace(d, n)
    target = constant_target(d, Fraction(1, 2), (1, 0))
    tables = CubeDistanceTables(space, target, DistanceOptions())
    for _ in range(3):
        f = Stream(d, n)
        for e in space.edges:
            if rng.random() < 0.7:
                f.values[e] = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        assert f.values
        upper = distance(vector_measure(f), target).upper
        assert tables.certified_upper(f) == pytest.approx(upper, rel=0, abs=1e-12)


def test_min_distance_only_reads_the_tables_it_is_given():
    # estimate_rate passes one tables object to every trial: each call leaves
    # every array of the tables and their space as it was, and returns what
    # tables built for that call alone give
    d, n = 2, 4
    target = constant_target(d, Fraction(1, 2), (1, 0))
    tables = CubeDistanceTables(CubeSpace(d, n), target, DistanceOptions())

    def digests():
        return {name: hashlib.sha256(a.tobytes()).hexdigest()
                for obj in (tables, tables.space) for name, a in vars(obj).items()
                if isinstance(a, np.ndarray)}

    before = digests()
    assert len(before) >= 15
    edges = tables.space.edges
    laws = (CapacityDistribution.bernoulli(0, 1, Fraction(1, 2)), CapacityDistribution.uniform(0, 1))
    for law in laws:
        for trial in range(3):
            t = float_capacities(edges, law, derive_seed(2, trial))
            caps = [t[e] for e in edges]
            got = min_distance(tables, caps, 1.0)
            assert digests() == before
            fresh = min_distance(CubeDistanceTables(CubeSpace(d, n), target, DistanceOptions()), caps, 1.0)
            assert (repr(got.value), got.status, got.iterations, dump_stream(got.stream)) == \
                (repr(fresh.value), fresh.status, fresh.iterations, dump_stream(fresh.stream))
    with pytest.raises(ValueError, match="one capacity per edge"):
        min_distance(tables, caps[:-1], 1.0)


def test_min_distance_is_bit_identical_to_recorded_values():
    # SHA-256 of (repr(value), status, dump_stream) over nine trials, recorded
    # with the projected warm start, the projected subgradient step, the
    # stall stop and the settle rounds
    bern = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    unif = CapacityDistribution.uniform(0, 1)
    h = hashlib.sha256()
    statuses = []
    for d, n, dist in ((2, 3, bern), (2, 4, unif), (3, 2, bern)):
        target = constant_target(d, Fraction(1, 2), (1,) + (0,) * (d - 1))
        space = CubeSpace(d, n)
        tables = CubeDistanceTables(space, target, DistanceOptions())
        for trial in range(3):
            t = float_capacities(space.edges, dist, derive_seed(5, trial))
            r = min_distance(tables, [t[e] for e in space.edges], 1.0)
            statuses.append(r.status)
            h.update(repr((repr(r.value), r.status, dump_stream(r.stream))).encode())
    assert statuses.count("holds") == 9
    assert h.hexdigest() == "fdc64970ea8ce48ec22099dbfb353a9c24ca5d83fb8a2186b753fd1b9f3f5adc"


def test_min_distance_at_the_bench_size_is_bit_identical_to_recorded_values():
    # SHA-256 of (repr(value), status, dump_stream) over four trials of the
    # benchmark's rate instance (d=2, n=6), recorded with the projected warm
    # start, the projected subgradient step, the stall stop and the settle rounds
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    target = constant_target(2, Fraction(1, 2), (1, 0))
    space = CubeSpace(2, 6)
    tables = CubeDistanceTables(space, target, DistanceOptions())
    h = hashlib.sha256()
    for trial in range(4):
        t = float_capacities(space.edges, dist, derive_seed(1, trial))
        r = min_distance(tables, [t[e] for e in space.edges], 1.0)
        h.update(repr((repr(r.value), r.status, dump_stream(r.stream))).encode())
    assert h.hexdigest() == "6b8050391a4c143c630f4ab100f10eafdfbc28a4a5b282c1cbbc538b5ef1ec53"


BENCH_RATE_EPS = [Fraction(3, 10), Fraction(1, 2), Fraction(3, 4), Fraction(1)]
GOLDEN_RATE_EPS = [Fraction(1, 2) + Fraction(k, 38) for k in range(20)]


@pytest.mark.parametrize("n, trials, seed, eps_list, before", [
    # the benchmark's rate config at its seeds 1 and 17
    (6, 16, 73186075, BENCH_RATE_EPS, [0, 0, 1, 16]),
    (6, 16, 777787492, BENCH_RATE_EPS, [0, 0, 2, 16]),
    # the n=4 grid of test_cli's rate.csv golden
    (4, 32, 1, GOLDEN_RATE_EPS, [0, 0, 0, 0, 1, 2, 2, 3, 4, 5, 7, 11, 12, 15, 20, 23, 26, 27, 31, 32]),
])
def test_rate_counts_rise_over_the_unprojected_warm_start(n, trials, seed, eps_list, before):
    # `before` holds the counts of the Polyak loop that scored its warm start
    # before projecting it onto the node law: no projected iterate could beat
    # that value, so at n=6 nearly every trial polished the warm start
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    counts = [r.successes for r in estimate_rate(Fraction(1, 2), (1, 0), eps_list, n, trials, dist, seed)]
    assert all(c >= b for c, b in zip(counts, before)), (counts, before)
    assert sum(counts) > sum(before), (counts, before)


def test_min_distance_stops_once_its_best_value_stalls():
    # a trial of the benchmark's rate instance (d=2, n=6) ends long before the
    # cap of 140 evaluations, after STALL_EVALUATIONS that did not improve
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    tables = CubeDistanceTables(CubeSpace(2, 6), constant_target(2, Fraction(1, 2), (1, 0)), DistanceOptions())
    t = float_capacities(tables.space.edges, dist, derive_seed(73186075, 0))
    res = min_distance(tables, [t[e] for e in tables.space.edges], 1.0)
    assert STALL_EVALUATIONS < res.iterations < 140


def test_settle_rounds_end_at_the_first_round_that_changes_nothing():
    calls = []

    def halve(s):
        calls.append(s)
        return np.floor(s / 2)

    out = estimate._settle(np.array([8.0, 3.0]), halve)
    assert out.tolist() == [0.0, 0.0]
    # 8 -> 4 -> 2 -> 1 -> 0, then the one round that returns its input
    assert len(calls) == 5
    # a -0.0 where the input held 0.0 is a change, though the two compare equal
    calls.clear()
    estimate._settle(np.array([0.0]), lambda s: calls.append(s) or -s)
    assert len(calls) == SETTLE_ROUNDS


def test_min_distance_settles_to_the_bits_of_every_round(monkeypatch):
    # at d=2, n=3 most trials reach a fixed point of the settle round well
    # within SETTLE_ROUNDS; stopping there gives the bits of running them all
    settle, rounds = estimate._settle, []

    def checked(s, step):
        calls = []
        out = settle(s, lambda x: calls.append(x) or step(x))
        full = s
        for _ in range(SETTLE_ROUNDS):
            full = step(full)
        assert out.tobytes() == full.tobytes()
        rounds.append(len(calls))
        return out

    monkeypatch.setattr(estimate, "_settle", checked)
    dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
    tables = CubeDistanceTables(CubeSpace(2, 3), constant_target(2, Fraction(1, 2), (1, 0)), DistanceOptions())
    for trial in range(6):
        t = float_capacities(tables.space.edges, dist, derive_seed(5, trial))
        min_distance(tables, [t[e] for e in tables.space.edges], 1.0)
    assert len(rounds) == 6 and min(rounds) < SETTLE_ROUNDS


def _table_case(d, n, kind):
    """(space, target) of a constant target on the cube, or a mixed target on
    the cube: atoms on and off the edge midpoints, and a density with every
    component nonzero."""
    if kind == "constant":
        return CubeSpace(d, n), constant_target(d, Fraction(1, 2), (1,) + (0,) * (d - 1))
    space = CubeSpace(d, n)
    lo = Fraction(-1, 2)
    atoms = tuple(
        (space.edges[i].midpoint(n), tuple(Fraction(j - i, 5) for j in range(d)))
        for i in (0, len(space.edges) // 2, len(space.edges) - 1)
    ) + ((tuple(lo + Fraction(j + 2, 7) for j in range(d)), (Fraction(1, 3),) * d),)
    cell = tuple((lo + Fraction(1, 4), lo + Fraction(2, 3)) for _ in range(d))
    values = tuple(Fraction((-1) ** j * (j + 1), 4) for j in range(d))
    return space, VectorMeasure(d=d, atoms=atoms, densities=((cell, values),))


@pytest.mark.parametrize("kind", ["constant", "mixed"])
@pytest.mark.parametrize("d, n", [(2, 3), (2, 6), (3, 2)])
def test_tables_match_the_bincount_reference_bit_for_bit(d, n, kind):
    from oracles import BincountTables

    space, target = _table_case(d, n, kind)
    opts = DistanceOptions()
    tables = CubeDistanceTables(space, target, opts)
    ref = BincountTables(space, target, opts)
    ne = len(space.edges)
    rng = np.random.default_rng(1000 * d + 10 * n + len(kind))
    # the solver's warm start: zero residual, so zero norms, where atoms sit
    warm = np.zeros(ne)
    mid_index = {e.midpoint(n): i for i, e in enumerate(space.edges)}
    for p, w in target.atoms:
        if p in mid_index:
            warm[mid_index[p]] += float(w[space.edges[mid_index[p]].axis]) * n**d
    vecs = [np.zeros(ne), -np.zeros(ne), warm]
    for _ in range(40):
        caps = rng.uniform(0, 1, ne) * (rng.random(ne) < 0.6)
        vecs.append(np.clip(rng.uniform(-1.5, 1.5, ne), -caps, caps) * (caps > 0))
        vecs.append(rng.integers(-2, 3, ne) / 2.0)
    for s in vecs:
        val, grad = tables.value_and_grad(s)
        ref_val, ref_grad = ref.value_and_grad(s)
        assert repr(val) == repr(ref_val)
        assert grad.tobytes() == ref_grad.tobytes()
        assert repr(tables.value(s)) == repr(ref.value(s))


def _random_mixed_target(space, rng):
    """Atoms on random edge midpoints and at random dyadic points, and
    density boxes with disjoint interiors (split along axis 0), every weight
    a random Fraction with some components zero."""
    d, n = space.d, space.n

    def weight():
        return tuple(Fraction(int(rng.integers(-4, 5)) * int(rng.random() < 0.7), int(rng.integers(1, 7)))
                     for _ in range(d))

    def coord(lo, hi):
        return Fraction(int(rng.integers(lo, hi + 1)), 24)

    mids = [space.edges[i].midpoint(n) for i in rng.choice(len(space.edges), 4, replace=False)]
    atoms = tuple((p, weight()) for p in mids) + tuple(
        (tuple(coord(-12, 12) for _ in range(d)), weight()) for _ in range(2))
    cuts = sorted({coord(-12, 12) for _ in range(3)} | {Fraction(-1, 2), Fraction(1, 2)})
    densities = []
    for lo, hi in zip(cuts, cuts[1:]):
        if rng.random() < 0.7:
            rest = [sorted((coord(-12, 11), coord(-11, 12))) for _ in range(d - 1)]
            box = ((lo, hi),) + tuple((a, b) if a < b else (a, a + Fraction(1, 24)) for a, b in rest)
            densities.append((box, weight()))
    return VectorMeasure(d=d, atoms=atoms, densities=tuple(densities))


@pytest.mark.parametrize("d, n", [(2, 4), (2, 5), (3, 2)])
def test_tables_match_the_bincount_reference_on_random_targets(d, n):
    from oracles import BincountTables

    rng = np.random.default_rng(500 + 10 * d + n)
    space = CubeSpace(d, n)
    ne = len(space.edges)
    mid_index = {e.midpoint(n): i for i, e in enumerate(space.edges)}
    # the default grid, and a grid of one point, whose per-point sum has a
    # single column
    for opts in (DistanceOptions(), DistanceOptions(lambdas=(Fraction(1),), shifts=(Fraction(0),))):
        target = _random_mixed_target(space, rng)
        tables = CubeDistanceTables(space, target, opts)
        ref = BincountTables(space, target, opts)
        # the atoms on midpoints cancelled exactly: zero residuals there
        warm = np.zeros(ne)
        for p, w in target.atoms:
            if p in mid_index:
                warm[mid_index[p]] += float(w[space.edges[mid_index[p]].axis]) * n**d
        vecs = [np.zeros(ne), -np.zeros(ne), warm, -warm]
        for _ in range(12):
            s = rng.uniform(-1.5, 1.5, ne)
            s[rng.random(ne) < 0.3] = 0.0
            s[rng.random(ne) < 0.3] = -0.0
            vecs.append(s)
            mixed = warm.copy()
            mixed[rng.random(ne) < 0.5] = -0.0
            vecs.append(mixed)
        for s in vecs:
            val, grad = tables.value_and_grad(s)
            ref_val, ref_grad = ref.value_and_grad(s)
            assert repr(val) == repr(ref_val)
            assert grad.tobytes() == ref_grad.tobytes()
            assert repr(tables.value(s)) == repr(ref.value(s))


def test_tables_evaluate_each_distinct_single_edge_cell_once():
    # the benchmark's rate instance: a constant target repeats each cube's
    # mass over the shifts, so the single-edge slots (23896 of 25556) share
    # 3446 distinct cells, and one call evaluates each of them once
    space = CubeSpace(2, 6)
    tables = CubeDistanceTables(space, constant_target(2, Fraction(1, 2), (1, 0)), DistanceOptions())
    nslots = tables.b_all.shape[1]
    assert nslots == 25556
    for a in (tables.one_edge, tables.one_b, tables.one_fixed, tables.one_weight):
        assert 5 * len(a) <= nslots
    # every value the per-point sum reads is a distinct cell, a many-edge
    # slot or the padding
    assert tables.layout.max() == len(tables.one_edge) + len(tables.many_weight)
    assert np.count_nonzero(tables.layout < tables.layout.max()) == nslots


@pytest.mark.parametrize("d, n, kind, digest", [
    (2, 3, "constant", "c1625d750818fce06772b9c1d3bf16f354ad329aaff71974b1ae951da85116af"),
    # the benchmark's rate target at its n
    (2, 6, "constant", "94d7cc42a4b50a7ec43d21fdd4fc3df3d3533da3bda0927cd1b538da61e8e681"),
    (2, 3, "mixed", "aca527ca1d900b97f68ec427a358e1ab38e6911f74c6f2a8db6c50c81373ec9c"),
    (3, 2, "constant", "e55767bd7dd692c9dfa31ed485944058a45264df90b0764457084be43ecc3a7f"),
    (3, 2, "mixed", "db45fdd49519fb022ad30e1552fbe2033b922e2ff2aa2441800f9285beef35be"),
])
def test_cube_cells_are_bit_identical_to_recorded_arrays(d, n, kind, digest):
    # SHA-256 of each array's dtype, shape and bytes, recorded while
    # _cube_cells still bucketed one point at a time (cube_key per point and
    # overlap_volume per cube and cell)
    from latflow.estimate import _cube_cells

    space, target = _table_case(d, n, kind)
    h = hashlib.sha256()
    for a in _cube_cells(space, target, DistanceOptions()):
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    assert h.hexdigest() == digest


def test_min_distance_reports_the_evaluations_it_made():
    d, n = 2, 3
    space = CubeSpace(d, n)
    caps = [1.0] * len(space.edges)

    def tables(s):
        return CubeDistanceTables(space, constant_target(d, s, (1, 0)), DistanceOptions())

    # a zero target: the zero warm start has a zero gradient at once
    res = min_distance(tables(0), caps, eps=0.1)
    assert res.iterations == 1 and res.status == "holds"
    res = min_distance(tables(Fraction(1, 2)), caps, eps=0.1, iters=25)
    assert res.iterations == 25


def _cycle_mask(space):
    """Only the four edges of one unit square whose corners are all interior
    vertices: a component that reaches no other vertex."""
    lo = min(e.x[0] for e in space.edges)
    x = (lo + 1,) * space.d
    corner = tuple(c + (j == 0) for j, c in enumerate(x)), tuple(c + (j == 1) for j, c in enumerate(x))
    keep = {EdgeId(x, 0), EdgeId(x, 1), EdgeId(corner[0], 1), EdgeId(corner[1], 0)}
    return [e in keep for e in space.edges]


@pytest.mark.parametrize("d, n", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 2)])
def test_exact_projection_matches_fraction_gauss_jordan(d, n):
    from latflow.estimate import _exact_div_project
    from oracles import fraction_gauss_jordan

    space = CubeSpace(d, n)
    ne = len(space.edges)
    rng = random.Random(7 * d + n)
    masks = [[rng.random() < p for _ in range(ne)] for p in (0.2, 0.5, 0.5, 0.8, 1.0)]
    # an interior vertex with no active edge: a zero row of the Gram matrix
    masks.append([m and not space.B[0, i] for i, m in enumerate(masks[3])])
    if n >= 3:
        masks.append(_cycle_mask(space))
    zero_rows = cycles = 0
    for mask in masks:
        B = space.B * np.array(mask)
        s = [Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) if m else Fraction(0)
             for m in mask]
        G = (B @ B.T).tolist()
        empty = sum(not any(row) for row in G)
        zero_rows += empty > 0
        cycles += np.linalg.matrix_rank(B @ B.T) < len(B) - empty
        rhs = [sum(int(B[a, i]) * s[i] for i in range(ne)) for a in range(len(B))]
        y = fraction_gauss_jordan(G, rhs)
        want = [s[i] - sum(int(B[a, i]) * y[a] for a in range(len(B))) for i in range(ne)]
        got = _exact_div_project(B, s)
        assert got == want
        assert all(sum(int(B[a, i]) * got[i] for i in range(ne)) == 0 for a in range(len(B)))
    assert zero_rows >= 1
    assert cycles >= (1 if n >= 3 else 0)


def test_shared_tables_give_every_thread_its_own_result():
    d, n = 2, 6
    space = CubeSpace(d, n)
    tables = CubeDistanceTables(space, constant_target(d, Fraction(1, 2), (1, 0)), DistanceOptions())
    rng = np.random.default_rng(0)
    vecs = [rng.uniform(-1, 1, len(space.edges)) for _ in range(2)]
    serial = [tables.value_and_grad(s) for s in vecs]
    results = [[], []]

    def work(w):
        for _ in range(1000):
            results[w].append(tables.value_and_grad(vecs[w]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between nearly every bytecode
    try:
        workers = [threading.Thread(target=work, args=(w,)) for w in range(2)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
    finally:
        sys.setswitchinterval(old)
    for w, (val, grad) in enumerate(serial):
        assert len(results[w]) == 1000
        for v, g in results[w]:
            assert v == val and g.tobytes() == grad.tobytes()
