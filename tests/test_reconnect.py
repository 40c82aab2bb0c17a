import random
from fractions import Fraction
from itertools import product

import pytest

from latflow.capacities import CapacityDistribution, sample_capacities
from latflow.geometry import EdgeId, Region, discretize_domain, unit_cube, unit_square_domain
from latflow.maxflow import max_flow
from latflow.reconnect import (
    balance_faces,
    cube_box,
    decompose,
    glue_adjacent,
    measure_face_fluxes,
    mix,
    mix2d,
    mix_precise,
    mix_sparse,
    recompose,
    sparse_c,
    _face_cells,
    _mix2d_steps,
)
from latflow.stream import Stream, admissibility_region_report, constant_stream, divergence_at

import oracles


def rand_frac(rng, lo, hi, q=16):
    return Fraction(rng.randint(int(lo * q), int(hi * q)), q)


def node_law_holds(f, exempt):
    verts = set()
    for e in f.values:
        verts.add(e.x)
        verts.add(e.right())
    for x in verts:
        if x in exempt:
            continue
        if divergence_at(f, x) != 0:
            return False, x
    return True, None


def mix_exempt(r, m, d):
    cols = {0, m}
    out = set()
    for y in product(range(1, r + 1), repeat=d - 1):
        for c in cols:
            out.add((c,) + y)
    return out


def check_mix_postconditions(g, f_in, f_out, m, M, d, tol=0):
    r = max(max(k) for k in f_in)
    # support in [0, m) x [1, r]^{d-1}
    for e in g.values:
        assert 0 <= e.x[0] < m, f"support column {e.x}"
        assert all(1 <= c <= r for c in e.x[1:]), f"support transverse {e.x}"
    # magnitude bound
    for v in g.values.values():
        assert abs(v) <= M + tol
    # boundary values
    for y in f_in:
        assert g.get(EdgeId((0,) + y, 0)) == f_in[y]
        assert g.get(EdgeId((m - 1,) + y, 0)) == f_out[y]
    ok, bad = node_law_holds(g, mix_exempt(r, m, d))
    assert ok, f"node law fails at {bad}"


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_zero_stream():
    L = discretize_domain(unit_square_domain(), 2)
    assert decompose(Stream(2, 2), L) == []


def test_decompose_single_line():
    L = discretize_domain(unit_square_domain(), 2)
    f = Stream(2, 2)
    for k in range(2):
        f.values[EdgeId((k, 1), 0)] = Fraction(1)
    paths = decompose(f, L)
    assert len(paths) == 1
    verts, w = paths[0]
    assert w == 1
    assert verts[0] in L.gamma1 and verts[-1] in L.gamma2


def test_decompose_maxflow_outputs_exact_and_aligned():
    rng = random.Random(17)
    spec = unit_square_domain()
    for trial in range(30):
        n = rng.choice([2, 3])
        L = discretize_domain(spec, n)
        t = sample_capacities(
            L, CapacityDistribution.bernoulli(0, 1, Fraction(1, 2)), seed=rng.getrandbits(32)
        )
        res = max_flow(L, t)
        paths = decompose(res.stream, L)
        assert recompose(paths, 2, n).values == res.stream.values
        terminals = L.gamma1 | L.gamma2
        for verts, w in paths:
            assert w > 0
            assert verts[0] in terminals and verts[-1] in terminals
            assert all(v not in terminals for v in verts[1:-1])
            assert len(set(verts)) == len(verts)  # self-avoiding
            for u, z in zip(verts, verts[1:]):
                diff = [b - a for a, b in zip(u, z)]
                ax = next(j for j, c in enumerate(diff) if c)
                e = EdgeId(tuple(u) if diff[ax] > 0 else tuple(z), ax)
                assert res.stream.get(e) * diff[ax] > 0  # strict alignment


def test_decompose_flux_accounting():
    rng = random.Random(23)
    L = discretize_domain(unit_square_domain(), 3)
    for _ in range(10):
        t = sample_capacities(L, CapacityDistribution.uniform(0, 1), seed=rng.getrandbits(32))
        res = max_flow(L, t)
        paths = decompose(res.stream, L)
        for x in L.gamma1 | L.gamma2:
            starts = sum(w for verts, w in paths if verts[0] == x)
            ends = sum(w for verts, w in paths if verts[-1] == x)
            assert starts - ends == -divergence_at(res.stream, x)


def test_decompose_rejects_interior_violation():
    L = discretize_domain(unit_square_domain(), 2)
    f = Stream(2, 2)
    f.values[EdgeId((1, 1), 0)] = Fraction(1)  # dead-ends at an interior vertex
    with pytest.raises(ValueError):
        decompose(f, L)


def test_decompose_rejects_circulation():
    L = discretize_domain(unit_square_domain(), 3)
    f = Stream(2, 3)
    # plaquette circulation strictly inside the interior block {1,2}^2
    f.values[EdgeId((1, 1), 0)] = Fraction(1)
    f.values[EdgeId((2, 1), 1)] = Fraction(1)
    f.values[EdgeId((1, 2), 0)] = Fraction(-1)
    f.values[EdgeId((1, 1), 1)] = Fraction(-1)
    assert all(divergence_at(f, x) == 0 for x in L.omega)
    with pytest.raises(ValueError, match="circulation"):
        decompose(f, L)


# ---------------------------------------------------------------------------
# mix2d


def test_mix2d_equal_inputs_are_straight_lines():
    c = Fraction(3, 7)
    g = mix2d([c, c, c], M=1)
    for e, v in g.values.items():
        assert e.axis == 0
        assert v == c
    assert len(g.values) == 9


def test_mix2d_hand_run_M_minus_M():
    M = Fraction(1)
    g = mix2d([M, -M], M)
    assert g.get(EdgeId((0, 1), 0)) == M
    assert g.get(EdgeId((0, 2), 0)) == -M
    assert g.get(EdgeId((1, 1), 0)) == 0
    assert g.get(EdgeId((1, 2), 0)) == 0
    verticals = [abs(v) for e, v in g.values.items() if e.axis == 1]
    assert verticals and max(verticals) <= M


def test_mix2d_postconditions_random():
    rng = random.Random(5)
    M = Fraction(2)
    for _ in range(150):
        r = rng.randint(1, 8)
        f_in = [rand_frac(rng, -2, 2) for _ in range(r)]
        g = mix2d(f_in, M)
        total = sum(f_in)
        mean = Fraction(total, r)
        fin = {(i,): f_in[i - 1] for i in range(1, r + 1)}
        fout = {(i,): mean for i in range(1, r + 1)}
        check_mix_postconditions(g, fin, fout, r, M, 2)


def test_mix2d_instrumented_invariants():
    # the proof invariants hold before the first rerouting step and after
    # each one, on the nonnegative-sum inputs mix2d gives the core mixer
    rng = random.Random(6)
    M = Fraction(1)
    for _ in range(50):
        r = rng.randint(2, 6)
        f_in = [rand_frac(rng, -1, 1) for _ in range(r)]
        sign = 1 if sum(f_in) >= 0 else -1
        core_in = [sign * v for v in f_in]
        for f, beta, col in _mix2d_steps(core_in, M):
            oracles.check_mix2d_invariants(f, core_in, beta, col, r, M)
        assert f.scaled(sign).values == mix2d(f_in, M).values


def test_mix2d_rejects_oversized_inputs():
    with pytest.raises(ValueError):
        mix2d([Fraction(3)], M=2)


def test_mix2d_float_mean_below_every_equal_input():
    # 3x / 3 rounds below x in floats; the exact mean is x, so no row is a
    # deficit source and no row at r borrows a column
    x = 0.36151742956066213
    assert sum([x, x, x]) / 3 < x
    g = mix2d([Fraction(x)] * 3, 1)
    for e, v in g.values.items():
        assert e.axis == 0 and v == Fraction(x)


# ---------------------------------------------------------------------------
# mix


def grid_keys(r, k):
    return list(product(range(1, r + 1), repeat=k))


def random_matched_family(rng, r, d, M):
    keys = grid_keys(r, d - 1)
    f_in = {k: rand_frac(rng, -float(M) / 2, float(M) / 2) for k in keys}
    f_out = {k: rand_frac(rng, -float(M) / 2, float(M) / 2) for k in keys}
    shift = Fraction(sum(f_in.values()) - sum(f_out.values()), len(keys))
    f_out = {k: v + shift for k, v in f_out.items()}
    assert all(abs(v) <= M for v in f_out.values())
    return f_in, f_out


def test_mix_uniform_outputs_minimal_width():
    rng = random.Random(9)
    for d in (2, 3):
        r = 2
        keys = grid_keys(r, d - 1)
        f_in = {k: rand_frac(rng, -1, 1) for k in keys}
        mean = Fraction(sum(f_in.values()), r ** (d - 1))
        f_out = {k: mean for k in keys}
        m = (d - 1) * r
        g = mix(f_in, f_out, m, M=2)
        check_mix_postconditions(g, f_in, f_out, m, Fraction(2), d)


def test_mix_general_random_families():
    rng = random.Random(10)
    M = Fraction(2)
    for trial in range(60):
        d = rng.choice([2, 3])
        r = rng.randint(1, 4 if d == 2 else 3)
        f_in, f_out = random_matched_family(rng, r, d, M)
        m = 2 * (d - 1) * r + rng.choice([0, 1, 3])
        g = mix(f_in, f_out, m, M)
        check_mix_postconditions(g, f_in, f_out, m, M, d)


def test_mix_errors():
    f_in = {(1,): Fraction(1), (2,): Fraction(0)}
    f_out = {(1,): Fraction(0), (2,): Fraction(0)}
    with pytest.raises(ValueError):
        mix(f_in, f_out, 8, M=2)  # sums differ
    f_out = {(1,): Fraction(0), (2,): Fraction(1)}
    with pytest.raises(ValueError):
        mix(f_in, f_out, 3, M=2)  # m < 2(d-1)r = 4
    with pytest.raises(ValueError):
        mix(f_in, f_out, 8, M=Fraction(1, 2))  # magnitude bound


# ---------------------------------------------------------------------------
# sparse mix


def sparse_keys(r0, K, k):
    return list(product([K * a for a in range(1, r0 + 1)], repeat=k))


def test_mix_sparse_support_and_bound():
    rng = random.Random(12)
    d, n, K = 3, 12, 4
    r0 = n // K
    keys = sparse_keys(r0, K, d - 1)
    f_in = {k: rand_frac(rng, -1, 1) for k in keys}
    f_out = {k: rand_frac(rng, -1, 1) for k in keys}
    shift = Fraction(sum(f_in.values()) - sum(f_out.values()), len(keys))
    f_out = {k: v + shift for k, v in f_out.items()}
    g = mix_sparse(f_in, f_out, K, M=2, n=n)
    from latflow.geometry import box, sparse_edge_count_bound

    region = Region(boxes=(box((0, n), (1, n + 1), (1, n + 1)),))
    allowed = set(oracles.sparse_edge_set(K, region, 1, d=d))
    for e in g.values:
        assert e in allowed, f"edge {e} off the sparse set"
    assert len(g.values) <= sparse_edge_count_bound(d, n, K)
    # boundary values and node law
    for y in keys:
        assert g.get(EdgeId((0,) + y, 0)) == f_in[y]
        assert g.get(EdgeId((n - 1,) + y, 0)) == f_out[y]
    exempt = {(0,) + y for y in keys} | {(n,) + y for y in keys}
    ok, bad = node_law_holds(g, exempt)
    assert ok, bad


def test_mix_sparse_single_pair_routes_one_corridor():
    d, K = 2, 2
    n = 6
    keys = sparse_keys(n // K, K, d - 1)
    f_in = {k: Fraction(0) for k in keys}
    f_out = {k: Fraction(0) for k in keys}
    f_in[(2,)] = Fraction(1)
    f_out[(4,)] = Fraction(1)
    g = mix_sparse(f_in, f_out, K, M=1, n=n)
    assert g.get(EdgeId((0, 2), 0)) == 1
    assert g.get(EdgeId((n - 1, 4), 0)) == 1
    ok, bad = node_law_holds(g, {(0, 2), (n, 4), (0, 4), (n, 2)})
    assert ok, bad


def test_mix_sparse_property_suite():
    rng = random.Random(13)
    for trial in range(40):
        d = rng.choice([2, 3])
        K = sparse_c(d) + rng.choice([0, 1])
        r0 = rng.randint(1, 2 if d == 3 else 3)
        n = K * r0 + rng.choice([0, 1])
        keys = sparse_keys(r0, K, d - 1)
        f_in = {k: rand_frac(rng, -1, 1) for k in keys}
        f_out = {k: rand_frac(rng, -1, 1) for k in keys}
        shift = Fraction(sum(f_in.values()) - sum(f_out.values()), len(keys))
        f_out = {k: v + shift for k, v in f_out.items()}
        g = mix_sparse(f_in, f_out, K, M=2, n=n)
        for y in keys:
            assert g.get(EdgeId((0,) + y, 0)) == f_in[y]
            assert g.get(EdgeId((n - 1,) + y, 0)) == f_out[y]
        for v in g.values.values():
            assert abs(v) <= 2
        exempt = {(0,) + y for y in keys} | {(n,) + y for y in keys}
        ok, bad = node_law_holds(g, exempt)
        assert ok, bad


def test_mix_sparse_rejects_small_K():
    d = 3
    K = sparse_c(d) - 1
    keys = sparse_keys(1, K, d - 1)
    fam = {k: Fraction(0) for k in keys}
    with pytest.raises(ValueError):
        mix_sparse(fam, fam, K, M=1)


# ---------------------------------------------------------------------------
# precise mix


def test_mix_precise_nonnegative_band():
    rng = random.Random(14)
    eps = Fraction(1, 4)
    for _ in range(20):
        r = rng.randint(1, 5)
        vals = [Fraction(rng.randint(0, 4), 16) for _ in range(r)]
        f_in = {(i,): vals[i - 1] for i in range(1, r + 1)}
        g = mix_precise(f_in, M=1, eps=eps)
        mean = Fraction(sum(vals), r)
        for e, v in g.values.items():
            if e.axis == 0:
                assert -1 <= v <= eps
            else:
                assert abs(v) <= eps
        for i in range(1, r + 1):
            assert g.get(EdgeId((r - 1, i), 0)) == mean


def test_mix_precise_mixed_signs_d2():
    # prefix condition: the total is negative but all inputs are eps-close
    eps = Fraction(1, 2)
    vals = [Fraction(-1, 2), Fraction(-1, 4), Fraction(-1, 2), Fraction(-3, 8)]
    f_in = {(i,): vals[i - 1] for i in range(1, 5)}
    g = mix_precise(f_in, M=1, eps=eps)
    mean = Fraction(sum(vals), 4)
    for i in range(1, 5):
        assert g.get(EdgeId((0, i), 0)) == vals[i - 1]
        assert g.get(EdgeId((3, i), 0)) == mean
    for e, v in g.values.items():
        if e.axis == 0:
            assert -1 <= v <= eps
        else:
            assert abs(v) <= eps


def test_mix_precise_d3_postconditions():
    rng = random.Random(15)
    eps = Fraction(1, 2)
    d, r = 3, 3
    for _ in range(25):
        keys = grid_keys(r, d - 1)
        f_in = {}
        # positive-sum family with occasional negatives within eps
        for k in keys:
            f_in[k] = Fraction(rng.randint(-2, 8), 16)
        if sum(f_in.values()) < 0:
            f_in = {k: v + Fraction(1, 4) for k, v in f_in.items()}
        # nested prefixes may still fail; only run when the conditions hold
        try:
            g = mix_precise(f_in, M=1, eps=eps)
        except ValueError:
            continue
        mean = Fraction(sum(f_in.values()), r ** (d - 1))
        L = (d - 1) * r
        for y in keys:
            assert g.get(EdgeId((0,) + y, 0)) == f_in[y]
            assert g.get(EdgeId((L - 1,) + y, 0)) == mean
        for e, v in g.values.items():
            assert 0 <= e.x[0] < L
            if e.axis == 0:
                assert Fraction(-1) <= v <= eps
            else:
                assert abs(v) <= eps
        ok, bad = node_law_holds(g, mix_exempt(r, L, d))
        assert ok, bad


def test_mix_precise_rejects_with_level_index():
    eps = Fraction(1, 8)
    vals = [Fraction(-1, 2), Fraction(1, 4)]
    f_in = {(i,): vals[i - 1] for i in range(1, 3)}
    with pytest.raises(ValueError, match="level 0"):
        mix_precise(f_in, M=1, eps=eps)


# ---------------------------------------------------------------------------
# balance_faces


def zero_fluxes(d, m):
    return {key: Fraction(0) for key in _face_cells(d, m)}


def random_balanced_targets(rng, d, m, scale=Fraction(1, 8)):
    beta = {key: rand_frac(rng, -0.25, 0.25) for key in _face_cells(d, m)}
    minus_total = sum(v for k, v in beta.items() if k[1] == -1)
    plus_total = sum(v for k, v in beta.items() if k[1] == 1)
    # repair the balance on one plus-side cell
    key0 = next(k for k in beta if k[1] == 1)
    beta[key0] += minus_total - plus_total
    return beta


def test_balance_zero_targets_zero_residual():
    d, n, m, K = 2, 8, 2, 2
    lam = zero_fluxes(d, m)
    beta = zero_fluxes(d, m)
    f_res = balance_faces(lam, beta, K, m, d, n)
    assert f_res.values == {}


def test_balance_single_surplus_deficit_pair():
    d, n, m, K = 2, 8, 1, 2
    lam = zero_fluxes(d, m)
    beta = zero_fluxes(d, m)
    beta[(0, -1, (0,))] = Fraction(1, 4)   # water in through the left face
    beta[(1, 1, (0,))] = Fraction(1, 4)    # water out through the top face
    f_res = balance_faces(lam, beta, K, m, d, n)
    got = measure_face_fluxes(f_res, m)
    for key in beta:
        assert got[key] == beta[key], key
    lo, hi = cube_box(d, n)
    interior_exempt = set()
    ok, bad = node_law_holds_cube(f_res, d, n)
    assert ok, bad


def node_law_holds_cube(f, d, n):
    """Node law at every vertex x of the cube with all x - e_j/n inside."""
    region = Region(boxes=(unit_cube(d),))
    rep = admissibility_region_report(f, {}, region)
    # ignore the capacity verdict (no capacities); node law only
    if rep.node_law:
        return True, None
    return False, rep.bad_vertices[:3]


def test_balance_random_targets_hit_exactly():
    rng = random.Random(21)
    d, n, m, K = 2, 8, 2, 2
    for trial in range(50):
        lam = {key: rand_frac(rng, -0.125, 0.125) for key in _face_cells(d, m)}
        minus_total = sum(v for k, v in lam.items() if k[1] == -1)
        plus_total = sum(v for k, v in lam.items() if k[1] == 1)
        key0 = next(k for k in lam if k[1] == 1)
        lam[key0] += minus_total - plus_total
        beta = random_balanced_targets(rng, d, m)
        f_res = balance_faces(lam, beta, K, m, d, n)
        got = measure_face_fluxes(f_res, m)
        for key in beta:
            assert got[key] == beta[key] - lam[key], (trial, key)
        ok, bad = node_law_holds_cube(f_res, d, n)
        assert ok, (trial, bad)


def test_balance_support_scaling_d3():
    rng = random.Random(22)
    d, m = 3, 1
    sizes = []
    for n, K in ((8, 4), (16, 4), (16, 8)):
        beta = random_balanced_targets(rng, d, m)
        lam = zero_fluxes(d, m)
        f_res = balance_faces(lam, beta, K, m, d, n)
        got = measure_face_fluxes(f_res, m)
        for key in beta:
            assert got[key] == beta[key] - lam[key]
        support = len(f_res.values)
        sizes.append((n, K, support))
        # kappa'_d shape: support <= C n^d / K^{d-2} with a generous constant
        assert support <= 64 * n**d / K ** (d - 2)


def test_balance_per_edge_magnitude_bound():
    rng = random.Random(25)
    d, n, m, K = 2, 8, 2, 2
    for _ in range(10):
        beta = random_balanced_targets(rng, d, m)
        lam = zero_fluxes(d, m)
        f_res = balance_faces(lam, beta, K, m, d, n)
        cells = _face_cells(d, m)
        per_point = []
        from latflow.reconnect import _cell_sparse_points, _sparse_coords

        levels = set(_sparse_coords(n, K, d))
        for key, cell in cells.items():
            pts = _cell_sparse_points(cell, key[0], key[1], n, K, levels)
            per_point.append(abs(beta[key] - lam[key]) / len(pts))
        bound = 2 * (2 * d) ** 2 * max(per_point)
        assert f_res.max_magnitude() <= bound


def test_balance_float_targets_hit_within_rounding():
    # seed 1 of a uniform-float scan at (d, n, m, K) = (2, 8, 1, 2): a mix2d
    # inside the construction once got a float mean below all of its inputs
    d, n, m, K = 2, 8, 1, 2
    rng = random.Random(1)
    cells = _face_cells(d, m)
    lam = {k: Fraction(rng.uniform(-1, 1) / 8) for k in cells}
    beta = {k: Fraction(rng.uniform(-1, 1) / 4) for k in cells}
    for fl in (lam, beta):
        key0 = next(k for k in fl if k[1] == 1)
        fl[key0] += sum(v for k, v in fl.items() if k[1] == -1) - sum(v for k, v in fl.items() if k[1] == 1)
    got = measure_face_fluxes(balance_faces(lam, beta, K, m, d, n), m)
    for key in cells:
        assert got[key] == beta[key] - lam[key], key


def test_balance_hits_targets_when_K_divides_the_last_interior_plane():
    # K | (n/2 - 1) puts a sparse level on the cube's last vertex plane
    # n/2 - 1, which the rails must stay off
    configs = [(2, n, m, K) for n in range(6, 21, 2) for m in (1, 2) for K in range(2, 6)]
    configs += [(3, n, m, K) for n in (8, 10, 12) for m in (1, 2) for K in (4, 5)]
    configs = [c for c in configs if (c[1] // 2 - 1) % c[3] == 0]
    assert len(configs) == 24
    rng = random.Random(12)
    for d, n, m, K in configs:
        lam = random_balanced_targets(rng, d, m)
        beta = random_balanced_targets(rng, d, m)
        f_res = balance_faces(lam, beta, K, m, d, n)
        got = measure_face_fluxes(f_res, m)
        for key in beta:
            assert got[key] == beta[key] - lam[key], (d, n, m, K, key)
        ok, bad = node_law_holds_cube(f_res, d, n)
        assert ok, (d, n, m, K, bad)


def test_balance_hits_targets_when_the_levels_fill_the_width():
    # d=3 n=12 K=4 has the sparse levels -4, 0, 4, and c_3 * 3 = 12 > n - 1,
    # the width of a mix entered one layer inside the cube: most targets
    # used to raise "width too small for sparse mixing"
    d, n, K = 3, 12, 4
    for m in (1, 2):
        for seed in range(3):
            rng = random.Random(seed)
            lam = random_balanced_targets(rng, d, m)
            beta = random_balanced_targets(rng, d, m)
            f_res = balance_faces(lam, beta, K, m, d, n)
            got = measure_face_fluxes(f_res, m)
            for key in beta:
                assert got[key] == beta[key] - lam[key], (m, seed, key)
            ok, bad = node_law_holds_cube(f_res, d, n)
            assert ok, (m, seed, bad)


def test_balance_rejects_a_cube_too_narrow_for_a_sparse_mix():
    d, m, K = 3, 1, 2
    with pytest.raises(ValueError, match="n - 1 = 3 is below c_3 = 4"):
        balance_faces(zero_fluxes(d, m), zero_fluxes(d, m), K, m, d, 4)


def test_balance_rejects_total_mismatch():
    d, n, m, K = 2, 8, 1, 2
    lam = zero_fluxes(d, m)
    beta = zero_fluxes(d, m)
    beta[(0, -1, (0,))] = Fraction(1, 4)  # enters but never leaves
    with pytest.raises(ValueError):
        balance_faces(lam, beta, K, m, d, n)


def test_balance_rejects_odd_n():
    # at odd n the construction misses the left face's target: reject it
    d, m, K = 2, 1, 2
    lam = zero_fluxes(d, m)
    beta = zero_fluxes(d, m)
    beta[(0, -1, (0,))] = Fraction(1, 4)
    beta[(1, 1, (0,))] = Fraction(1, 4)
    for n in (7, 11):
        with pytest.raises(ValueError, match="even n"):
            balance_faces(lam, beta, K, m, d, n)


# ---------------------------------------------------------------------------
# gluing


def lattice_box_to_rational(b, n):
    return tuple((Fraction(lo, n), Fraction(hi, n)) for lo, hi in b)


def random_well_behaved(rng, box_lat, n, d, s, v, damping, M):
    f = constant_stream(
        lattice_box_to_rational(box_lat, n), tuple(s * c * damping for c in v), n
    )
    # interior loop perturbations keep the node law and never touch the
    # face-flux edge sets
    room = Fraction(M) - max(abs(s * c * damping) for c in v)
    amp = min(room, Fraction(1, 8))
    for _ in range(6):
        x = tuple(
            rng.randint(box_lat[j][0] + 2, box_lat[j][1] - 4) for j in range(d)
        )
        axes = rng.sample(range(d), 2)
        w = Fraction(rng.randint(-4, 4), 64)
        if w == 0 or amp <= 0:
            continue
        w = min(max(w, -amp), amp)
        i, j = axes
        ei = [0] * d
        ei[i] = 1
        ej = [0] * d
        ej[j] = 1
        f.add(EdgeId(x, i), w)
        f.add(EdgeId(tuple(a + b for a, b in zip(x, ei)), j), w)
        f.add(EdgeId(tuple(a + b for a, b in zip(x, ej)), i), -w)
        f.add(EdgeId(x, j), -w)
    return f


def test_glue_constant_streams_corridor_runs_straight():
    d, n, m = 2, 8, 2
    side = 8
    gap = 2 * (d - 1) * (side // m)
    box_a = ((0, side), (0, side))
    box_b = ((side + gap, 2 * side + gap), (0, side))
    s, v, damping, M = Fraction(1, 2), (Fraction(1), Fraction(0)), Fraction(9, 10), Fraction(1)
    fa = constant_stream(lattice_box_to_rational(box_a, n), (s * damping, Fraction(0)), n)
    fb = constant_stream(lattice_box_to_rational(box_b, n), (s * damping, Fraction(0)), n)
    g = glue_adjacent(fa, box_a, fb, box_b, m, M)
    # corridor edges all horizontal with the constant value
    for e, val in g.values.items():
        if side <= e.x[0] < side + gap:
            assert e.axis == 0 and val == s * damping
    # streams unchanged on the cubes
    for e, val in fa.values.items():
        assert g.get(e) == val
    for e, val in fb.values.items():
        assert g.get(e) == val


def test_glue_random_well_behaved_pairs():
    rng = random.Random(31)
    d, n, m = 2, 8, 2
    side = 8
    gap = 2 * (d - 1) * (side // m)
    box_a = ((0, side), (0, side))
    box_b = ((side + gap, 2 * side + gap), (0, side))
    M = Fraction(1)
    for trial in range(10):
        s = Fraction(rng.randint(1, 4), 8)
        v = (Fraction(1), Fraction(0))
        damping = Fraction(rng.randint(6, 9), 10)
        fa = random_well_behaved(rng, box_a, n, d, s, v, damping, M)
        fb = random_well_behaved(rng, box_b, n, d, s, v, damping, M)
        g = glue_adjacent(fa, box_a, fb, box_b, m, M)
        # coincides on the cubes
        for e, val in fa.values.items():
            assert g.get(e) == val
        for e, val in fb.values.items():
            assert g.get(e) == val
        # corridor magnitudes bounded by M, node law inside the corridor
        for e, val in g.values.items():
            if side <= e.x[0] < side + gap:
                assert abs(val) <= M
        union = Region(
            boxes=(
                (
                    (Fraction(0), Fraction(2 * side + gap, n)),
                    (Fraction(0), Fraction(side, n)),
                ),
            )
        )
        caps = {e: M for e in g.values}
        rep = admissibility_region_report(g, caps, union)
        assert rep.capacity
        assert rep.node_law, rep.bad_vertices[:5]


def test_glue_reports_mismatched_cell():
    d, n, m = 2, 8, 2
    side, gap = 8, 8
    box_a = ((0, side), (0, side))
    box_b = ((side + gap, 2 * side + gap), (0, side))
    fa = constant_stream(lattice_box_to_rational(box_a, n), (Fraction(1, 2), Fraction(0)), n)
    fb = constant_stream(lattice_box_to_rational(box_b, n), (Fraction(1, 4), Fraction(0)), n)
    with pytest.raises(ValueError, match="flux mismatch"):
        glue_adjacent(fa, box_a, fb, box_b, m, Fraction(1))


def test_recompose_rejects_steps_that_are_not_lattice_edges():
    for jump in (((0, 0), (2, 0)), ((0, 0), (1, 1)), ((0, 0), (0, 0))):
        with pytest.raises(ValueError, match="path steps must be lattice edges"):
            recompose([(((0, 0), (1, 0)), 1), (jump, 1)], 2, 1)
    f = recompose([(((0, 0), (1, 0), (1, 1)), 2), (((1, 1), (1, 0)), 1)], 2, 1)
    assert f.values == {EdgeId((0, 0), 0): 2, EdgeId((1, 0), 1): 1}


# ---------------------------------------------------------------------------
# float inputs


def dyadic(rng, lo, hi):
    """A k/64 in [lo, hi]: a float holds it exactly."""
    return Fraction(rng.randint(lo * 64, hi * 64), 64)


def as_floats(family):
    return {k: float(v) for k, v in family.items()}


def test_float_inputs_to_a_mixer_raise_type_error():
    # dyadic inputs whose float sums are exact, so that each call gets as far
    # as the mean, where Fraction(total, r) takes no float
    rng = random.Random(64)
    calls = [(mix2d, [float(dyadic(rng, -3, 3)) for _ in range(3)], 3)]
    for d, r in ((2, 3), (3, 3)):
        keys = grid_keys(r, d - 1)
        f_in = {y: dyadic(rng, -2, 2) for y in keys}
        f_out = dict(zip(keys, rng.sample(list(f_in.values()), len(keys))))
        calls.append((mix, as_floats(f_in), as_floats(f_out), 2 * (d - 1) * r, 8))
        calls.append((mix_precise, as_floats({y: dyadic(rng, 0, 1) for y in keys}), 2, 1))
    keys = sparse_keys(3, 2, 1)
    f_in = {y: dyadic(rng, -1, 1) for y in keys}
    calls.append((mix_sparse, as_floats(f_in), as_floats(f_in), 2, 4))
    for d, n, m, K in ((2, 8, 2, 2), (3, 8, 1, 4)):
        lam, beta = random_balanced_targets(rng, d, m), random_balanced_targets(rng, d, m)
        calls.append((balance_faces, as_floats(lam), as_floats(beta), K, m, d, n))
    d, n, m, side = 2, 8, 2, 8
    box_a = ((0, side), (0, side))
    box_b = ((2 * side, 3 * side), (0, side))
    v = (Fraction(1), Fraction(0))
    fa = random_well_behaved(rng, box_a, n, d, Fraction(3, 8), v, Fraction(3, 4), Fraction(1))
    fb = random_well_behaved(rng, box_b, n, d, Fraction(3, 8), v, Fraction(3, 4), Fraction(1))
    calls.append((glue_adjacent, fa.scaled(1.0), box_a, fb.scaled(1.0), box_b, m, 1))
    for fn, *args in calls:
        with pytest.raises(TypeError, match="Rational"):
            fn(*args)


def test_mix_rejects_float_sums_that_agree_only_after_rounding():
    # 0.1 + 0.2 rounds to 0.30000000000000004, and no float sum equals the
    # exact one: no stream with these boundary values obeys the node law
    f_in = {(1,): 0.1, (2,): 0.2}
    f_out = {(1,): 0.3, (2,): 0.0}
    with pytest.raises(ValueError, match="input and output sums do not match"):
        mix(f_in, f_out, 4, 1.0)


# ---------------------------------------------------------------------------
# golden outputs


def _exactly(arg):
    """(whether arg held a float, arg with every float read as the Fraction it
    is); arg is a number, a list or dict of numbers, or a Stream."""
    if isinstance(arg, Stream):
        floats, values = _exactly(arg.values)
        return floats, Stream(arg.d, arg.n, values)
    if isinstance(arg, dict):
        read = {k: _exactly(v) for k, v in arg.items()}
        return any(f for f, _ in read.values()), {k: v for k, (_, v) in read.items()}
    if isinstance(arg, list):
        read = [_exactly(v) for v in arg]
        return any(f for f, _ in read), [v for _, v in read]
    return isinstance(arg, float), Fraction(arg) if isinstance(arg, float) else arg


def _golden_texts():
    """One text per result of a fixed seeded list of reconnect calls on int,
    Fraction and float-valued inputs at d = 2 and 3: ``dump_stream`` for a
    stream, ``repr`` for anything else, the message for a ValueError.

    The builders take ints and Fractions: a float input is read as the
    Fraction it is, and each value of a stream built from one is rounded once
    to the nearest float."""
    from latflow.geometry import unit_box_domain
    from latflow.stream import dump_stream

    rng = random.Random(8)
    builders = (mix2d, mix, mix_precise, mix_sparse, balance_faces, glue_adjacent, decompose)

    def text(fn, *args):
        floats = False
        if fn in builders:
            floats, args = _exactly(list(args))
        try:
            res = fn(*args)
        except ValueError as exc:
            return f"ValueError: {exc}"
        if floats and isinstance(res, Stream):
            res = Stream(res.d, res.n, {e: float(v) for e, v in res.values.items()})
        if isinstance(res, Stream):
            return dump_stream(res)
        if isinstance(res, dict):
            return repr(sorted(res.items()))
        return repr(res)

    def value(kind, lo, hi):
        if kind == "int":
            return rng.randint(lo, hi)
        if kind == "frac":
            return rand_frac(rng, lo, hi)
        return rng.uniform(lo, hi)

    kinds = ("int", "frac", "float")
    out = []
    for kind in kinds:
        for r in range(1, 6):
            vals = [value(kind, -3, 3) for _ in range(r)]
            out.append(text(mix2d, vals, 3))
            out.append(text(mix2d, vals, 2))
    for kind in kinds:
        for d, r in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
            keys = list(product(range(1, r + 1), repeat=d - 1))
            L = (d - 1) * r
            for _ in range(2):
                f_in = {y: value(kind, -2, 2) for y in keys}
                f_out = {y: value(kind, -2, 2) for y in keys}
                f_out[keys[-1]] += sum(f_in.values()) - sum(f_out.values())
                mean = sum(f_in.values()) / len(keys)
                uniform = {y: mean for y in keys}
                for m in (L, L + 2):
                    out.append(text(mix, f_in, uniform, m, 4))
                for m in (2 * L, 2 * L + 3, 2 * L - 1):
                    out.append(text(mix, f_in, f_out, m, 8))
    for kind in kinds:
        for d, r in ((2, 2), (2, 3), (2, 5), (3, 2), (3, 3)):
            keys = list(product(range(1, r + 1), repeat=d - 1))
            for lo, hi in ((0, 1), (-1, 1), (-1, 0)):
                f_in = {y: value(kind, lo, hi) for y in keys}
                for eps in (1, Fraction(1, 2)):
                    out.append(text(mix_precise, f_in, 2, eps))
    for kind in kinds:
        for d, K, r0, n in ((2, 2, 2, None), (2, 3, 3, 9), (3, 4, 2, None)):
            keys = [tuple(K * c for c in y) for y in product(range(1, r0 + 1), repeat=d - 1)]
            f_in = {y: value(kind, -1, 1) for y in keys}
            f_out = {y: value(kind, -1, 1) for y in keys}
            f_out[keys[0]] += sum(f_in.values()) - sum(f_out.values())
            out.append(text(mix_sparse, f_in, f_out, K, 4, n))
    for kind in kinds:
        for d, n, m, K in ((2, 8, 1, 2), (2, 8, 2, 2), (2, 12, 2, 3), (3, 8, 1, 4)):
            for _ in range(3):
                lam = {k: value(kind, -1, 1) / 8 for k in _face_cells(d, m)}
                beta = {k: value(kind, -1, 1) / 4 for k in _face_cells(d, m)}
                for fl in (lam, beta):
                    key0 = next(k for k in fl if k[1] == 1)
                    fl[key0] += sum(v for k, v in fl.items() if k[1] == -1) - sum(
                        v for k, v in fl.items() if k[1] == 1
                    )
                out.append(text(balance_faces, lam, beta, K, m, d, n))
    d, n, m, side = 2, 8, 2, 8
    gap = 2 * (d - 1) * (side // m)
    box_a = ((0, side), (0, side))
    box_b = ((side + gap, 2 * side + gap), (0, side))
    for kind in ("frac", "float"):
        for _ in range(3):
            s = Fraction(rng.randint(1, 4), 8)
            damping = Fraction(rng.randint(6, 9), 10)
            v = (Fraction(1), Fraction(0))
            fa = random_well_behaved(rng, box_a, n, d, s, v, damping, Fraction(1))
            fb = random_well_behaved(rng, box_b, n, d, s, v, damping, Fraction(1))
            if kind == "float":
                fa, fb = fa.scaled(1.0), fb.scaled(1.0)
            out.append(text(glue_adjacent, fa, box_a, fb, box_b, m, 1))
            for f, b in ((fa, box_a), (fb, box_b)):
                out.append(text(oracles.box_face_fluxes, f, m, b))
                out.append(text(oracles.box_face_fluxes, f, m + 2, b))
    dist = CapacityDistribution.uniform(0, 1)
    for d, n in ((2, 3), (2, 4), (3, 2)):
        L = discretize_domain(unit_box_domain(d), n)
        for exact in (True, False):
            t = sample_capacities(L, dist, seed=n)
            if not exact:  # each capacity rounded once to a float, and so the flow
                t = {e: Fraction(float(c)) for e, c in t.items()}
            f = max_flow(L, t).stream
            if not exact:
                f = Stream(f.d, f.n, {e: float(v) for e, v in f.values.items()})
            out.append(text(decompose, f, L))
            box = tuple((0, n) for _ in range(d))
            for m in (1, 2, 3):
                out.append(text(oracles.box_face_fluxes, f, m, box))
                out.append(text(measure_face_fluxes, f, m))
    return out


def test_golden_outputs_of_the_reconnect_builders():
    import hashlib

    texts = _golden_texts()
    assert len(texts) == 387
    # recorded with dump_stream writing each value as str() does: an int
    # stream value as "2", a Fraction as "-2/3", a float as its shortest repr
    digest = hashlib.sha256("\x00".join(texts).encode()).hexdigest()
    assert digest == "95c12fc01c6b93888e18f99eb58527236c1be481ec19298fd65faaeb316b472e"
