"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest
import yaml

from latflow.capacities import CapacityDistribution, derive_seed, sample_capacities
from latflow.geometry import EdgeId, Region, discretize_domain, unit_cube, unit_square_domain
from latflow.maxflow import max_flow
from latflow.measure import DistanceOptions, VectorMeasure, distance
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
)
from latflow.stream import (
    Stream,
    admissibility_region_report,
    admissibility_report,
    constant_stream,
    flow_value,
    vector_measure,
)

import oracles
from test_reconnect import (
    check_mix_postconditions,
    grid_keys,
    lattice_box_to_rational,
    node_law_holds,
    rand_frac,
    random_balanced_targets,
    random_matched_family,
    random_well_behaved,
    sparse_keys,
    zero_fluxes,
)


class Criterion:
    def __init__(self, num, desc, budget):
        self.num = num
        self.desc = desc
        self.budget = budget
        self.t0 = time.time()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        print(f"\n{status} criterion {self.num}: {self.desc} ({elapsed:.1f}s / {self.budget:.0f}s)")
        if exc_type is None and elapsed >= self.budget:
            raise AssertionError(f"criterion {self.num} exceeded its {self.budget}s budget")
        return False


def test_criterion_1_maxflow_mincut_exactness():
    with Criterion(1, "max-flow value = brute-force min-cut, flow = cut capacity, 200 instances", 60):
        rng = random.Random(10)
        spec = unit_square_domain()
        domains = {n: discretize_domain(spec, n) for n in (2, 3)}
        for trial in range(200):
            n = 2 if trial % 2 else 3
            L = domains[n]
            dist = (
                CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
                if trial % 4 < 2
                else CapacityDistribution.uniform(0, 1)
            )
            t = sample_capacities(L, dist, seed=rng.getrandbits(32))
            res = max_flow(L, t)
            oracle, _ = oracles.min_cut_by_partitions(
                L.omega, L.active_edges, t, L.gamma1, L.gamma2
            )
            assert res.value == oracle
            assert res.cut_capacity(t) == res.value
            assert flow_value(res.stream, L) == res.value


def test_criterion_2_decomposition_fidelity():
    with Criterion(2, "decomposition reconstructs 50 max-flow streams bit-exactly", 30):
        rng = random.Random(20)
        spec = unit_square_domain()
        domains = {n: discretize_domain(spec, n) for n in (2, 3)}
        for trial in range(50):
            n = 2 if trial % 2 else 3
            L = domains[n]
            t = sample_capacities(
                L, CapacityDistribution.bernoulli(0, 1, Fraction(1, 2)),
                seed=rng.getrandbits(32),
            )
            res = max_flow(L, t)
            paths = decompose(res.stream, L)
            assert recompose(paths, L.d, n).values == res.stream.values
            terminals = L.gamma1 | L.gamma2
            for verts, w in paths:
                assert w > 0
                assert verts[0] in terminals and verts[-1] in terminals
                assert all(v not in terminals for v in verts[1:-1])
                for u, z in zip(verts, verts[1:]):
                    diff = [b - a for a, b in zip(u, z)]
                    ax = next(j for j, c in enumerate(diff) if c)
                    e = EdgeId(tuple(u) if diff[ax] > 0 else tuple(z), ax)
                    assert res.stream.get(e) * diff[ax] > 0


def test_criterion_3_mixing_suites():
    with Criterion(3, "500 trials each: mix2d / mix / mix_sparse / mix_precise postconditions", 120):
        rng = random.Random(30)
        M = Fraction(2)

        # mix2d
        for _ in range(500):
            r = rng.randint(1, 8)
            f_in = [rand_frac(rng, -2, 2) for _ in range(r)]
            g = mix2d(f_in, M)
            mean = Fraction(sum(f_in), r)
            fin = {(i,): f_in[i - 1] for i in range(1, r + 1)}
            fout = {(i,): mean for i in range(1, r + 1)}
            check_mix_postconditions(g, fin, fout, r, M, 2)

        # mix (general in/out families)
        for trial in range(500):
            d = 2 if trial % 3 else 3
            r = rng.randint(1, 8 if d == 2 else 4)
            f_in, f_out = random_matched_family(rng, r, d, M)
            m = 2 * (d - 1) * r + rng.choice([0, 2])
            g = mix(f_in, f_out, m, M)
            check_mix_postconditions(g, f_in, f_out, m, M, d)

        # mix_sparse with the paper's support bound on every trial
        from latflow.geometry import box, sparse_edge_count_bound

        for trial in range(500):
            d = 2 if trial % 3 else 3
            K = sparse_c(d) + rng.choice([0, 1, 2])
            r0 = rng.randint(1, 2 if d == 3 else 3)
            n = K * r0 + rng.choice([0, 1])
            keys = sparse_keys(r0, K, d - 1)
            f_in = {k: rand_frac(rng, -1, 1) for k in keys}
            f_out = {k: rand_frac(rng, -1, 1) for k in keys}
            shift = Fraction(sum(f_in.values()) - sum(f_out.values()), len(keys))
            f_out = {k: v + shift for k, v in f_out.items()}
            assert all(abs(v) <= M for v in f_out.values())
            g = mix_sparse(f_in, f_out, K, M, n=n)
            assert len(g.values) <= sparse_edge_count_bound(d, n, K)
            for y in keys:
                assert g.get(EdgeId((0,) + y, 0)) == f_in[y]
                assert g.get(EdgeId((n - 1,) + y, 0)) == f_out[y]
            exempt = {(0,) + y for y in keys} | {(n,) + y for y in keys}
            ok, bad = node_law_holds(g, exempt)
            assert ok, bad

        # mix_precise
        eps = Fraction(1, 2)
        done = 0
        while done < 500:
            d = 2 if done % 3 else 3
            r = rng.randint(1, 8 if d == 2 else 3)
            keys = grid_keys(r, d - 1)
            f_in = {k: Fraction(rng.randint(-8, 8), 16) for k in keys}
            try:
                g = mix_precise(f_in, M=1, eps=eps)
            except ValueError:
                f_in = {k: v - min(f_in.values()) for k, v in f_in.items()}
                f_in = {k: min(v, eps) for k, v in f_in.items()}
                g = mix_precise(f_in, M=1, eps=eps)
            L = (d - 1) * r
            mean = Fraction(sum(f_in.values()), r ** (d - 1))
            for y in keys:
                assert g.get(EdgeId((0,) + y, 0)) == f_in[y]
                assert g.get(EdgeId((L - 1,) + y, 0)) == mean
            for e, v in g.values.items():
                assert 0 <= e.x[0] < L and all(1 <= c <= r for c in e.x[1:])
                if e.axis == 0:
                    assert Fraction(-1) <= v <= eps
                else:
                    assert abs(v) <= eps
            from test_reconnect import mix_exempt

            ok, bad = node_law_holds(g, mix_exempt(r, L, d))
            assert ok, bad
            done += 1


def _random_density_pair(rng):
    from test_measure import random_density_measure

    return random_density_measure(rng, 2), random_density_measure(rng, 2)


def test_criterion_4_distance_lemmas():
    with Criterion(4, "50 measure pairs: L1 control, partition subadditivity, gap <= 5%", 120):
        from latflow.measure import restrict
        from test_measure import l1_between

        rng = random.Random(40)
        big = 4
        for trial in range(50):
            mu, nu = _random_density_pair(rng)
            br = distance(mu, nu)
            assert br.lower <= br.upper
            assert br.lower <= 2 * l1_between(mu, nu) + 1e-9
            if br.upper > 0:
                assert br.gap <= 0.05 * br.upper
            split = Fraction(rng.randint(-2, 2), 4)
            parts = [
                ((Fraction(-big), split), (Fraction(-big), Fraction(big))),
                ((split, Fraction(big)), (Fraction(-big), Fraction(big))),
            ]
            pieces = sum(distance(restrict(mu, p), restrict(nu, p)).upper for p in parts)
            assert br.lower <= pieces + 1e-9


def test_criterion_5_discretization_convergence():
    with Criterion(5, "d-upper of the discretized constant field decreasing over n in {4,8,16}, < 0.2 at 16", 60):
        target = VectorMeasure.from_density(unit_cube(2), (Fraction(1), Fraction(0)))
        uppers = []
        for n in (4, 8, 16):
            f = constant_stream(unit_cube(2), (Fraction(1), Fraction(0)), n)
            br = distance(vector_measure(f), target)
            uppers.append(br.upper)
        assert uppers[0] > uppers[1] > uppers[2]
        assert uppers[2] < 0.2


def test_criterion_6_flow_constant_anchor():
    with Criterion(6, "constant(1) straight cylinder: tau ratio == 1.0 exactly for n in {4,8,12}", 60):
        from latflow.estimate import estimate_flow_constant

        dist = CapacityDistribution.constant(1)
        points = estimate_flow_constant(dist, 1, [4, 8, 12], lambda n: n, trials=3, seed=60, d=2)
        for p in points:
            assert all(r == 1 for r in p.ratios)
            assert p.mean == 1.0 and p.ci_lo == 1.0 and p.ci_hi == 1.0


def test_criterion_7_rate_function_anchors():
    with Criterion(7, "I_hat(0) = 0 exactly; bernoulli anchor <= 2 log 2 + 3 CI half-widths at 2000 trials", 600):
        from latflow.estimate import estimate_rate

        dist = CapacityDistribution.bernoulli(0, 1, Fraction(1, 2))
        [r0] = estimate_rate(0, (1, 0), [0.3], 3, 2000, dist, seed=70)
        assert r0.p_hat == 1.0 and r0.i_hat == 0.0
        [r] = estimate_rate(Fraction(1, 2), (1, 0), [0.3], 3, 2000, dist, seed=71)
        bound = 2 * math.log(2)
        value = r.i_hat if r.i_hat != float("inf") else r.i_hat_bound
        assert value <= bound + 3 * r.ci_half_width


def test_criterion_8_monte_carlo_determinism(tmp_path):
    with Criterion(8, "rate / flow-constant / tail: byte-identical across reruns and 1-vs-8 threads", 300):
        from latflow.cli import main

        configs = {
            "rate": {
                "seed": 80,
                "rate": {
                    "d": 2, "n": 2, "s": "1/2", "v": ["1", "0"], "eps": ["1/2"],
                    "trials": 20,
                    "dist": {"kind": "bernoulli", "a": "0", "b": "1", "p": "1/2"},
                },
            },
            "flow-constant": {
                "seed": 81,
                "flow_constant": {
                    "d": 2, "n_list": [2, 3], "h": "n", "trials": 6,
                    "dist": {"kind": "uniform", "a": "0", "b": "1"},
                },
            },
            "tail": {
                "seed": 82,
                "tail": {
                    "domain": "unit_square", "n": 2, "lam": ["1/2"], "trials": 60,
                    "dist": {"kind": "bernoulli", "a": "0", "b": "1", "p": "1/2"},
                },
            },
        }
        outputs = {"rate": "rate.csv", "flow-constant": "nu.csv", "tail": "tail.csv"}
        for sub, cfg in configs.items():
            path = tmp_path / f"{sub}.yaml"
            path.write_text(yaml.safe_dump(cfg))
            blobs = []
            for run, threads in (("a", "1"), ("b", "1"), ("c", "8")):
                out = tmp_path / f"{sub}-{run}"
                code = main([sub, "--config", str(path), "--out-dir", str(out),
                             "--threads", threads])
                assert code == 0
                blobs.append((out / outputs[sub]).read_bytes())
            assert blobs[0] == blobs[1] == blobs[2], f"{sub} outputs differ"


def test_criterion_9_glue_and_balance():
    with Criterion(9, "50 glue trials pass interior admissibility; balance hits targets exactly", 120):
        rng = random.Random(90)
        d, n, m = 2, 8, 2
        side = 8
        gap = 2 * (d - 1) * (side // m)
        box_a = ((0, side), (0, side))
        box_b = ((side + gap, 2 * side + gap), (0, side))
        M = Fraction(1)
        union = Region(
            boxes=(((Fraction(0), Fraction(2 * side + gap, n)), (Fraction(0), Fraction(side, n))),)
        )
        for trial in range(50):
            s = Fraction(rng.randint(1, 4), 8)
            v = (Fraction(1), Fraction(0))
            damping = Fraction(rng.randint(6, 9), 10)
            fa = random_well_behaved(rng, box_a, n, d, s, v, damping, M)
            fb = random_well_behaved(rng, box_b, n, d, s, v, damping, M)
            g = glue_adjacent(fa, box_a, fb, box_b, m, M)
            for e, val in fa.values.items():
                assert g.get(e) == val
            for e, val in fb.values.items():
                assert g.get(e) == val
            caps = {e: M for e in g.values}
            rep = admissibility_region_report(g, caps, union)
            assert rep.capacity and rep.node_law

        # balance_faces: exact target fluxes in rational mode
        K = 2
        for trial in range(50):
            lam = {key: rand_frac(rng, -0.125, 0.125) for key in _face_cells(d, m)}
            minus_total = sum(vv for kk, vv in lam.items() if kk[1] == -1)
            plus_total = sum(vv for kk, vv in lam.items() if kk[1] == 1)
            key0 = next(kk for kk in lam if kk[1] == 1)
            lam[key0] += minus_total - plus_total
            beta = random_balanced_targets(rng, d, m)
            f_res = balance_faces(lam, beta, K, m, d, n)
            got = measure_face_fluxes(f_res, m)
            for key in beta:
                assert got[key] == beta[key] - lam[key]
