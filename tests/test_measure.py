import math
import random
from fractions import Fraction
from itertools import product

import pytest

from latflow.geometry import EdgeId, box_volume, unit_cube
from latflow.measure import (
    DistanceBracket,
    DistanceOptions,
    VectorMeasure,
    distance,
    from_json,
    restrict,
    to_json,
)
from latflow.stream import Stream, constant_stream, vector_measure


def disjoint_random_boxes(rng, d, count, grid=8, min_gap=1):
    """Random half-open boxes on the 1/grid lattice with >= min_gap/grid
    separation on some axis between any two."""
    boxes = []
    attempts = 0
    while len(boxes) < count and attempts < 400:
        attempts += 1
        lo = [rng.randint(-grid, grid - 2) for _ in range(d)]
        hi = [l + rng.randint(1, 3) for l in lo]
        b = tuple((Fraction(l, grid), Fraction(h, grid)) for l, h in zip(lo, hi))
        ok = True
        for other in boxes:
            gap = max(
                max(float(blo - ahi), float(alo - bhi))
                for (alo, ahi), (blo, bhi) in zip(b, other)
            )
            if gap < min_gap / grid:
                ok = False
                break
        if ok:
            boxes.append(b)
    return boxes


def random_density_measure(rng, d, count=2):
    boxes = disjoint_random_boxes(rng, d, count)
    dens = []
    for b in boxes:
        v = tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(d))
        dens.append((b, v))
    return VectorMeasure(d=d, densities=tuple(dens))


def l1_between(mu: VectorMeasure, nu: VectorMeasure):
    """Exact-ish L1 distance between two piecewise-constant densities."""
    d = mu.d
    cuts = [set() for _ in range(d)]
    for m in (mu, nu):
        for b, _ in m.densities:
            for j, (lo, hi) in enumerate(b):
                cuts[j].add(lo)
                cuts[j].add(hi)
    axes = [sorted(c) for c in cuts]
    total = 0.0
    for idx in product(*(range(len(a) - 1) for a in axes)):
        lows = [axes[j][idx[j]] for j in range(d)]
        highs = [axes[j][idx[j] + 1] for j in range(d)]
        vol = 1.0
        for lo, hi in zip(lows, highs):
            vol *= float(hi - lo)
        if vol == 0:
            continue
        mid = [(lo + hi) / 2 for lo, hi in zip(lows, highs)]
        diff = [0.0] * d
        for m, sign in ((mu, 1), (nu, -1)):
            for b, v in m.densities:
                if all(lo <= c < hi for c, (lo, hi) in zip(mid, b)):
                    for j in range(d):
                        diff[j] += sign * float(v[j])
        total += vol * math.sqrt(sum(c * c for c in diff))
    return total


# ---------------------------------------------------------------------------
# box_mass


def box_mass(nu, b):
    """Exact mass vector of nu in the half-open box b, read through restrict:
    atom weights plus each density times its clipped volume."""
    r = restrict(nu, b)
    total = [Fraction(0)] * nu.d
    for _, w in r.atoms:
        total = [t + wi for t, wi in zip(total, w)]
    for cell, v in r.densities:
        total = [t + vi * box_volume(cell) for t, vi in zip(total, v)]
    return tuple(total)


def test_box_mass_half_open_rule():
    nu = VectorMeasure(
        d=2,
        atoms=(
            ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))),  # lower face
            ((Fraction(1), Fraction(0)), (Fraction(1), Fraction(0))),  # upper face
        ),
    )
    b = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(1)))
    assert box_mass(nu, b) == (1, 0)


def test_box_mass_density_full_box():
    v = (Fraction(2), Fraction(-1))
    nu = VectorMeasure.from_density(unit_cube(2), v)
    assert box_mass(nu, unit_cube(2)) == v


def test_box_mass_single_edge_measure():
    f = Stream(2, 2)
    f.values[EdgeId((0, 0), 0)] = Fraction(1)
    nu = vector_measure(f)
    b = ((Fraction(0), Fraction(1, 2)), (Fraction(-1, 4), Fraction(1, 4)))
    assert box_mass(nu, b) == (Fraction(1, 4), 0)


def test_restrict_splits_mass():
    v = (Fraction(1), Fraction(0))
    nu = VectorMeasure.from_density(unit_cube(2), v)
    left = ((Fraction(-1, 2), Fraction(0)), (Fraction(-1, 2), Fraction(1, 2)))
    r = restrict(nu, left)
    assert r.atoms == () and r.densities == ((left, v),)


# ---------------------------------------------------------------------------
# distance bracket


def test_identical_measures_bracket_is_tail_only():
    rng = random.Random(1)
    nu = random_density_measure(rng, 2)
    br = distance(nu, nu)
    assert br.lower == 0
    assert br.upper == pytest.approx(2 * nu.total_variation() / 2**12)


def test_symmetry_on_the_grid():
    rng = random.Random(2)
    mu = random_density_measure(rng, 2)
    nu = random_density_measure(rng, 2)
    a = distance(mu, nu)
    b = distance(nu, mu)
    assert a.lower == pytest.approx(b.lower, abs=1e-12)
    assert a.upper == pytest.approx(b.upper, abs=1e-12)


def test_triangle_inequality_for_grid_lowers():
    rng = random.Random(3)
    for _ in range(5):
        mu = random_density_measure(rng, 2)
        nu = random_density_measure(rng, 2)
        rho = random_density_measure(rng, 2)
        d_mr = distance(mu, rho).lower
        d_mn = distance(mu, nu).lower
        d_nr = distance(nu, rho).lower
        assert d_mr <= d_mn + d_nr + 1e-9


def test_l1_control_lemma():
    # d(f L, g L) <= 2 ||f - g||_L1, checked on the sound side of the bracket
    rng = random.Random(4)
    for _ in range(20):
        mu = random_density_measure(rng, 2)
        nu = random_density_measure(rng, 2)
        br = distance(mu, nu)
        assert br.lower <= 2 * l1_between(mu, nu) + 1e-9


def test_partition_subadditivity_lemma():
    rng = random.Random(5)
    half = Fraction(1, 2)
    big = 4
    for _ in range(10):
        mu = random_density_measure(rng, 2)
        nu = random_density_measure(rng, 2)
        split = Fraction(rng.randint(-2, 2), 4)
        parts = [
            ((Fraction(-big), split), (Fraction(-big), Fraction(big))),
            ((split, Fraction(big)), (Fraction(-big), Fraction(big))),
        ]
        total = distance(mu, nu).lower
        pieces = sum(distance(restrict(mu, p), restrict(nu, p)).upper for p in parts)
        assert total <= pieces + 1e-9


def test_bracket_gap_within_five_percent():
    rng = random.Random(6)
    for _ in range(10):
        mu = random_density_measure(rng, 2)
        nu = random_density_measure(rng, 2)
        br = distance(mu, nu)
        if br.upper > 0:
            assert br.gap <= 0.05 * br.upper


def test_restriction_property_with_proof_constants():
    # d(mu 1_B, nu 1_B) <= beta1 d(mu, nu) / rho + beta2 rho delta^{d-1}
    from latflow.capacities import CapacityDistribution, sample_capacities
    from latflow.geometry import discretize_domain, unit_square_domain
    from latflow.maxflow import max_flow

    d = 2
    M = 1.0
    beta1 = 8 * d  # 4 d lambda with lambda <= 2
    beta2 = M * (16 * d**2 + 16 * d + (2 * d + 1) * 2**d)
    L = discretize_domain(unit_square_domain(), 4)
    rng = random.Random(7)
    for _ in range(5):
        t = sample_capacities(
            L, CapacityDistribution.uniform(0, 1), seed=rng.getrandbits(32)
        )
        f = max_flow(L, t).stream
        mu = vector_measure(f)
        nu = VectorMeasure.from_density(
            ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
            (Fraction(1, 2), Fraction(0)),
        )
        delta = Fraction(1, 2)
        z = (Fraction(1, 2), Fraction(1, 2))
        B = tuple((zc - delta / 2, zc + delta / 2) for zc in z)
        rho = Fraction(1, 8)  # <= delta * eps_cube = 1/4 in d=2
        lhs = distance(restrict(mu, B), restrict(nu, B)).lower
        rhs = beta1 * distance(mu, nu).upper / float(rho) + beta2 * float(rho) * float(
            delta ** (d - 1)
        )
        assert lhs <= rhs


def test_paving_boundary_count_lemma():
    # cells of a fine paving meeting the boundary of delta*cube + z
    rng = random.Random(8)
    d = 2
    eps_cube = (2 ** (1 / (d - 1)) - 1) / 2
    for _ in range(20):
        delta = rng.choice([0.5, 0.75, 1.0])
        z = (rng.uniform(-1, 1), rng.uniform(-1, 1))
        a = rng.choice([delta / 8, delta / 12, delta / 16])
        if a * math.sqrt(d) > eps_cube * delta:
            continue
        # paving cells [a i, a(i+1)) x [a j, a(j+1))
        lo = [z[j] - delta / 2 for j in range(d)]
        hi = [z[j] + delta / 2 for j in range(d)]
        count = 0
        i_range = range(int(lo[0] / a) - 2, int(hi[0] / a) + 2)
        j_range = range(int(lo[1] / a) - 2, int(hi[1] / a) + 2)
        for i in i_range:
            for j in j_range:
                cell = ((a * i, a * (i + 1)), (a * j, a * (j + 1)))
                # meets the boundary iff it meets the closed box but not the interior-only
                meets_box = all(cell[k][1] > lo[k] and cell[k][0] < hi[k] for k in range(d))
                inside = all(cell[k][0] >= lo[k] and cell[k][1] <= hi[k] for k in range(d))
                strictly_inside = all(
                    cell[k][0] > lo[k] and cell[k][1] < hi[k] for k in range(d)
                )
                if meets_box and not strictly_inside:
                    count += 1
        perimeter = 2 * d * delta ** (d - 1)
        bound = 4 * perimeter * (a * math.sqrt(d)) / a**d
        assert count <= bound


def test_weak_convergence_on_bump_integrals():
    # d -> 0 with bounded TV forces integral convergence for bump tests
    target_v = (Fraction(1), Fraction(0))
    target = VectorMeasure.from_density(unit_cube(2), target_v)

    def bump(p):
        x, y = float(p[0]), float(p[1])
        r2 = 4 * (x * x + y * y)
        return math.exp(-1 / (1 - r2)) if r2 < 1 else 0.0

    # quadrature of integral over the cube of bump * v1
    q = 64
    quad = 0.0
    for i in range(q):
        for j in range(q):
            x = -0.5 + (i + 0.5) / q
            y = -0.5 + (j + 0.5) / q
            quad += bump((x, y)) / q**2
    errs = []
    dists = []
    for n in (4, 8, 16):
        f = constant_stream(unit_cube(2), target_v, n)
        mu = vector_measure(f)
        integral = sum(bump(p) * float(w[0]) for p, w in mu.atoms)
        errs.append(abs(integral - quad))
        dists.append(distance(mu, target).lower)
    assert dists[0] > dists[1] > dists[2]
    assert errs[2] < errs[0]
    assert errs[2] < 5e-3


def test_json_round_trip():
    rng = random.Random(9)
    nu = random_density_measure(rng, 2)
    f = Stream(2, 2)
    f.values[EdgeId((0, 0), 0)] = Fraction(1, 3)
    mu = vector_measure(f)
    combined = VectorMeasure(d=2, atoms=mu.atoms, densities=nu.densities)
    back = from_json(to_json(combined))
    assert back == combined


def test_json_decimal_number_reads_as_the_decimal_written():
    # JSON 0.3 is 3/10, as "3/10" is: read as the double nearest 3/10, the
    # difference 0.3 - 1/10 of the two atoms rounded to 0.19999999999999998
    a = '{"d": 2, "atoms": [{"point": ["1/4", "3/8"], "weight": [%s, "0"]}], "densities": []}'
    b = from_json('{"d": 2, "atoms": [{"point": ["1/4", "3/8"], "weight": ["1/10", "0"]}], "densities": []}')
    assert from_json(a % "0.3") == from_json(a % '"3/10"')
    opts = DistanceOptions(k_max=6)
    brackets = [distance(from_json(a % w), b, opts) for w in ("0.3", '"3/10"', "3e-1")]
    assert {(repr(br.lower), repr(br.upper)) for br in brackets} == {("0.39687500000000003", "0.403125")}


@pytest.mark.parametrize("weights, lower, upper", [
    ((1, 2, 3), "1.1998535156250003", "1.2000000000000004"),
    ((3, 2, 1), "1.1998535156249999", "1.2"),
])
def test_bracket_adds_a_cubes_atom_weights_in_atom_order(weights, lower, upper):
    # three atoms that share a cube down to side 1/64: in floats
    # 0.1 + 0.2 + 0.3 = 0.6000000000000001 but 0.3 + 0.2 + 0.1 = 0.6, so the
    # bracket's last bits show the order the weights of a cube are added in
    F = Fraction
    atoms = tuple(((F(x, 64), F(1, 64)), (F(w, 10), F(0))) for x, w in zip((1, 2, 3), weights))
    br = distance(VectorMeasure(d=2, atoms=atoms), VectorMeasure(d=2))
    assert (repr(br.lower), repr(br.upper)) == (lower, upper)


def test_records_keep_their_dataclass_behaviour():
    # the constructors, defaults, equality and (im)mutability @dataclass gave
    atom = (((Fraction(1, 4), Fraction(0)), (Fraction(1), Fraction(0))),)
    mu = VectorMeasure(2, atom)
    assert mu == VectorMeasure(d=2, atoms=atom) == VectorMeasure(2, atom, ())
    assert mu != VectorMeasure(2) and mu != (2, atom, ())
    assert hash(mu) == hash((2, atom, ()))
    assert repr(VectorMeasure(2)) == "VectorMeasure(d=2, atoms=(), densities=())"
    with pytest.raises(AttributeError):
        mu.d = 3
    with pytest.raises(AttributeError):
        del mu.atoms
    for bad in ((), (2, (), (), ()), (2,)):
        with pytest.raises(TypeError):
            VectorMeasure(*bad, **({"d": 2} if len(bad) == 1 else {}))
    with pytest.raises(TypeError):
        VectorMeasure(d=2, weights=())
    opts = DistanceOptions()
    assert (opts.k_max, opts.cube_budget) == (12, 2_000_000)
    assert opts.lambdas == (Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(7, 4))
    assert opts.shifts == (Fraction(0), Fraction(1, 4), Fraction(1, 2))
    assert opts == DistanceOptions(k_max=12) != DistanceOptions(k_max=3)
    opts.k_max = 3  # the options and the bracket stay mutable, so unhashable
    assert opts == DistanceOptions(3)
    br = distance(mu, mu, opts)
    assert br == DistanceBracket(br.lower, br.upper, br.grid, 3, br.best_point)
    assert br.best_point == DistanceBracket(0.0, 0.0, "", 1).best_point
    with pytest.raises(TypeError):
        hash(br)
    with pytest.raises(TypeError):
        hash(opts)


def test_overlapping_densities_rejected():
    with pytest.raises(ValueError):
        VectorMeasure(
            d=2,
            densities=(
                (unit_cube(2), (Fraction(1), Fraction(0))),
                (unit_cube(2), (Fraction(0), Fraction(1))),
            ),
        )


def test_plaquette_discretization_distance_decreases():
    # the discretization of v 1_cube (every edge with left endpoint in the
    # cube carries v) converges to the target in the bracketed distance as n
    # grows
    v = (Fraction(1), Fraction(0))
    target = VectorMeasure.from_density(unit_cube(2), v)
    uppers = []
    for n in (4, 8, 16):
        f = constant_stream(unit_cube(2), v, n)
        uppers.append(distance(vector_measure(f), target).upper)
    assert uppers[0] > uppers[1] > uppers[2]


def test_cube_kernel_matches_the_per_point_oracle():
    # random rational points, points on a cube's lower face (r == 0) at
    # every grid point and level, and boxes that are random, aligned with
    # cube faces, or degenerate on one axis
    from oracles import cube_bounds, cube_key, overlap_volume

    from latflow.measure import CubeGrid

    rng = random.Random(7)
    F = Fraction
    d = 2
    opts = DistanceOptions(k_max=3, lambdas=(F(1), F(5, 4)), shifts=(F(0), F(1, 3)))
    points = [tuple(F(rng.randint(-40, 40), 24) for _ in range(d)) for _ in range(60)]
    faces = []
    for lam in opts.lambdas:
        for k in range(opts.k_max + 1):
            side = lam / 2**k
            for x in opts.shifts:
                z = rng.randint(-3, 3)
                faces.append((tuple(x + (z - F(1, 2)) * side for _ in range(d)), z))
    points += [p for p, _ in faces]
    grid = CubeGrid(d, opts, [c for p in points for c in p])
    cols = grid.columns(points)
    boxes = [tuple(sorted((rng.uniform(-2, 2), rng.uniform(-2, 2))) for _ in range(d))
             for _ in range(4)]
    boxes.append(((0.0, 0.5), (0.25, 0.25)))  # degenerate on axis 1
    boxes.append(((-0.625, 0.625), (-1.25, 1.25)))  # faces of the lam = 5/4 cubes
    on_face, met = 0, set()
    for xs, lam in grid.points:
        X, sides = grid.levels(xs, lam)
        for S in sides:
            scaled = [tuple(map(grid.scale, p)) for p in points]
            keys = list(grid.keys(cols, X, S))
            assert keys == [cube_key(P, X, S) for P in scaled]
            for (p, z), key in zip(faces, keys[-len(faces):]):
                if all(grid.scale(c) == x + z * S - S // 2 for c, x in zip(p, X)):
                    assert key == (z,) * d
                    on_face += 1
            # a unit value per box makes each cube's mass its overlap volume
            cubes = sorted(set(keys) | {tuple(z + 1 for z in key) for key in keys})
            for i, box in enumerate(boxes):
                want = [overlap_volume(cube_bounds(grid.D, X, S, key), box) for key in cubes]
                # the whole list, and blocks of up to four cubes, which
                # cube_masses runs through its other loop
                for block in [slice(None)] + [slice(j, j + 4) for j in range(0, len(cubes), 4)]:
                    masses, covered = grid.cube_masses(X, S, cubes[block], {}, [box], [[1.0] * d])
                    assert [repr(m) for m in masses] == [repr([v, v]) for v in want[block]]
                    total = 0.0
                    for v in want[block]:
                        total += v
                    assert repr(covered) == repr([total])
                if any(want):
                    met.add(i)
    assert on_face >= 16
    # every box but the degenerate one is met by some cube
    assert met == set(range(len(boxes))) - {len(boxes) - 2}


def _golden_lattice_pair():
    # lattice atoms at n = 3 under a grid adapted to their spacing 1/6: its
    # shifts 1/12, 1/24 and lambdas 9/8, 4/3 make the grid's common
    # denominator non-dyadic
    f = Stream(2, 3)
    vals = [Fraction(1), Fraction(-1, 2), Fraction(2, 3), Fraction(1, 4), Fraction(0), Fraction(3, 2)]
    edges = [EdgeId((x, y), ax) for x in range(-1, 2) for y in range(-1, 2) for ax in range(2)]
    for i, e in enumerate(edges):
        if vals[i % len(vals)]:
            f.values[e] = vals[i % len(vals)]
    mu = vector_measure(f)
    nu = VectorMeasure.from_density(unit_cube(2), (Fraction(1, 2), Fraction(1, 4)))
    F = Fraction
    return mu, nu, DistanceOptions(k_max=12, lambdas=(F(1), F(9, 8), F(5, 4), F(4, 3), F(3, 2), F(7, 4)),
                                   shifts=(F(0), F(1, 24), F(1, 12), F(1, 4), F(1, 2)))


def _golden_d3_pair():
    F = Fraction
    mu = VectorMeasure.from_density(
        ((F(-1, 2), F(0)), (F(-1, 4), F(1, 4)), (F(0), F(1, 2))), (F(1), F(-1, 2), F(1, 8)))
    nu = VectorMeasure.from_density(
        ((F(1, 8), F(1, 2)), (F(-1, 2), F(-1, 4)), (F(-1, 2), F(-1, 8))), (F(-3, 4), F(0), F(1, 2)))
    return mu, nu, DistanceOptions(k_max=6)


# Sides 5/4 2^-k, 3/2 2^-k and 7/4 2^-k need more powers of two than 2^k_max:
# a grid denominator that misses them moves the bracket in its last digits.
_ODD_LAMBDAS = DistanceOptions(lambdas=(Fraction(5, 4), Fraction(3, 2), Fraction(7, 4)))


def _golden_face_pair():
    # two cells with different values sharing a face; the thin one is
    # narrower than the crossing cubes of the coarse levels
    F = Fraction
    mu = VectorMeasure.from_density(((F(-1, 16), F(0)), (F(-1, 2), F(1, 2))), (F(1), F(1, 2)))
    nu = VectorMeasure.from_density(((F(0), F(1, 2)), (F(-1, 4), F(1, 2))), (F(-1, 2), F(1)))
    return mu, nu, _ODD_LAMBDAS


def _golden_corner_pair():
    F = Fraction
    mu = VectorMeasure.from_density(((F(-1, 2), F(0)), (F(-1, 2), F(0))), (F(1), F(0)))
    nu = VectorMeasure.from_density(((F(0), F(3, 8)), (F(0), F(5, 8))), (F(0), F(3, 4)))
    return mu, nu, _ODD_LAMBDAS


def _golden_overlap_pair():
    # overlapping boxes: their difference has cells whose face pairs list
    # the upper cell first; recorded while _level_sum still classified the
    # cell pairs at every level
    F = Fraction
    mu = VectorMeasure.from_density(((F(3, 2), F(9, 4)), (F(3, 4), F(5, 4))), (F(3, 2), F(-3)))
    nu = VectorMeasure.from_density(((F(1), F(2)), (F(3, 4), F(7, 4))), (F(-1), F(-1, 3)))
    return mu, nu, DistanceOptions(k_max=8)


@pytest.mark.parametrize("pair, lower, upper", [
    (_golden_lattice_pair, "2.302579218839758", "2.303034436747456"),
    (_golden_d3_pair, "0.34193641827171845", "0.3446288310140154"),
    (_golden_face_pair, "0.887363117932348", "0.8874825368459413"),
    (_golden_corner_pair, "0.823816159485313", "0.8239201099858012"),
    (_golden_overlap_pair, "4.085337495459816", "4.094368279798617"),
], ids=["lattice-adaptive", "d3-density", "shared-face", "corner-contact", "overlap"])
def test_bracket_is_bit_identical_to_recorded_values(pair, lower, upper):
    # recorded with the per-point Fraction bucketing the integer kernel replaced
    mu, nu, opts = pair()
    br = distance(mu, nu, opts)
    assert (repr(br.lower), repr(br.upper)) == (lower, upper)


def _random_atoms(rng, d, count):
    return tuple(
        (tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(d)),
         tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(d)))
        for _ in range(count))


def _touching_pair(rng, corner):
    # two boxes on the eighths grid, the second starting where the first
    # ends on axis 0 and, for a corner contact, on axis 1 too; random values
    lo = [Fraction(rng.randint(-4, 0), 8) for _ in range(2)]
    hi = [l + Fraction(rng.randint(1, 4), 8) for l in lo]
    a = ((lo[0], hi[0]), (lo[1], hi[1]))
    b_lo1 = hi[1] if corner else lo[1] + Fraction(rng.randint(0, 1), 8)
    b = ((hi[0], hi[0] + Fraction(rng.randint(1, 4), 8)), (b_lo1, b_lo1 + Fraction(rng.randint(1, 4), 8)))

    def value():
        return tuple(Fraction(rng.choice([k for k in range(-8, 9) if k]), 8) for _ in range(2))

    return VectorMeasure(d=2, densities=((a, value()),)), VectorMeasure(d=2, densities=((b, value()),))


def _oracle_pairs():
    rng = random.Random(11)
    empty = VectorMeasure(d=2)
    pairs = []
    for _ in range(4):
        pairs.append((VectorMeasure(d=2, atoms=_random_atoms(rng, 2, rng.randint(1, 4))),
                      VectorMeasure(d=2, atoms=_random_atoms(rng, 2, rng.randint(1, 4)))))
        pairs.append((random_density_measure(rng, 2, count=3), random_density_measure(rng, 2)))
        pairs.append(_touching_pair(rng, corner=False))
        pairs.append(_touching_pair(rng, corner=True))
        mixed = random_density_measure(rng, 2) + VectorMeasure(d=2, atoms=_random_atoms(rng, 2, 3))
        pairs.append((mixed, random_density_measure(rng, 2)))
    mu = random_density_measure(rng, 2)
    pairs += [(mu, mu), (empty, empty), (mu, empty)]
    # one atom: every grid point has the same sum at every level, so all of
    # them tie and best_point is the first grid point
    one = VectorMeasure(d=2, atoms=(((Fraction(1, 3), Fraction(0)), (Fraction(1), Fraction(-1, 2))),))
    pairs.append((one, empty))
    # symmetric under swapping the axes: at the default grid the points
    # (1/4, 1/2) and (1/2, 1/4) of lambda = 1 tie for the maximum, and the
    # corner pair ties at 8 points
    diag = tuple(((Fraction(s, 8), Fraction(s, 8)), (Fraction(s), Fraction(0))) for s in (1, -1))
    pairs.append((VectorMeasure(d=2, atoms=diag), empty))
    quarter = ((Fraction(0), Fraction(1, 4)),) * 2
    pairs.append((VectorMeasure.from_density(quarter, (Fraction(1), Fraction(1))),
                  VectorMeasure.from_density(((Fraction(1, 4), Fraction(1, 2)),) * 2, (Fraction(-1), Fraction(1)))))
    return pairs


def test_distance_equals_the_exhaustive_oracle_bit_for_bit():
    from oracles import distance_by_exhaustion

    pairs = _oracle_pairs()
    for opts in (DistanceOptions(), DistanceOptions(k_max=5, lambdas=(Fraction(3, 2), Fraction(1)))):
        for mu, nu in pairs:
            br = distance(mu, nu, opts)
            assert (br.lower, br.upper, br.best_point) == distance_by_exhaustion(mu, nu, opts)
        one, empty = pairs[-3]
        assert distance(one, empty, opts).best_point == ((Fraction(0), Fraction(0)), opts.lambdas[0])
    diag, empty = pairs[-2]
    assert distance(diag, empty).best_point == ((Fraction(1, 4), Fraction(1, 2)), Fraction(1))


def test_distance_prunes_levels_on_the_lattice_pair(monkeypatch):
    # the benchmark's lattice pair: the n = 12 constant stream (1, 0) on the
    # unit square as atoms against its density; summing every level of the
    # 36 grid points would take 36 * 13 = 468 level sums
    import latflow.measure

    n = 12
    atoms = tuple(((Fraction(2 * x + 1, 2 * n), Fraction(y, n)), (Fraction(1, n**2), Fraction(0)))
                  for x in range(n) for y in range(n))
    mu = VectorMeasure(d=2, atoms=atoms)
    nu = VectorMeasure.from_density(((Fraction(0), Fraction(1)),) * 2, (Fraction(1), Fraction(0)))
    calls = []
    level_sum = latflow.measure._level_sum

    def counted(atoms, cells, X, S, grid, budget):
        calls.append((X, S, grid))
        return level_sum(atoms, cells, X, S, grid, budget)

    monkeypatch.setattr(latflow.measure, "_level_sum", counted)
    br = distance(mu, nu, DistanceOptions(k_max=12))
    assert len(calls) <= 468 // 2
    X, sides = calls[0][2].levels(*br.best_point)
    assert sorted(S for x, S, _ in calls if x == X and S in sides) == sorted(sides)
    assert len(sides) == 13
