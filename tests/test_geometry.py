import math
import random
from fractions import Fraction

import pytest

from latflow.geometry import (
    EdgeId,
    Region,
    Cylinder,
    boundary_edge_set,
    box,
    cylinder_sets,
    discretize_domain,
    face_partition,
    sparse_edge_count_bound,
    unit_cube,
    unit_square_domain,
)

import oracles


def test_unit_square_n1_matches_hand_enumeration():
    L = discretize_domain(unit_square_domain(), 1)
    assert L.omega == frozenset({(0, 0), (0, 1), (1, 0), (1, 1)})
    assert len(L.omega) == 4


def test_unit_square_n2_has_nine_vertices():
    L = discretize_domain(unit_square_domain(), 2)
    assert len(L.omega) == 9
    assert L.omega == frozenset(oracles.enumerate_omega(unit_square_domain().boxes, 2))


def test_unit_square_n2_source_vertices():
    L = discretize_domain(unit_square_domain(), 2)
    assert L.gamma1 == frozenset({(0, 0), (0, 1), (0, 2)})
    assert L.gamma2 == frozenset({(2, 0), (2, 1), (2, 2)})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_omega_matches_enumeration_oracle(n):
    spec = unit_square_domain()
    L = discretize_domain(spec, n)
    assert L.omega == frozenset(oracles.enumerate_omega(spec.boxes, n))


def test_gamma_vertices_satisfy_defining_distances():
    dist_inf_to_union = oracles.dist_inf_to_union
    spec = unit_square_domain()
    for n in (1, 2, 3):
        L = discretize_domain(spec, n)
        thr = Fraction(1, n)
        for v in L.gamma1:
            p = tuple(Fraction(c, n) for c in v)
            assert dist_inf_to_union(p, spec.source) < thr
            assert dist_inf_to_union(p, spec.sink) >= thr
        for v in L.gamma2:
            p = tuple(Fraction(c, n) for c in v)
            assert dist_inf_to_union(p, spec.sink) < thr
            assert dist_inf_to_union(p, spec.source) >= thr
        assert not (L.gamma1 & L.gamma2)
        assert (L.gamma1 | L.gamma2) <= L.gamma <= L.omega


def _random_rational_box(rng, d):
    out = []
    for _ in range(d):
        lo = Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3, 4)))
        out.append((lo, lo + Fraction(rng.randint(1, 4), rng.choice((1, 2, 3, 4)))))
    return tuple(out)


def _random_multibox_domain(rng, d):
    from latflow.geometry import DomainSpec

    boxes = tuple(_random_rational_box(rng, d) for _ in range(rng.randint(1, 3)))
    axis = rng.randrange(d)
    lo = min(b[axis][0] for b in boxes)
    hi = max(b[axis][1] for b in boxes)

    def faces(c):
        return tuple(
            tuple((c, c) if j == axis else ext for j, ext in enumerate(_random_rational_box(rng, d)))
            for _ in range(rng.randint(1, 2))
        )

    return DomainSpec(d=d, boxes=boxes, source=faces(lo), sink=faces(hi))


def _probes(rng, d):
    """Vertices in and around the random regions, for the membership test."""
    return [tuple(rng.randint(-14, 14) for _ in range(d)) for _ in range(60)]


@pytest.mark.parametrize("d", [2, 3])
def test_integer_kernel_matches_fraction_scan(d):
    """discretize_domain, Region, cylinder_sets and boundary_edge_set against
    Fraction scans of the definitions on random rational multi-box domains,
    cylinders and faces."""
    rng = random.Random(20 + d)
    for _ in range(12 if d == 2 else 4):
        spec = _random_multibox_domain(rng, d)
        region = Region(boxes=spec.boxes)
        for n in (1, 2, 3, 4):
            L = discretize_domain(spec, n)
            omega, gamma, gamma1, gamma2, edges = oracles.discretize_by_scan(spec, n)
            assert (L.omega, L.gamma, L.gamma1, L.gamma2) == (omega, gamma, gamma1, gamma2)
            assert [(e.x, e.axis) for e in L.edges] == edges
            want = oracles.box_region_by_scan(spec.boxes, n)
            assert region.lattice_vertices(n) == want
            inside = set(want)
            for x in _probes(rng, d):
                assert region.contains_vertex(x, n) == (x in inside)
    for _ in range(16 if d == 2 else 5):
        axis = rng.randrange(d)
        c = Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
        base = tuple((c, c) if j == axis else ext for j, ext in enumerate(_random_rational_box(rng, d)))
        h = Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))
        for sign in (1, -1):
            for n in (1, 2, 3, 4):
                edges = boundary_edge_set(axis, sign, base, n)
                want = oracles.boundary_edges_by_scan(axis, sign, base, n)
                assert [(e.x, e.axis) for e in edges] == want
        for n in (1, 2, 3, 4):
            # the sets at scale n are those of the base and h scaled by n
            region, *sets = cylinder_sets(tuple((lo * n, hi * n) for lo, hi in base), h * n)
            verts, _, _, *want = oracles.cylinder_by_scan(base, h, n)
            assert region.lattice_vertices(1) == verts
            assert [set(s) for s in sets] == want
            inside = set(verts)
            for x in _probes(rng, d):
                assert region.contains_vertex(x, 1) == (x in inside)


def test_invalid_domain_specs_raise():
    from latflow.geometry import DomainSpec

    with pytest.raises(ValueError):
        DomainSpec(d=1, boxes=(box((0, 1)),), source=(), sink=())
    with pytest.raises(ValueError):  # degenerate box
        DomainSpec(
            d=2,
            boxes=(box((0, 0), (0, 1)),),
            source=(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))),),
            sink=(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))),),
        )
    with pytest.raises(ValueError):  # touching source and sink
        DomainSpec(
            d=2,
            boxes=(box((0, 1), (0, 1)),),
            source=(((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1))),),
            sink=(((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1))),),
        )
    with pytest.raises(ValueError):
        discretize_domain(unit_square_domain(), 0)


def test_cylinder_halves_split_by_sign_and_midplane_excluded():
    base = box((0, 2), (0, 0))
    region, top_half, bot_half = cylinder_sets(base, 1)
    boundary = top_half | bot_half
    for v in top_half:
        assert v[1] > 0
    for v in bot_half:
        assert v[1] < 0
    for v in set(region.lattice_vertices(1)):
        if v[1] == 0:
            assert v not in boundary


def test_cylinder_top_bottom_sets():
    # T and B, the terminals of Phi(A, h) in test_maxflow, from the oracle
    base = box((0, 2), (0, 0))
    _, top, bottom, _, _ = oracles.cylinder_by_scan(base, 2, 1)
    assert top == {(0, 2), (1, 2)}
    assert bottom == {(0, -2), (1, -2)}


def test_boundary_edges_of_minus_face_count():
    for d in (2, 3):
        face = oracles.cube_face(d, 0, -1)
        edges = boundary_edge_set(0, -1, face, 2)
        assert len(edges) == 2 ** (d - 1)
        for e in edges:
            # left endpoint inside the half-open cube
            assert all(-1 <= c <= 0 for c in e.x)


def test_boundary_edges_left_endpoint_convention():
    # A in the minus face and B in the plus face both give edges inside the cube
    d = 2
    n = 4
    lo, hi = -2, 2
    minus = oracles.cube_face(d, 0, -1)
    plus = oracles.cube_face(d, 0, 1)
    for e in boundary_edge_set(0, -1, minus, n):
        assert lo <= e.x[0] < hi and lo <= e.x[1] < hi
        assert e.x[0] == -2
    for e in boundary_edge_set(0, 1, plus, n):
        assert lo <= e.x[0] < hi and lo <= e.x[1] < hi
        assert e.x[0] == 1


def test_boundary_edges_empty_when_face_misses_lattice_slab():
    face = ((Fraction(7, 3), Fraction(7, 3)), (Fraction(0), Fraction(1, 8)))
    edges = boundary_edge_set(0, 1, face, 4)
    assert edges == [EdgeId((9, 0), 0)]
    narrow = ((Fraction(7, 3), Fraction(7, 3)), (Fraction(1, 16), Fraction(1, 8)))
    assert boundary_edge_set(0, 1, narrow, 4) == []


def test_face_partition_counts_and_measures():
    def area(face):
        return math.prod(hi - lo for lo, hi in face if hi != lo)

    cells = face_partition(2, 0, -1, 3)
    assert len(cells) == 3
    assert all(area(c) == Fraction(1, 3) for c in cells)
    cells3 = face_partition(3, 1, 1, 2)
    assert len(cells3) == 4
    assert all(area(c) == Fraction(1, 4) for c in cells3)


def test_face_partition_tiles_the_face_exactly():
    d, m = 2, 3
    cells = face_partition(d, 0, -1, m)
    covered = set()
    for c in cells:
        lo, hi = c[1]
        covered.add((lo, hi))
    xs = sorted(lo for lo, _ in covered)
    assert xs[0] == Fraction(-1, 2)
    assert len(covered) == m


def test_sparse_edge_set_bound_d3():
    d, n, K = 3, 12, 4
    b = box((0, n), (1, n + 1), (1, n + 1))
    region = Region(boxes=(b,))
    edges = oracles.sparse_edge_set(K, region, 1, d=d)
    assert len(edges) <= sparse_edge_count_bound(d, n, K)


def test_sparse_edge_set_K1_contains_all_axis0_edges():
    d, n = 2, 4
    b = box((0, n), (1, n + 1))
    region = Region(boxes=(b,))
    edges = set(oracles.sparse_edge_set(1, region, 1, d=d))
    for v in region.lattice_vertices(1):
        assert EdgeId(tuple(v), 0) in edges


def test_sparse_bound_d2_independent_of_K():
    assert sparse_edge_count_bound(2, 5, 1) == 150
    assert sparse_edge_count_bound(2, 5, 4) == 150


def test_edge_count_in_cube_is_d_n_d():
    # |{e in E_n^d : e in cube}| = d n^d
    from itertools import product

    for d in (2, 3):
        for n in (1, 2, 4, 8):
            if d == 3 and n == 8:
                continue
            from latflow.reconnect import cube_box

            lo, hi = cube_box(d, n)
            count = sum(1 for _ in product(range(lo, hi), repeat=d)) * d
            assert count == d * n**d


def test_library_floats_must_be_exactly_the_decimal_written():
    # 0.3 and 1e-13 used to be rounded to 3/10 and 0 without a word
    assert box((0, 0.5), (0.25, 1)) == box((0, Fraction(1, 2)), (Fraction(1, 4), 1))
    assert Cylinder(box((0, 1), (0, 0)), 0.5).h == Fraction(1, 2)
    for make in (
        lambda: box((0, 0.3), (0, 1)),
        lambda: box((1e-13, 1), (0, 1)),
        lambda: box((0, float("inf")), (0, 1)),
        lambda: Cylinder(box((0, 1), (0, 0)), 0.3),
    ):
        with pytest.raises(ValueError, match="is not exactly|Invalid literal"):
            make()
