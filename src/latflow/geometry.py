"""Exact lattice geometry: domains, cylinders, boundary edge sets, face partitions.

All vertices live on the rescaled lattice Z^d/n and are stored as integer
coordinate tuples at scale n (the point p corresponds to the tuple n*p).
Region corners are Fractions, and every "which vertices lie in this box"
question is answered by one integer rule: the box becomes per-axis integer
ranges at scale n (``near_ranges``, ``half_open_ranges``), so no per-vertex
rational is ever built.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from typing import NamedTuple


def frac(x) -> Fraction:
    """Coerce ints, strings like '1/2', floats and Fractions to Fraction.  A
    float is taken only when it is exactly the decimal written (0.5, not 0.3),
    so no value is rounded silently; otherwise ValueError."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        written = Fraction(repr(x))  # ValueError for inf and nan
        if Fraction(x) != written:
            raise ValueError(f"the float {x!r} is not exactly {written}; "
                             f"write it as the quoted rational '{written}'")
        return written
    return Fraction(x)


class EdgeId(NamedTuple):
    """Lattice edge <x, x + e_axis/n>, stored by its left endpoint.

    ``x`` holds integer coordinates at scale n.  The canonical orientation is
    always +e_axis; an edge belongs to a set C when x/n lies in C.
    """

    x: tuple
    axis: int

    def right(self):
        y = list(self.x)
        y[self.axis] += 1
        return tuple(y)

    def midpoint(self, n):
        # rational point in R^d
        return tuple(
            Fraction(c) / n + (Fraction(1, 2 * n) if j == self.axis else 0)
            for j, c in enumerate(self.x)
        )


# A box is a tuple of (lo, hi) Fraction pairs, one per axis, read half-open
# [lo, hi) unless stated otherwise.  A face is a box degenerate on one axis.


def box(*bounds) -> tuple:
    return tuple((frac(lo), frac(hi)) for lo, hi in bounds)


def box_volume(b) -> Fraction:
    v = Fraction(1)
    for lo, hi in b:
        v *= hi - lo
    return v


def face_axis(face) -> int:
    """Axis on which the face is degenerate (lo == hi)."""
    axes = [j for j, (lo, hi) in enumerate(face) if lo == hi]
    if len(axes) != 1:
        raise ValueError("face must be degenerate on exactly one axis")
    return axes[0]


def unit_cube(d) -> tuple:
    """The half-open cube [-1/2, 1/2)^d centered at the origin."""
    h = Fraction(1, 2)
    return tuple((-h, h) for _ in range(d))


def cube_box(d, n):
    """Integer-coordinate extent of the unit cube [-1/2, 1/2)^d at scale n:
    coordinates c with -1/2 <= c/n < 1/2."""
    lo = -(n // 2)
    return lo, lo + n


def near_ranges(b, n) -> tuple:
    """Per-axis integer ranges of the x in Z^d with d_inf(x/n, closure of b)
    < 1/n: on each axis floor(n lo) <= x <= ceil(n hi)."""
    return tuple(range(math.floor(lo * n), math.ceil(hi * n) + 1) for lo, hi in b)


def half_open_ranges(b, n) -> tuple:
    """Per-axis integer ranges of the x in Z^d with lo <= x/n < hi: on each
    axis ceil(n lo) <= x < ceil(n hi)."""
    return tuple(range(math.ceil(lo * n), math.ceil(hi * n)) for lo, hi in b)


def _in_any(v, boxes_ranges) -> bool:
    """Is the integer vertex v in one of the per-axis range products?"""
    return any(all(c in r for c, r in zip(v, rs)) for rs in boxes_ranges)


def neighbors(v):
    """The 2d lattice neighbours of the integer vertex v."""
    for j in range(len(v)):
        for s in (1, -1):
            yield v[:j] + (v[j] + s,) + v[j + 1:]


def inner_edges(verts) -> list:
    """Lattice edges with both endpoints in the vertex set, ordered by left
    endpoint, then axis."""
    return [
        EdgeId(v, j)
        for v in sorted(verts)
        for j in range(len(v))
        if v[:j] + (v[j] + 1,) + v[j + 1:] in verts
    ]


@dataclass(frozen=True)
class DomainSpec:
    """Domain (Omega, Gamma^1, Gamma^2): a finite union of open rational axis
    boxes with source and sink given as unions of axis-aligned boundary faces.
    """

    d: int
    boxes: tuple
    source: tuple  # faces (degenerate boxes)
    sink: tuple

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("dimension must be >= 2")
        for b in self.boxes:
            if len(b) != self.d or any(lo >= hi for lo, hi in b):
                raise ValueError("domain boxes must be non-degenerate and d-dimensional")
        for f in list(self.source) + list(self.sink):
            face_axis(f)
        # positive separation between source and sink
        for f in self.source:
            for g in self.sink:
                if _faces_touch(f, g):
                    raise ValueError("source and sink must have positive separation")


def _faces_touch(f, g) -> bool:
    # closed hulls intersect?
    for (alo, ahi), (blo, bhi) in zip(f, g):
        if ahi < blo or bhi < alo:
            return False
    return True


def unit_square_domain() -> DomainSpec:
    """(0,1)^2 with source {0} x (0,1) and sink {1} x (0,1)."""
    one = Fraction(1)
    return DomainSpec(
        d=2,
        boxes=(box((0, 1), (0, 1)),),
        source=(((Fraction(0), Fraction(0)), (Fraction(0), one)),),
        sink=(((one, one), (Fraction(0), one)),),
    )


def unit_box_domain(d) -> DomainSpec:
    """(0,1)^d with source/sink the two faces orthogonal to e_0."""
    zero, one = Fraction(0), Fraction(1)
    b = tuple((zero, one) for _ in range(d))
    src = ((zero, zero),) + b[1:]
    snk = ((one, one),) + b[1:]
    return DomainSpec(d=d, boxes=(b,), source=(src,), sink=(snk,))


@dataclass(frozen=True)
class LatticeDomain:
    """Discretization of a DomainSpec at scale n.

    Vertex sets are frozensets of integer tuples at scale n.  ``edges`` holds
    every lattice edge with both endpoints in omega; ``active_edges`` drops the
    edges with both endpoints in gamma1 | gamma2, which admissible streams must
    leave at zero.
    """

    spec: DomainSpec
    n: int
    omega: frozenset
    gamma: frozenset
    gamma1: frozenset
    gamma2: frozenset
    edges: tuple = field(repr=False)

    @property
    def d(self):
        return self.spec.d

    @property
    def active_edges(self):
        terminals = self.gamma1 | self.gamma2
        return tuple(
            e for e in self.edges if not (e.x in terminals and e.right() in terminals)
        )

    def point(self, v):
        return tuple(Fraction(c, self.n) for c in v)


def discretize_domain(spec: DomainSpec, n: int) -> LatticeDomain:
    """Build Omega_n, Gamma_n and Gamma_n^i by exact integer range tests.

    Omega_n = {x in Z^d/n : d_inf(x, Omega) < 1/n}, the union of the boxes'
    near ranges; Gamma_n collects the vertices of Omega_n with a lattice
    neighbour outside; Gamma_n^i keeps the Gamma_n vertices within 1/n of
    Gamma^i but not within 1/n of the other terminal.
    """
    if n < 1:
        raise ValueError("scale n must be >= 1")
    omega = frozenset(chain.from_iterable(product(*near_ranges(b, n)) for b in spec.boxes))
    if not omega:
        raise ValueError("empty discretization: n too small for the region")
    gamma = frozenset(v for v in omega if any(w not in omega for w in neighbors(v)))
    near_source = [near_ranges(f, n) for f in spec.source]
    near_sink = [near_ranges(f, n) for f in spec.sink]
    gamma1, gamma2 = set(), set()
    for v in gamma:
        in1, in2 = _in_any(v, near_source), _in_any(v, near_sink)
        if in1 and not in2:
            gamma1.add(v)
        elif in2 and not in1:
            gamma2.add(v)
    return LatticeDomain(
        spec=spec,
        n=n,
        omega=omega,
        gamma=gamma,
        gamma1=frozenset(gamma1),
        gamma2=frozenset(gamma2),
        edges=tuple(inner_edges(omega)),
    )


# ---------------------------------------------------------------------------
# Regions and cylinders


class Region:
    """Lattice-membership region: a union of half-open rational boxes, or a
    straight cylinder.  Membership at scale n is an integer range test.
    """

    def __init__(self, boxes=None, cylinder=None):
        if (boxes is None) == (cylinder is None):
            raise ValueError("pass exactly one of boxes / cylinder")
        self.boxes = tuple(boxes) if boxes is not None else None
        self.cylinder = cylinder

    def _ranges(self, n):
        """Per-box tuples of per-axis integer ranges at scale n."""
        if self.boxes is None:
            return [self.cylinder.ranges(n)]
        return [half_open_ranges(b, n) for b in self.boxes]

    def lattice_vertices(self, n):
        """The integer vertices of the region at scale n, in lexicographic
        order."""
        ranges = self._ranges(n)
        if len(ranges) == 1:
            return list(product(*ranges[0]))
        return sorted(set(chain.from_iterable(product(*rs) for rs in ranges)))

    def contains_vertex(self, v, n) -> bool:
        return _in_any(v, self._ranges(n))


class Cylinder:
    """The straight two-sided cylinder cyl(A, h): the base A, a degenerate
    rational box, extended by h both ways along the axis normal to it.

    The base's non-degenerate extents are read half-open so that adjacent
    cylinders tile without overlap, and the axis extent is closed.
    """

    def __init__(self, base, h):
        self.base = base
        self.h = frac(h)
        if self.h <= 0:
            raise ValueError("cylinder height must be positive")
        self.axis = face_axis(base)
        if any(lo == hi for j, (lo, hi) in enumerate(base) if j != self.axis):
            raise ValueError("degenerate base")

    def ranges(self, n):
        """Per-axis integer ranges of the lattice vertices at scale n: the
        base extents half-open, the axis extent closed."""
        c = self.base[self.axis][0]
        out = list(half_open_ranges(self.base, n))
        out[self.axis] = range(math.ceil((c - self.h) * n), math.floor((c + self.h) * n) + 1)
        return tuple(out)


def cylinder_sets(base, h):
    """The region of cyl(A, h) and its half-boundary vertex sets (T', B') at
    scale 1: the boundary vertices above and below the base plane, those on
    it excluded.  Scale the base and h by n for the sets at scale n."""
    cyl = Cylinder(base, h)
    region = Region(cylinder=cyl)
    verts = set(region.lattice_vertices(1))
    ax, c = cyl.axis, base[cyl.axis][0]
    top_half, bot_half = set(), set()
    for x in verts:
        if all(y in verts for y in neighbors(x)):
            continue
        if x[ax] > c:
            top_half.add(x)
        elif x[ax] < c:
            bot_half.add(x)
    return region, frozenset(top_half), frozenset(bot_half)


def boundary_edge_set(axis, sign, face, n):
    """E_n^{axis,+}[A] or E_n^{axis,-}[A]: edges whose half-open segment
    (x, x+e/n] (resp. (x-e/n, x]) meets the face A.

    For A inside the minus face of a cube this returns only edges whose left
    endpoint lies in the cube, matching the left-endpoint convention.
    """
    if face_axis(face) != axis:
        raise ValueError("face must be orthogonal to the given axis")
    # sign +1: x_axis < c n <= x_axis + 1; sign -1: x_axis <= c n < x_axis + 1
    cn = face[axis][0] * n
    ranges = list(half_open_ranges(face, n))
    ranges[axis] = (math.ceil(cn) - 1 if sign > 0 else math.floor(cn),)
    return [EdgeId(x, axis) for x in product(*ranges)]


def face_partition(d, axis, sign, m):
    """Partition the face of the unit cube orthogonal to e_axis on side
    ``sign`` into m^(d-1) half-open cells of side 1/m and (d-1)-measure
    1/m^(d-1), listed in ``product(range(m), repeat=d - 1)`` order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    b = unit_cube(d)
    c = b[axis][1] if sign > 0 else b[axis][0]
    widths = [Fraction(hi - lo, m) for lo, hi in b]
    cells = []
    for offs in product(range(m), repeat=d - 1):
        cell = []
        it = iter(offs)
        for j in range(d):
            if j == axis:
                cell.append((c, c))
            else:
                lo = b[j][0] + next(it) * widths[j]
                cell.append((lo, lo + widths[j]))
        cells.append(tuple(cell))
    return cells


def sparse_edge_count_bound(d, n, K):
    """Paper bound |E_K^d in [0,n) x [1,n]^{d-1}| <= 3d n^d / K^{d-2}."""
    return Fraction(3 * d * n**d, K ** (d - 2))
