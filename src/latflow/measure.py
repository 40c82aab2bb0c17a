"""Vector measures and the shifted dyadic-cube distance.

A VectorMeasure is a finite list of atoms (rational points, R^d weights) plus
piecewise-constant densities on rational axis boxes with pairwise disjoint
interiors.  ``distance`` evaluates

    g(x, lam) = sum_k 2^{-k} sum_Q ||mu(Q+x) - nu(Q+x)||_2

exactly (up to float norm accumulation) on a deterministic (x, lam) grid and
returns a bracket: the lower bound is the grid maximum of the truncated sum,
the upper bound adds the certified truncation tail.  The bracket therefore
encloses the grid-restricted supremum of the untruncated series; the grid
itself is part of the reported result.  The grid points are refined
best-first, each level bounded by the total variation TV(mu) + TV(nu), and
a point is left unfinished once that bound puts it below the best complete
sum: the bracket and the grid are those of summing every level everywhere.
"""

import heapq
import json
from fractions import Fraction
from functools import reduce
from itertools import chain, product
from math import lcm, prod, sqrt
from operator import add, mul


def _norm(vec):
    return sqrt(sum(float(c) * float(c) for c in vec))


class _Record:
    """A class of records, declared as for ``@dataclass``: its fields are its
    annotated class attributes, in order, and a value given in the class
    body is that field's default.  A record is built from its fields by
    position or by keyword, and equals a record of its own class whose
    fields are equal.  (``dataclasses`` itself is not imported: it loads
    ``inspect``, which costs a ``latflow distance`` process more time than
    the distance of a small pair.)"""

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = tuple(cls.__annotations__)
        if len(args) > len(names) or not set(kwargs) <= set(names[len(args):]):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}")
        values = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                values[name] = kwargs[name]
            elif hasattr(cls, name):
                values[name] = getattr(cls, name)
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
        self.__dict__.update(values)

    def _fields(self):
        return tuple(self.__dict__[name] for name in type(self).__annotations__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(type(self).__annotations__, self._fields()))
        return f"{type(self).__qualname__}({fields})"


class VectorMeasure(_Record):
    """Immutable and hashable, by its fields."""

    d: int
    atoms: tuple = ()
    densities: tuple = ()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for b, v in self.densities:
            if len(b) != self.d or len(v) != self.d:
                raise ValueError("density box/value dimension mismatch")
        boxes = [b for b, _ in self.densities]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _open_overlap(boxes[i], boxes[j]):
                    raise ValueError("density boxes must have disjoint interiors")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._fields())

    @classmethod
    def from_density(cls, b, value):
        d = len(b)
        return cls(d=d, densities=((tuple(b), tuple(Fraction(v) for v in value)),))

    def total_variation(self):
        tv = sum(_norm(w) for _, w in self.atoms)
        tv += sum(_norm(v) * float(prod(hi - lo for lo, hi in b)) for b, v in self.densities)
        return tv

    def scaled(self, c):
        return VectorMeasure(
            d=self.d,
            atoms=tuple((p, tuple(c * w_i for w_i in w)) for p, w in self.atoms),
            densities=tuple((b, tuple(c * v_i for v_i in v)) for b, v in self.densities),
        )

    def __add__(self, other):
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        # the constructor re-validates that density interiors stay disjoint
        return VectorMeasure(
            d=self.d,
            atoms=self.atoms + other.atoms,
            densities=self.densities + other.densities,
        )


def _open_overlap(a, b):
    for (alo, ahi), (blo, bhi) in zip(a, b):
        if min(ahi, bhi) <= max(alo, blo):
            return False
    return True


def restrict(nu: VectorMeasure, b) -> VectorMeasure:
    """nu restricted to the half-open box b."""
    atoms = tuple(
        (p, w) for p, w in nu.atoms if all(lo <= c < hi for c, (lo, hi) in zip(p, b))
    )
    densities = []
    for cell, v in nu.densities:
        clipped = []
        ok = True
        for (lo, hi), (clo, chi) in zip(b, cell):
            l, h = max(lo, clo), min(hi, chi)
            if h <= l:
                ok = False
                break
            clipped.append((l, h))
        if ok:
            densities.append((tuple(clipped), v))
    return VectorMeasure(d=nu.d, atoms=atoms, densities=tuple(densities))


class DistanceBracket(_Record):
    lower: float
    upper: float
    grid: str
    k_max: int
    best_point: tuple = None

    @property
    def gap(self):
        return self.upper - self.lower


class DistanceOptions(_Record):
    """Deterministic evaluation grid for the bracket.  The default is the
    fixed quarter grid (measure-independent).

    ``cube_budget`` caps the cubes a level enumerates one by one, for the
    levels ``distance`` evaluates: a level of a point that the search
    prunes away is never evaluated, so it cannot exceed the budget, and the
    bracket returned is still exact."""

    k_max: int = 12
    lambdas: tuple = (
        Fraction(1),
        Fraction(5, 4),
        Fraction(3, 2),
        Fraction(7, 4),
    )
    shifts: tuple = (Fraction(0), Fraction(1, 4), Fraction(1, 2))
    cube_budget: int = 2_000_000


def _pair_geometry(a, b):
    """Classify the closure contact of two boxes: ('gap', g), ('face', axis,
    coord, shared_rect) for a full (d-1)-face contact, or ('contact', box)
    for corner/edge touching."""
    d = len(a)
    gaps = [max(b[j][0] - a[j][1], a[j][0] - b[j][1]) for j in range(d)]
    g = max(gaps)
    if g > 0:
        return ("gap", g)
    touch_axes = [j for j in range(d) if gaps[j] == 0]
    overlap = [
        (max(a[j][0], b[j][0]), min(a[j][1], b[j][1])) for j in range(d)
    ]
    if len(touch_axes) == 1:
        ax = touch_axes[0]
        c = a[ax][1] if a[ax][1] == b[ax][0] else a[ax][0]
        rect = [overlap[j] for j in range(d)]
        rect[ax] = (c, c)
        if all(hi > lo for j, (lo, hi) in enumerate(rect) if j != ax):
            return ("face", ax, c, tuple(rect))
    return ("contact", tuple(overlap))


# ---------------------------------------------------------------------------
# the shifted dyadic cubes in integer form


class CubeGrid:
    """The (shift, lambda, level) evaluation grid of ``opts`` in integer form,
    and the one kernel that puts points into its cubes.

    Every coordinate the grid meets -- the given ones, the shifts and the
    side lam/2^k of every level -- is scaled by one common denominator D.
    The cube of side S shifted by X that holds P is then
    (2(P - X) + S) // 2S, and a cube bound turns into a float by one exact
    int true division, (2X + (2z +- 1)S) / 2D for the cube z, which rounds
    correctly and so equals float() of the rational bound.  D takes the
    denominator of each lam/2^k itself: lcm(lambda denominators, 2^k_max)
    misses 5/4 * 2^-12 = 5/16384.

    The kernel works axis by axis: points are stored by column, the cube
    index of each distinct coordinate is found once per axis, and a cube's
    overlap with a cell is the product of its per-axis segments.
    """

    def __init__(self, d, opts, coords):
        sides = {lam: [Fraction(lam) / 2**k for k in range(opts.k_max + 1)] for lam in opts.lambdas}
        self.D = lcm(*(c.as_integer_ratio()[1]
                       for c in (*coords, *opts.shifts, *chain(*sides.values()))))
        self.sides = {lam: [self.scale(side) for side in ss] for lam, ss in sides.items()}
        self.points = [(xs, lam) for lam in opts.lambdas for xs in product(opts.shifts, repeat=d)]

    def scale(self, c):
        """c * D as an int; a c that D does not clear is an error, not truncated."""
        num, den = c.as_integer_ratio()
        q, r = divmod(num * self.D, den)
        if r:
            raise ValueError(f"{c} is not a multiple of 1/{self.D}")
        return q

    def levels(self, xs, lam):
        """Scaled shift of the grid point (xs, lam) and scaled side per level."""
        return tuple(map(self.scale, xs)), self.sides[lam]

    def columns(self, points):
        """The rational points by axis: per axis, the distinct scaled
        coordinates and the position of each point's coordinate among them."""
        cols = []
        for col in zip(*points):
            col = [self.scale(c) for c in col]
            values = sorted(set(col))
            at = {v: i for i, v in enumerate(values)}
            cols.append((values, [at[v] for v in col]))
        return cols

    def keys(self, cols, X, S):
        """The index of the cube of side S shifted by X holding each point of
        ``cols`` (``columns``), in point order."""
        index = [[_locate(v, x, S)[0] for v in values] for (values, _), x in zip(cols, X)]
        return zip(*[map(ix.__getitem__, pos) for ix, (_, pos) in zip(index, cols)])

    def atom_masses(self, atoms, X, S):
        """cube index -> summed float weight of the atoms it holds, in the
        order the cubes are first met; ``atoms`` is (``columns``, weights).
        A cube's weights are added left to right in atom order from its
        first atom's weight (a sum from 0.0 would differ only in the sign of
        a zero, which every use squares away)."""
        cols, weights = atoms
        groups = {}
        for key, w in zip(self.keys(cols, X, S), weights):
            groups.setdefault(key, []).append(w)
        return {key: [reduce(add, c) for c in zip(*ws)] for key, ws in groups.items()}

    def cube_masses(self, X, S, cubes, atom_mass, fboxes, fvals):
        """The float mass of each cube of the list ``cubes`` (its entry of
        ``atom_mass`` plus value * overlap of each density cell), in order,
        and the volume of each cell (``fboxes``, ``fvals``) they cover.  An
        overlap is the product in axis order, from 1.0, of the cube's float
        bounds clipped to the cell, and zero at the first segment <= 0.  On a
        block of up to four cubes each segment is found where it is used, and
        a cell is left at its first empty axis; on a larger block each is
        found once per (cell, axis, index) that a cube uses.  (Timed per call
        on the bench workloads, the first loop is the faster on every block
        of up to four cubes, and the second on every 1-cell block of six or
        more, where indices repeat.)"""
        den = 2 * self.D
        zero = [0.0] * len(X)
        covered = [0.0] * len(fboxes)
        masses = []
        if len(cubes) <= 4:
            for key in cubes:
                mass = atom_mass.get(key, zero)
                for ci, box in enumerate(fboxes):
                    vol = 1.0
                    for z, x, (lo, hi) in zip(key, X, box):
                        s = (min((2 * x + (2 * z + 1) * S) / den, hi)
                             - max((2 * x + (2 * z - 1) * S) / den, lo))
                        if s <= 0:
                            break
                        vol *= s
                    else:
                        if vol > 0:
                            covered[ci] += vol
                            mass = [m + c * vol for m, c in zip(mass, fvals[ci])]
                masses.append(mass)
            return masses, covered
        used = [set(col) for col in zip(*cubes)]
        # per cell and axis: index -> positive segment
        segs = [[{z: s for z in zs
                  if (s := min((2 * x + (2 * z + 1) * S) / den, hi)
                      - max((2 * x + (2 * z - 1) * S) / den, lo)) > 0}
                 for zs, x, (lo, hi) in zip(used, X, box)] for box in fboxes]
        for key in cubes:
            mass = atom_mass.get(key, zero)
            for ci, seg_i in enumerate(segs):
                vol = 1.0
                for s in map(dict.get, seg_i, key):
                    if s is None:
                        break
                    vol *= s
                else:
                    if vol > 0:
                        covered[ci] += vol
                        mass = [m + c * vol for m, c in zip(mass, fvals[ci])]
            masses.append(mass)
        return masses, covered


def _locate(p, x, s):
    """(z, r): scaled coordinate p lies in the cube z of side s shifted by x,
    on its lower face exactly when r == 0."""
    return divmod(2 * (p - x) + s, 2 * s)


class _Cells:
    """The density cells of a difference measure, given as (scaled int box
    of ``grid``, value) pairs, and everything about them that no cube size
    changes: the conflicting pairs (different values) classified once, with
    each face pair ordered lower cell first, and the float forms the cube
    passes use."""

    def __init__(self, cells, D):
        self.boxes = [b for b, _ in cells]
        self.gaps, self.faces, self.contacts = [], [], []
        for i in range(len(cells)):
            for k in range(i + 1, len(cells)):
                if cells[i][1] == cells[k][1]:
                    continue
                kind = _pair_geometry(cells[i][0], cells[k][0])
                if kind[0] == "gap":
                    self.gaps.append((i, k, kind[1]))
                elif kind[0] == "face":
                    lower_first = cells[i][0][kind[1]][1] == kind[2]
                    self.faces.append(((i, k) if lower_first else (k, i)) + kind[1:])
                else:
                    self.contacts.append(kind[1])
        self.fboxes = [tuple((lo / D, hi / D) for lo, hi in b) for b, _ in cells]
        self.fvals = [[float(c) for c in v] for _, v in cells]
        # (|value|, volume) of each cell, for the single-owner bulk
        self.bulk = [(_norm(v), prod(hi - lo for lo, hi in b) / D ** len(b)) for b, v in cells]


def _level_sum(atoms, cells, X, S, grid, budget):
    """sum_Q ||h(Q + x)||_2 at one cube size for the signed difference measure.

    ``atoms`` is (``grid.columns``, float weights) and ``cells`` a ``_Cells``;
    the shift X and the side S are scaled ints of ``grid``.
    Per-cube masses are exact where cubes can mix sources (atom cubes, cubes
    bridging a gap no wider than s, cubes around corner contacts, the impure
    ends of face strips); cubes crossing a conflicting shared face in the
    strip interior all carry the same mass and aggregate analytically; every
    remaining cube meets a single cell and aggregates to |v| * volume.
    """
    d = len(X)
    D = grid.D

    def overlap_ranges(b):
        """Index ranges of cubes with positive-volume overlap with box b."""
        out = []
        for (lo, hi), x in zip(b, X):
            zlo, r = _locate(lo, x, S)
            if lo == hi:  # degenerate axis: cubes whose closure meets the plane
                out.append(range(zlo - (r == 0), zlo + 1))
            else:
                zhi, r = _locate(hi, x, S)
                out.append(range(zlo, zhi + (r != 0)))
        return out

    def full_ranges(b):
        """Index ranges of cubes entirely inside box b (per axis)."""
        out = []
        for (lo, hi), x in zip(b, X):
            zlo, r = _locate(lo, x, S)
            out.append(range(zlo + (r != 0), _locate(hi, x, S)[0]))
        return out

    # cells bridged by a cube of this size
    enum_cells = set()
    for i, k, g in cells.gaps:
        if S >= g:
            enum_cells.update((i, k))
    # crossing partners of enumerated cells must be enumerated too
    changed = True
    while changed:
        changed = False
        for i, k, *_ in cells.faces:
            if (i in enum_cells) != (k in enum_cells):
                enum_cells.update((i, k))
                changed = True
    face_pairs = [fp for fp in cells.faces if fp[0] not in enum_cells]

    atom_mass = grid.atom_masses(atoms, X, S)
    # filled key by key, not presized as from a dict: the set's order is the
    # order of the float sum below
    special_idx = set(iter(atom_mass))

    count_guard = 0
    for b in [cells.boxes[i] for i in enum_cells] + cells.contacts:
        ranges = overlap_ranges(b)
        count_guard += prod(map(len, ranges))
        if count_guard > budget:
            raise ValueError(
                "distance evaluation budget exceeded; separate conflicting boxes "
                "or reduce k_max"
            )
        special_idx.update(product(*ranges))

    # face strips: pure interior cubes aggregate, impure ends become special
    strips = []  # (i, k, (ax, z_ax), pure index ranges, pure count, mass, alpha_a, alpha_b)
    for i, k, ax, c, rect in face_pairs:
        a_box, b_box = cells.boxes[i], cells.boxes[k]
        z_ax, rem = _locate(c, X[ax], S)
        if rem == 0:
            continue  # face lies on a cube boundary: no crossing cubes
        # the crossing cube spans [2c - rem, 2c - rem + 2S] in units of 1/(2D)
        qlo2 = 2 * c - rem
        pure_axis = 2 * a_box[ax][0] <= qlo2 and qlo2 + 2 * S <= 2 * b_box[ax][1]
        trans_axes = [j for j in range(d) if j != ax]
        fr_t = [r for j, r in enumerate(full_ranges(rect)) if j != ax]
        ov_t = [r for j, r in enumerate(overlap_ranges(rect)) if j != ax]
        pure_count = prod(map(len, fr_t)) if pure_axis else 0
        # impure crossing cubes: overlap-product minus full-product, built as
        # boundary layers so long strips never get enumerated wholesale

        def add_impure(ranges):
            if prod(map(len, ranges)) > 4000:
                raise ValueError("distance evaluation budget exceeded on a strip")
            for idx_t in product(*ranges):
                idx = list(idx_t)
                idx.insert(ax, z_ax)
                special_idx.add(tuple(idx))

        if not pure_axis:
            add_impure(ov_t)
        else:
            for pos in range(len(trans_axes)):
                # the full range, when not empty, lies inside the overlap range
                ov, fr = ov_t[pos], fr_t[pos]
                bad = [*range(ov.start, fr.start), *range(fr.stop, ov.stop)] if fr else ov
                if bad:
                    add_impure(fr_t[:pos] + [bad] + ov_t[pos + 1:])
        if pure_count:
            alpha_a = (S / D) ** (d - 1) * (rem / (2 * D))
            alpha_b = (S / D) ** (d - 1) * ((2 * S - rem) / (2 * D))
            mass = [cells.fvals[i][j] * alpha_a + cells.fvals[k][j] * alpha_b for j in range(d)]
            pure = fr_t[:ax] + [range(z_ax, z_ax + 1)] + fr_t[ax:]
            strips.append((i, k, (ax, z_ax), pure, pure_count, mass, alpha_a, alpha_b))

    # uniform exact pass over the special cubes
    masses, covered = grid.cube_masses(X, S, list(special_idx), atom_mass,
                                       cells.fboxes, cells.fvals)
    strip_covered = [0.0] * len(cells.boxes)
    total = 0.0
    for mass in masses:
        total += sqrt(sum(map(mul, mass, mass)))

    # strip aggregation, excluding strip cubes that are special: a strip's
    # cubes all have index z_ax on its axis, so only the special cubes on
    # that plane are tested
    on_plane = {}
    if strips:
        for idx in special_idx:
            for plane in enumerate(idx):
                on_plane.setdefault(plane, []).append(idx)
    for i, k, plane, pure, pure_count, mass, alpha_a, alpha_b in strips:
        inside_special = sum(
            1 for idx in on_plane.get(plane, ()) if all(z in r for z, r in zip(idx, pure)))
        count = pure_count - inside_special
        if count < 0:
            raise AssertionError("strip accounting underflow")
        total += count * sqrt(sum(map(mul, mass, mass)))
        strip_covered[i] += count * alpha_a
        strip_covered[k] += count * alpha_b

    # single-owner bulk for everything else
    for ci, (vnorm, volume) in enumerate(cells.bulk):
        if ci in enum_cells:
            continue
        rest = volume - covered[ci] - strip_covered[ci]
        if rest > 0:
            total += vnorm * rest
    # enumerated cells: every overlapping cube is special, nothing left
    return total


def _difference(mu: VectorMeasure, nu: VectorMeasure):
    """Signed difference mu - nu as merged atoms plus disjoint density cells.

    The density boxes of both measures are split on the joint arrangement
    grid, values cancelled cell-wise, zero cells dropped and equal-valued
    face-neighbours re-merged.  Identical measures reduce to nothing, and
    per-cube masses of the result are exactly those of mu - nu.
    """
    d = mu.d
    atoms = {}
    for src, sign in ((mu, 1), (nu, -1)):
        for p, w in src.atoms:
            acc = atoms.setdefault(p, [Fraction(0)] * d)
            for j in range(d):
                acc[j] = acc[j] + sign * w[j]
    atoms = tuple((p, tuple(w)) for p, w in sorted(atoms.items()) if any(c != 0 for c in w))

    boxes = [(b, v, 1) for b, v in mu.densities] + [(b, v, -1) for b, v in nu.densities]
    if not boxes:
        return atoms, ()
    cuts = []
    for j in range(d):
        vals = set()
        for b, _, _ in boxes:
            vals.add(b[j][0])
            vals.add(b[j][1])
        cuts.append(sorted(vals))
    cells = []
    for idx in product(*(range(len(c) - 1) for c in cuts)):
        cell = tuple((cuts[j][idx[j]], cuts[j][idx[j] + 1]) for j in range(d))
        mid = [(lo + hi) / 2 for lo, hi in cell]
        val = [Fraction(0)] * d
        hit = False
        for b, v, sign in boxes:
            if all(lo <= c < hi for c, (lo, hi) in zip(mid, b)):
                hit = True
                for j in range(d):
                    val[j] = val[j] + sign * v[j]
        if hit and any(c != 0 for c in val):
            cells.append([cell, tuple(val)])
    # coalesce equal-valued cells sharing a full face, axis by axis
    for axis in range(d):
        merged = True
        while merged:
            merged = False
            for i in range(len(cells)):
                for k in range(i + 1, len(cells)):
                    a, va = cells[i]
                    b, vb = cells[k]
                    if va != vb:
                        continue
                    if all(a[j] == b[j] for j in range(d) if j != axis):
                        if a[axis][1] == b[axis][0]:
                            lo, hi = a[axis][0], b[axis][1]
                        elif b[axis][1] == a[axis][0]:
                            lo, hi = b[axis][0], a[axis][1]
                        else:
                            continue
                        cells[i] = [
                            tuple(
                                (lo, hi) if j == axis else a[j] for j in range(d)
                            ),
                            va,
                        ]
                        del cells[k]
                        merged = True
                        break
                if merged:
                    break
    return atoms, tuple((c, v) for c, v in cells)


def _prepare(mu: VectorMeasure, nu: VectorMeasure, opts: DistanceOptions):
    """The evaluation grid of ``opts`` for mu - nu, and the atoms and cells of
    mu - nu in the integer form of that grid, as ``_level_sum`` takes them."""
    atoms, cells = _difference(mu, nu)
    grid = CubeGrid(mu.d, opts, [c for p, _ in atoms for c in p]
                    + [c for b, _ in cells for iv in b for c in iv])
    atoms = (grid.columns([p for p, _ in atoms]), [[float(c) for c in w] for _, w in atoms])
    cells = _Cells([(tuple((grid.scale(lo), grid.scale(hi)) for lo, hi in b), v)
                    for b, v in cells], grid.D)
    return grid, atoms, cells


def distance(mu: VectorMeasure, nu: VectorMeasure, opts: DistanceOptions = None) -> DistanceBracket:
    """Bracket the dyadic-cube distance between two vector measures.

    lower = max over the deterministic evaluation grid of the truncated
    series; upper = lower + 2^{-k_max} (TV(mu) + TV(nu)), the exact bound on
    the discarded tail.  The continuum (x, lam) supremum is represented by the
    documented grid (piecewise-constant dependence on x makes a useful
    Lipschitz modulus impossible for atomic measures).

    The grid points are refined best-first: a level sums ||h(Q)|| over a
    partition of space, so it is at most tv = TV(mu) + TV(nu), and a point
    whose levels 0..k-1 sum to g ends at most at g + tv (2^{1-k} - 2^{-k_max}).
    The point with the largest such bound gets its next level, until that
    bound is below the best complete sum; the points left unfinished provably
    lie below it.  Each point's sum is still taken level by level, in order,
    so the bracket, and ``best_point`` (the first maximum in grid order), are
    those of summing every level of every point.
    """
    if mu.d != nu.d:
        raise ValueError("dimension mismatch")
    opts = opts or DistanceOptions()
    if not (mu.atoms or mu.densities or nu.atoms or nu.densities):
        return DistanceBracket(0.0, 0.0, "empty", opts.k_max)
    grid, atoms, cells = _prepare(mu, nu, opts)
    tv = mu.total_variation() + nu.total_variation()
    K = opts.k_max
    # (-bound on the point's final sum, grid index, sum of its levels < k, k);
    # equal bounds pop in grid order
    heap = [(-tv * (2 - 2.0**-K), i, 0.0, 0) for i in range(len(grid.points))]
    best, best_i = 0.0, None
    # the relative margin covers the rounding of the float sums against tv
    while heap and -heap[0][0] * (1 + 1e-6) >= best:
        _, i, g, k = heapq.heappop(heap)
        X, sides = grid.levels(*grid.points[i])
        g += _level_sum(atoms, cells, X, sides[k], grid, opts.cube_budget) / 2**k
        if k < K:
            heapq.heappush(heap, (-(g + tv * (2.0**-k - 2.0**-K)), i, g, k + 1))
        elif g > best or 0 < g == best and i < best_i:
            best, best_i = g, i
    best_pt = None if best_i is None else grid.points[best_i]
    tail = tv / 2**K
    desc = f"lambdas={[str(l) for l in opts.lambdas]}, shifts={[str(s) for s in opts.shifts]}"
    return DistanceBracket(best, best + tail, desc, K, best_pt)


# ---------------------------------------------------------------------------
# serialization


def _enc(v):
    if isinstance(v, Fraction):
        return str(v)
    return float(v)


def to_json(nu: VectorMeasure) -> str:
    return json.dumps(
        {
            "d": nu.d,
            "atoms": [
                {"point": [_enc(c) for c in p], "weight": [_enc(c) for c in w]}
                for p, w in nu.atoms
            ],
            "densities": [
                {
                    "box": [[_enc(lo), _enc(hi)] for lo, hi in b],
                    "value": [_enc(c) for c in v],
                }
                for b, v in nu.densities
            ],
        },
        sort_keys=True,
    )


def _dec(v):
    """A JSON value: a string as its Fraction, a number (an int, or the
    Fraction ``from_json`` reads) as it is, except that a boolean, which
    Python would take for 1 or 0, raises ValueError."""
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, bool):
        raise ValueError(f"boolean {json.dumps(v)} is not a number")
    return v


def _no_constant(name):
    raise ValueError(f"non-finite number {name}")


def from_json(text) -> VectorMeasure:
    """The measure of ``to_json``'s text.  A JSON number with a fraction or
    an exponent is read as the exact Fraction of the decimal written (``0.3``
    is 3/10, as in a stream file), and ``Infinity`` or ``NaN`` raises
    ValueError."""
    obj = json.loads(text, parse_float=Fraction, parse_constant=_no_constant)
    atoms = tuple(
        (tuple(_dec(c) for c in a["point"]), tuple(_dec(c) for c in a["weight"]))
        for a in obj["atoms"]
    )
    densities = tuple(
        (
            tuple((_dec(lo), _dec(hi)) for lo, hi in dd["box"]),
            tuple(_dec(c) for c in dd["value"]),
        )
        for dd in obj["densities"]
    )
    return VectorMeasure(d=obj["d"], atoms=atoms, densities=densities)
