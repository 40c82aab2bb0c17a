"""Vector measures and the shifted dyadic-cube distance.

A VectorMeasure is a finite list of atoms (rational points, R^d weights) plus
piecewise-constant densities on rational axis boxes with pairwise disjoint
interiors.  ``distance`` evaluates

    g(x, lam) = sum_k 2^{-k} sum_Q ||mu(Q+x) - nu(Q+x)||_2

exactly (up to float norm accumulation) on a deterministic (x, lam) grid and
returns a bracket: the lower bound is the grid maximum of the truncated sum,
the upper bound adds the certified truncation tail.  The bracket therefore
encloses the grid-restricted supremum of the untruncated series; the grid
itself is part of the reported result.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

from .geometry import box_volume


def _norm(vec):
    return sqrt(sum(float(c) * float(c) for c in vec))


@dataclass(frozen=True)
class VectorMeasure:
    d: int
    atoms: tuple = ()
    densities: tuple = ()

    def __post_init__(self):
        for b, v in self.densities:
            if len(b) != self.d or len(v) != self.d:
                raise ValueError("density box/value dimension mismatch")
        boxes = [b for b, _ in self.densities]
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if _open_overlap(boxes[i], boxes[j]):
                    raise ValueError("density boxes must have disjoint interiors")

    @classmethod
    def from_density(cls, b, value):
        d = len(b)
        return cls(d=d, densities=((tuple(b), tuple(Fraction(v) for v in value)),))

    def total_variation(self):
        tv = sum(_norm(w) for _, w in self.atoms)
        tv += sum(_norm(v) * float(box_volume(b)) for b, v in self.densities)
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

    def support_bounds(self):
        los = [None] * self.d
        his = [None] * self.d
        for p, _ in self.atoms:
            for j, c in enumerate(p):
                los[j] = c if los[j] is None else min(los[j], c)
                his[j] = c if his[j] is None else max(his[j], c)
        for b, _ in self.densities:
            for j, (lo, hi) in enumerate(b):
                los[j] = lo if los[j] is None else min(los[j], lo)
                his[j] = hi if his[j] is None else max(his[j], hi)
        if any(lo is None for lo in los):
            return None
        return list(zip(los, his))


def _open_overlap(a, b):
    for (alo, ahi), (blo, bhi) in zip(a, b):
        if min(ahi, bhi) <= max(alo, blo):
            return False
    return True


def box_mass(nu: VectorMeasure, b):
    """Exact mass vector of the half-open box: atoms by membership, densities
    by rational intersection volume."""
    total = [Fraction(0)] * nu.d
    for p, w in nu.atoms:
        if all(lo <= c < hi for c, (lo, hi) in zip(p, b)):
            total = [t + wi for t, wi in zip(total, w)]
    for cell, v in nu.densities:
        vol = Fraction(1)
        for (lo, hi), (clo, chi) in zip(b, cell):
            seg = min(hi, chi) - max(lo, clo)
            if seg <= 0:
                vol = Fraction(0)
                break
            vol *= seg
        if vol:
            total = [t + vi * vol for t, vi in zip(total, v)]
    return tuple(total)


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


@dataclass
class DistanceBracket:
    lower: float
    upper: float
    grid: str
    k_max: int
    best_point: tuple = None

    @property
    def gap(self):
        return self.upper - self.lower


@dataclass
class DistanceOptions:
    """Deterministic evaluation grid for the bracket.

    The default is the fixed quarter grid (measure-independent); use
    ``adaptive_options`` for worst-case shifts derived from the atom spacing,
    which sharpen the lower bound considerably for lattice measures.
    """

    k_max: int = 12
    lambdas: tuple = (
        Fraction(1),
        Fraction(5, 4),
        Fraction(3, 2),
        Fraction(7, 4),
    )
    shifts: tuple = (Fraction(0), Fraction(1, 4), Fraction(1, 2))
    cube_budget: int = 2_000_000


def _atom_min_gap(measures):
    gaps = []
    for m in measures:
        coords = {}
        for p, _ in m.atoms:
            for j, c in enumerate(p):
                coords.setdefault(j, set()).add(c)
        for vals in coords.values():
            vs = sorted(vals)
            for a, b in zip(vs, vs[1:]):
                gaps.append(b - a)
    return min(gaps) if gaps else None


def adaptive_options(mu, nu, k_max=12) -> DistanceOptions:
    """Grid enriched with half/quarter atom-spacing shifts and extra scale
    candidates: much sharper lower bounds on atomic measures."""
    base = DistanceOptions(k_max=k_max)
    shifts = set(base.shifts)
    h = _atom_min_gap((mu, nu))
    if h is not None:
        shifts.update({h / 2, h / 4})
    lambdas = tuple(sorted(set(base.lambdas) | {Fraction(9, 8), Fraction(4, 3)}))
    return DistanceOptions(k_max=k_max, lambdas=lambdas, shifts=tuple(sorted(shifts)))


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


def _level_sum(diff, x, s, budget):
    """sum_Q ||h(Q + x)||_2 at cube size s for the signed difference measure.

    Per-cube masses are exact where cubes can mix sources (atom cubes, cubes
    bridging a gap no wider than s, cubes around corner contacts, the impure
    ends of face strips); cubes crossing a conflicting shared face in the
    strip interior all carry the same mass and aggregate analytically; every
    remaining cube meets a single cell and aggregates to |v| * volume.
    """
    atoms, cells = diff
    d = len(x)

    def bucket(p):
        return tuple(
            int(((pc - xc) / s + Fraction(1, 2)).__floor__()) for pc, xc in zip(p, x)
        )

    def cube_interval(j, z):
        return x[j] + s * (z - Fraction(1, 2)), x[j] + s * (z + Fraction(1, 2))

    def overlap_ranges(b):
        """Index ranges of cubes with positive-volume overlap with box b."""
        out = []
        for j, (lo, hi) in enumerate(b):
            zlo = int(((lo - x[j]) / s + Fraction(1, 2)).__floor__())
            t = (hi - x[j]) / s + Fraction(1, 2)
            zhi = int(t.__floor__())
            if t == zhi:
                zhi -= 1
            if lo == hi:  # degenerate axis: cubes whose closure meets the plane
                zlo = int(((lo - x[j]) / s + Fraction(1, 2)).__floor__())
                zhi = zlo
                if (lo - x[j]) / s + Fraction(1, 2) == zlo:
                    zlo -= 1
            out.append(range(zlo, zhi + 1))
        return out

    def full_ranges(b):
        """Index ranges of cubes entirely inside box b (per axis)."""
        out = []
        for j, (lo, hi) in enumerate(b):
            zlo = int(((lo - x[j]) / s + Fraction(1, 2)).__ceil__())
            zhi = int(((hi - x[j]) / s - Fraction(1, 2)).__floor__())
            out.append((zlo, zhi))
        return out

    # classify conflicting pairs
    enum_cells = set()
    face_pairs = []
    contact_boxes = []
    for i in range(len(cells)):
        for k in range(i + 1, len(cells)):
            if cells[i][1] == cells[k][1]:
                continue
            kind = _pair_geometry(cells[i][0], cells[k][0])
            if kind[0] == "gap":
                if s >= kind[1]:
                    enum_cells.add(i)
                    enum_cells.add(k)
            elif kind[0] == "face":
                face_pairs.append((i, k) + kind[1:])
            else:
                contact_boxes.append(kind[1])
    # crossing partners of enumerated cells must be enumerated too
    changed = True
    while changed:
        changed = False
        for i, k, *_ in face_pairs:
            if (i in enum_cells) != (k in enum_cells):
                enum_cells.update((i, k))
                changed = True
    face_pairs = [fp for fp in face_pairs if fp[0] not in enum_cells]

    from itertools import product as iproduct

    special_idx = set()
    atom_mass = {}
    for p, w in atoms:
        idx = bucket(p)
        special_idx.add(idx)
        acc = atom_mass.setdefault(idx, [0.0] * d)
        for j in range(d):
            acc[j] += float(w[j])

    count_guard = 0
    for i in enum_cells:
        ranges = overlap_ranges(cells[i][0])
        n_idx = 1
        for r in ranges:
            n_idx *= len(r)
        count_guard += n_idx
        if count_guard > budget:
            raise ValueError(
                "distance evaluation budget exceeded; separate conflicting boxes "
                "or reduce k_max"
            )
        special_idx.update(iproduct(*ranges))
    for cb in contact_boxes:
        ranges = overlap_ranges(cb)
        n_idx = 1
        for r in ranges:
            n_idx *= len(r)
        count_guard += n_idx
        if count_guard > budget:
            raise ValueError(
                "distance evaluation budget exceeded; separate conflicting boxes "
                "or reduce k_max"
            )
        special_idx.update(iproduct(*ranges))

    # face strips: pure interior cubes aggregate, impure ends become special
    strips = []  # (count, mass vector, covered_i, covered_k, pure-range data)
    for i, k, ax, c, rect in face_pairs:
        a_box, va = cells[i]
        b_box, vb = cells[k]
        if a_box[ax][1] != c:
            a_box, va, b_box, vb, i, k = b_box, vb, a_box, va, k, i
        t = (c - x[ax]) / s + Fraction(1, 2)
        z_ax = int(t.__floor__())
        if t == z_ax:
            continue  # face lies on a cube boundary: no crossing cubes
        qlo, qhi = cube_interval(ax, z_ax)
        pure_axis = a_box[ax][0] <= qlo and qhi <= b_box[ax][1]
        fr = full_ranges(rect)
        ov = overlap_ranges(rect)
        pure_tr = [fr[j] for j in range(d) if j != ax]
        trans_axes = [j for j in range(d) if j != ax]
        pure_count = 1
        for zlo, zhi in pure_tr:
            pure_count *= max(0, zhi - zlo + 1)
        if not pure_axis:
            pure_count = 0
        # impure crossing cubes: overlap-product minus full-product, built as
        # boundary layers so long strips never get enumerated wholesale
        ov_t = [ov[j] for j in trans_axes]
        fr_t = pure_tr

        def add_impure(ranges):
            n_idx = 1
            for r in ranges:
                n_idx *= len(r)
            if n_idx > 4000:
                raise ValueError("distance evaluation budget exceeded on a strip")
            for idx_t in iproduct(*ranges):
                idx = list(idx_t)
                idx.insert(ax, z_ax)
                special_idx.add(tuple(idx))

        if not pure_axis:
            add_impure(ov_t)
        else:
            for pos in range(len(trans_axes)):
                bad = [z for z in ov_t[pos] if not (fr_t[pos][0] <= z <= fr_t[pos][1])]
                if not bad:
                    continue
                earlier = [range(fr_t[q][0], fr_t[q][1] + 1) for q in range(pos)]
                later = [ov_t[q] for q in range(pos + 1, len(trans_axes))]
                add_impure(earlier + [bad] + later)
        if pure_count:
            alpha_a = float(s) ** (d - 1) * float(c - qlo)
            alpha_b = float(s) ** (d - 1) * float(qhi - c)
            mass = [float(va[j]) * alpha_a + float(vb[j]) * alpha_b for j in range(d)]
            strips.append((i, k, z_ax, ax, pure_tr, trans_axes, pure_count, mass,
                           alpha_a, alpha_b))

    def in_strip(idx, strip):
        i, k, z_ax, ax, pure_tr, trans_axes, *_ = strip
        if idx[ax] != z_ax:
            return False
        pos = 0
        for j in trans_axes:
            zlo, zhi = pure_tr[pos]
            if not (zlo <= idx[j] <= zhi):
                return False
            pos += 1
        return True

    # uniform exact pass over the special cubes
    covered = [0.0] * len(cells)
    strip_covered = [0.0] * len(cells)
    total = 0.0
    for idx in special_idx:
        mass = list(atom_mass.get(idx, [0.0] * d))
        bounds = [cube_interval(j, idx[j]) for j in range(d)]
        for ci, (b, v) in enumerate(cells):
            vol = 1.0
            for (ql, qh), (blo, bhi) in zip(bounds, b):
                seg = min(float(qh), float(bhi)) - max(float(ql), float(blo))
                if seg <= 0:
                    vol = 0.0
                    break
                vol *= seg
            if vol > 0:
                covered[ci] += vol
                for j in range(d):
                    mass[j] += float(v[j]) * vol
        total += sqrt(sum(c_ * c_ for c_ in mass))

    # strip aggregation, excluding strip cubes that are special
    for strip in strips:
        i, k, z_ax, ax, pure_tr, trans_axes, pure_count, mass, alpha_a, alpha_b = strip
        inside_special = sum(1 for idx in special_idx if in_strip(idx, strip))
        count = pure_count - inside_special
        if count < 0:
            raise AssertionError("strip accounting underflow")
        total += count * sqrt(sum(c_ * c_ for c_ in mass))
        strip_covered[i] += count * alpha_a
        strip_covered[k] += count * alpha_b

    # single-owner bulk for everything else
    for ci, (b, v) in enumerate(cells):
        if ci in enum_cells:
            continue
        rest = float(box_volume(b)) - covered[ci] - strip_covered[ci]
        if rest > 0:
            total += _norm(v) * rest
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
    from itertools import product as iproduct

    cells = []
    for idx in iproduct(*(range(len(c) - 1) for c in cuts)):
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


def _eval_point(diff, x, lam, opts):
    g = 0.0
    for k in range(opts.k_max + 1):
        s = lam * Fraction(1, 2**k)
        g += _level_sum(diff, x, s, opts.cube_budget) / 2**k
    return g


def distance(mu: VectorMeasure, nu: VectorMeasure, opts: DistanceOptions = None) -> DistanceBracket:
    """Bracket the dyadic-cube distance between two vector measures.

    lower = max over the deterministic evaluation grid of the truncated
    series; upper = lower + 2^{-k_max} (TV(mu) + TV(nu)), the exact bound on
    the discarded tail.  The continuum (x, lam) supremum is represented by the
    documented grid (piecewise-constant dependence on x makes a useful
    Lipschitz modulus impossible for atomic measures).
    """
    if mu.d != nu.d:
        raise ValueError("dimension mismatch")
    if mu.support_bounds() is None and nu.support_bounds() is None:
        opts = opts or DistanceOptions()
        tail = 0.0
        return DistanceBracket(0.0, tail, "empty", opts.k_max)
    opts = opts or DistanceOptions()
    shifts = opts.shifts
    from itertools import product as iproduct

    diff = _difference(mu, nu)
    best = 0.0
    best_pt = None
    for lam in opts.lambdas:
        for xs in iproduct(shifts, repeat=mu.d):
            g = _eval_point(diff, tuple(Fraction(c) for c in xs), Fraction(lam), opts)
            if g > best:
                best = g
                best_pt = (xs, lam)
    tail = (mu.total_variation() + nu.total_variation()) / 2**opts.k_max
    desc = f"lambdas={[str(l) for l in opts.lambdas]}, shifts={[str(s) for s in shifts]}"
    return DistanceBracket(best, best + tail, desc, opts.k_max, best_pt)


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
    if isinstance(v, str):
        return Fraction(v)
    return v


def from_json(text) -> VectorMeasure:
    obj = json.loads(text)
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
