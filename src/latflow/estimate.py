"""Monte Carlo estimation: the elementary rate function, the flow constant
and tail probabilities; plus the convex min-distance feasibility solver.

The solver is one-sided by design: it certifies "holds" with an explicit
admissible stream whose distance upper bound clears epsilon, and otherwise
reports "unknown".  The success count therefore never overstates the event
probability and I_hat is an upper estimate of the decay rate.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .capacities import CapacityDistribution, EdgeHasher, derive_seed, sample_numerators
from .geometry import EdgeId, box_volume, cube_box, unit_cube
from .measure import CubeGrid, DistanceOptions, VectorMeasure
from .stream import Stream


Z95 = 1.959963984540054  # the two-sided 95% quantile of the standard normal
# a rate trial's solver stops once this many evaluations in a row have not
# improved its best value
STALL_EVALUATIONS = 15
# at most this many rounds of alternating projection (node law, then
# capacity box) bring its best iterate close to admissible before the exact
# polish
SETTLE_ROUNDS = 50


def wilson_interval(successes, trials):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    z2 = Z95 * Z95
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = Z95 * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


@dataclass
class RateEstimate:
    n: int
    eps: float
    s: float
    v: tuple
    trials: int
    successes: int
    p_hat: float
    ci_lo: float
    ci_hi: float
    i_hat: float
    i_hat_bound: float
    seed: int

    @classmethod
    def from_counts(cls, n, eps, s, v, trials, successes, seed, d=None):
        d = d or len(v)
        p = successes / trials
        lo, hi = wilson_interval(successes, trials)
        # -log of a probability, as abs: 0.0 rather than -0.0 at 1
        i_hat = float("inf") if p == 0 else abs(math.log(p)) / n**d
        i_hat_bound = float("inf") if hi == 0 else abs(math.log(hi)) / n**d
        return cls(n, float(eps), float(s), tuple(float(c) for c in v), trials,
                   successes, p, lo, hi, i_hat, i_hat_bound, seed)

    @property
    def ci_half_width(self):
        return (self.ci_hi - self.ci_lo) / 2


def rate_upper_bound(dist: CapacityDistribution, vec):
    """Analytic control: I(v) <= -d log G([||v||_inf, M])."""
    d = len(vec)
    a = max(abs(Fraction(c)) for c in vec)
    mass = dist.tail_mass(a)
    if mass == 0:
        return float("inf")
    return -d * math.log(float(mass))


# ---------------------------------------------------------------------------
# cube stream space and precompiled distance tables
#
# numpy is imported inside each function of the rate solver, not at module
# level: every other subcommand runs in pure Python and so never loads it.


class CubeSpace:
    """Edges and node-law structure of the unit cube C at scale n (S_n(C)):
    edges with left endpoint in C, node law at vertices whose backward
    neighbours all stay in C.

    ``B`` is the integer node-law incidence (interior vertices x edges):
    +1 on the edges leaving a vertex, -1 on those entering it."""

    def __init__(self, d, n):
        from itertools import product

        import numpy as np

        self.d, self.n = d, n
        lo, hi = cube_box(d, n)
        verts = list(product(range(lo, hi), repeat=d))
        vert_set = set(verts)
        self.edges = []
        for coords in sorted(verts):
            for ax in range(d):
                self.edges.append(EdgeId(coords, ax))
        edge_index = {e: i for i, e in enumerate(self.edges)}

        def backward_ok(coords):
            for j in range(d):
                y = list(coords)
                y[j] -= 1
                if tuple(y) not in vert_set:
                    return False
            return True

        interior = [coords for coords in sorted(verts) if backward_ok(coords)]
        self.B = np.zeros((len(interior), len(self.edges)), dtype=np.int64)
        for r, x in enumerate(interior):
            for ax in range(d):
                y = list(x)
                y[ax] -= 1
                for e, sign in ((EdgeId(x, ax), 1), (EdgeId(tuple(y), ax), -1)):
                    i = edge_index.get(e)
                    if i is not None:
                        self.B[r, i] += sign


def _cube_cells(space: CubeSpace, target: VectorMeasure, opts: DistanceOptions):
    """The cube assignments of the space's edge midpoints against a fixed
    target measure, over every (shift, lambda, level) of the grid.

    A block is one (grid point, level); a point's blocks are consecutive, by
    level.  Returns ``(slot_of, b_all, block_point, block_weight,
    block_slots, const_point)``: ``slot_of[b, i]`` is the slot (cube) that
    edge i's midpoint falls in within block b, slots numbered across all
    blocks in block order, ``block_slots[b]`` of them in block b; ``b_all``
    (axes x slots) holds the target mass per slot; ``const_point`` the
    weighted target mass no edge reaches, per point.  The grid
    and truncation match ``measure.distance`` exactly (the same integer cube
    kernel)."""
    import numpy as np

    d, n = space.d, space.n
    mids = [e.midpoint(n) for e in space.edges]
    grid = CubeGrid(d, opts, [c for p in mids for c in p]
                    + [c for p, _ in target.atoms for c in p])
    mids = grid.columns(mids)
    atoms = (grid.columns([p for p, _ in target.atoms]),
             [[float(c) for c in w] for _, w in target.atoms])
    fboxes = [tuple((float(lo), float(hi)) for lo, hi in b) for b, _ in target.densities]
    fvals = [[float(c) for c in v] for _, v in target.densities]
    # (|value|, volume) of each density cell
    bulk = [(math.sqrt(sum(float(c) ** 2 for c in v)), float(box_volume(b)))
            for b, v in target.densities]
    ne = len(space.edges)
    slot_rows = []
    b_rows = []
    block_point, block_weight, block_slots = [], [], []
    const_point = np.zeros(len(grid.points))
    base = 0
    for pid, (xs, lam) in enumerate(grid.points):
        X, sides = grid.levels(xs, lam)
        for k, S in enumerate(sides):
            idx_of = {}
            slots = np.fromiter((idx_of.setdefault(key, len(idx_of))
                                 for key in grid.keys(mids, X, S)), dtype=np.int64, count=ne)
            nb = len(idx_of)
            atom_mass = grid.atom_masses(atoms, X, S)
            masses, covered = grid.cube_masses(X, S, list(idx_of), atom_mass, fboxes, fvals)
            b = np.array(masses).reshape(nb, d)
            const = 0.0
            for key, acc in atom_mass.items():
                if key not in idx_of:
                    const += float(np.linalg.norm(acc))
            for (vnorm, volume), cov in zip(bulk, covered):
                const += vnorm * max(volume - cov, 0.0)
            slot_rows.append(slots + base)
            b_rows.append(b)
            const_point[pid] += const / 2**k
            block_point.append(pid)
            block_weight.append(1.0 / 2**k)
            block_slots.append(nb)
            base += nb
    return (np.vstack(slot_rows), np.vstack(b_rows).T.copy(),
            np.array(block_point, dtype=np.int64), np.array(block_weight),
            np.array(block_slots, dtype=np.int64), const_point)


def _distinct_single_cells(b_all, axes, slot_weight, one_slot, one_edge):
    """The distinct (edge, b, fixed, tails, weight) tuples of the single-edge
    slots ``one_slot`` (edge ``one_edge[i]`` alone in slot ``one_slot[i]``),
    told apart by the bits of their floats, as five arrays over the
    distinct tuples; and each slot's tuple index.

    The dense squared norm is (sq_0 + sq_1) + sq_2 ..., sq_a = r * r on the
    edge's axis a and b_j^2 on the others.  Here it is (r * r + fixed) +
    tail_1 + ... + tail_{d-2}: fixed is the first other axis when a = 0,
    else the axes before a summed in order; the tails are the remaining axes
    in order, padded with zeros, which leave a sum of squares unchanged."""
    import numpy as np

    d = len(b_all)
    one_axis = axes[one_edge]
    one_b = b_all[one_axis, one_slot]
    sq = b_all[:, one_slot] ** 2
    fixed = np.zeros(len(one_slot))
    tail = np.zeros((max(d - 2, 0), len(one_slot)))
    for a in range(d):
        mask = one_axis == a
        for j in (range(a) if a else range(1, min(d, 2))):
            fixed[mask] += sq[j, mask]
        for row, j in enumerate(range(max(a + 1, 2), d)):
            tail[row, mask] = sq[j, mask]
    weight = slot_weight[one_slot]
    keys = [one_edge] + [c.view(np.int64) for c in (one_b, fixed, *tail, weight)]
    order = np.lexsort(keys)
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for k in keys:
        ks = k[order]
        new[1:] |= ks[1:] != ks[:-1]
    rep = order[new]
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return one_edge[rep], one_b[rep], fixed[rep], tail[:, rep], weight[rep], group


class CubeDistanceTables:
    """The truncated distance between mu_n(s) and a fixed target measure at
    every grid point, for any edge vector s of the space, over the cube
    cells of ``_cube_cells``.  Values agree with the bracket's lower + tail
    of ``measure.distance``.  Nothing is written after ``__init__``, so one
    object serves every trial of a run.

    Most slots hold exactly one edge midpoint (93-96% of them at d=2, n=3..6
    and at d=3, n=2).  There the residual is ``s_e * scale - b`` on the
    edge's axis and ``-b`` on the others, with the squares of the other axes
    fixed when the tables are built.  Such a slot's weighted norm depends
    only on (edge, b, fixed squares, weight), and the target repeats itself
    over shifts and levels, so the single-edge slots share few distinct
    tuples (3446 for 23896 slots at d=2, n=6): each is evaluated once per
    call.  The other slots add their edges with a bincount.

    Each point's slot values are then laid out down the rows of a
    (rank within point, point) array, padded with +0.0, and summed over the
    rows: numpy adds those one row after another, in slot order, as one
    bincount over the slots would.  Every norm is at least +0.0, so the
    padding changes no sum.  Every float is computed as by one dense
    bincount over all (block, edge) cells, bit for bit: a slot's edges add
    to 0.0 in block order (a single edge's -0.0 only shows in the residual's
    sign, which squaring drops), and its squared norm sums the axes in the
    order 0..d-1.
    """

    def __init__(self, space: CubeSpace, target: VectorMeasure, opts: DistanceOptions):
        import numpy as np

        self.space = space
        self.opts = opts
        self.target = target
        d, ne = space.d, len(space.edges)
        self.ne = ne
        self.scale = 1.0 / space.n**d
        (slot_of, b_all, block_point, block_weight, block_slots,
         self.const_point) = _cube_cells(space, target, opts)
        # The index arrays read on every call are intp: numpy would cast
        # int32 ones to a fresh slot-length array per call.
        axes = np.array([e.axis for e in space.edges], dtype=np.intp)
        flat = slot_of.ravel()
        edge = np.tile(np.arange(ne, dtype=np.intp), len(slot_of))
        nslots = b_all.shape[1]
        single = np.bincount(flat, minlength=nslots) == 1
        slot_weight = np.repeat(block_weight, block_slots)

        # single-edge slots, and where each slot's value sits in [distinct
        # values, many-slot norms, 0.0]
        one = single[flat]
        one_slot = flat[one]
        (self.one_edge, self.one_b, self.one_fixed, self.one_tail, self.one_weight,
         group) = _distinct_single_cells(b_all, axes, slot_weight, one_slot, edge[one])
        src = np.empty(nslots, dtype=np.intp)
        src[one_slot] = group

        # the other slots: one (axis, slot) bincount over their entries, in
        # block order
        many_slot = np.flatnonzero(~single)
        pos = np.zeros(nslots, dtype=np.intp)
        pos[many_slot] = np.arange(len(many_slot))
        self.many_edge = edge[~one]
        self.many_cell = axes[self.many_edge] * len(many_slot) + pos[flat[~one]]
        self.many_b = b_all[:, many_slot]
        self.many_weight = slot_weight[many_slot]
        src[many_slot] = len(self.one_edge) + np.arange(len(many_slot))

        # The gradient's cells: point p owns the blocks point_block[p] to
        # point_block[p + 1] and the slots point_slot[p] to point_slot[p + 1];
        # cell_local[b, i] is edge i's axis * (the point's slot count) + its
        # slot within the point.
        npoints = len(self.const_point)
        self.point_block = np.searchsorted(block_point, np.arange(npoints + 1))
        self.point_slot = np.concatenate(([0], np.cumsum(block_slots)))[self.point_block]
        first = self.point_slot[block_point]
        width = self.point_slot[block_point + 1] - first
        self.cell_local = (axes * width[:, None] + slot_of - first[:, None]).astype(np.int32)
        self.b_all = b_all
        self.block_weight = block_weight

        # layout[r, p]: the source of point p's r-th slot, or the 0.0 past
        # its end.  At least two columns: numpy sums a single column
        # pairwise, not row by row.
        counts = np.diff(self.point_slot)
        slot_point = np.repeat(np.arange(npoints), counts)
        self.layout = np.full((counts.max(), max(npoints, 2)), len(self.one_edge) + len(many_slot),
                              dtype=np.intp)
        self.layout[np.arange(nslots) - self.point_slot[slot_point], slot_point] = src

    def _point_values(self, sv):
        """Per-grid-point values for the scaled edge vector sv."""
        import numpy as np

        nu, nm = len(self.one_edge), len(self.many_weight)
        values = np.empty(nu + nm + 1)
        # in place: a fresh temporary per step costs about as much as the
        # step itself
        sq = values[:nu]
        sv.take(self.one_edge, out=sq)
        sq -= self.one_b
        sq *= sq
        sq += self.one_fixed
        for tail in self.one_tail:
            sq += tail
        np.sqrt(sq, out=sq)
        sq *= self.one_weight
        mass = np.bincount(self.many_cell, weights=sv.take(self.many_edge),
                           minlength=self.many_b.size)
        diff = mass.reshape(self.many_b.shape) - self.many_b
        diff *= diff
        np.sqrt(diff.sum(axis=0), out=values[nu:-1])
        values[nu:-1] *= self.many_weight
        values[-1] = 0.0
        per_point = values.take(self.layout).sum(axis=0)
        return per_point[:len(self.const_point)] + self.const_point

    def value_and_grad(self, s_vec):
        """The largest grid-point value, and its gradient in s from that
        point's cells alone."""
        import numpy as np

        sv = s_vec * self.scale
        vals = self._point_values(sv)
        pid = int(np.argmax(vals))
        b0, b1 = self.point_block[pid], self.point_block[pid + 1]
        b = self.b_all[:, self.point_slot[pid]:self.point_slot[pid + 1]]
        cells = self.cell_local[b0:b1]
        mass = np.bincount(cells.ravel(), weights=np.tile(sv, b1 - b0), minlength=b.size)
        diff = mass.reshape(b.shape) - b
        norms = np.sqrt((diff * diff).sum(axis=0))
        coeff = diff / np.where(norms > 0, norms, 1.0)
        terms = coeff.ravel()[cells] * (self.scale * self.block_weight[b0:b1])[:, None]
        return float(vals[pid]), terms.sum(axis=0)

    def value(self, s_vec):
        import numpy as np

        return float(np.max(self._point_values(s_vec * self.scale)))

    def certified_upper(self, f):
        """Grid value of the exact stream plus the truncation tail.  It agrees
        with measure.distance(vector_measure(f), target).upper on this grid
        to within rounding, not bit for bit: each sums square roots of float
        masses in its own order.  Neither value carries a rounding margin, so
        neither is a proven bound of the grid quantity."""
        import numpy as np

        s = np.zeros(self.ne)
        for i, e in enumerate(self.space.edges):
            s[i] = float(f.get(e))
        tv_stream = float(sum(abs(v) for v in f.values.values())) * self.scale
        return self.value(s) + (tv_stream + self.target.total_variation()) / 2**self.opts.k_max


@dataclass
class MinDistanceResult:
    value: float  # distance upper bound of the returned stream
    stream: Stream
    status: str  # "holds" or "unknown"
    iterations: int  # value_and_grad evaluations made


def _exact_div_project(B, s_vals):
    """Exact node-law projection s - B^T (B B^T)^+ B s of rational edge
    values, for the integer incidence B of the active edges.

    The projection is unique, so any solution of the Gram system gives the
    same Fractions.  It is solved on integers: the edge values are scaled by
    the lcm D of their denominators, and only the back substitution and the
    result are Fractions."""
    import numpy as np

    rows = [[(int(i), int(B[a, i])) for i in np.flatnonzero(B[a])] for a in range(len(B))]
    touched = {i for row in rows for i, _ in row}
    D = math.lcm(*(s_vals[i].denominator for i in touched))
    scaled = {i: s_vals[i].numerator * (D // s_vals[i].denominator) for i in touched}
    y = _solve_gram((B @ B.T).tolist(), [sum(c * scaled[i] for i, c in row) for row in rows])
    z = {}
    for row, ya in zip(rows, y):
        for i, c in row:
            z[i] = z.get(i, 0) + c * ya
    out = list(s_vals)
    for i, zi in z.items():
        out[i] = Fraction(scaled[i] * zi.denominator - zi.numerator, zi.denominator * D)
    return out


def _solve_gram(G, rhs):
    """A solution y (Fractions) of G y = rhs, for a symmetric positive
    semidefinite integer matrix G (a list of rows) and an integer rhs in its
    range.

    Fraction-free elimination on sparse rows: a row is cleared below a
    pivot by cross-multiplying and is then divided by the gcd of its
    entries, so the banded Gram rows stay short and their entries small.
    Columns without a pivot (G singular) get y = 0; the rows left empty
    then have rhs 0, since the system is consistent."""
    m = len(G)
    rows = [({j: g for j, g in enumerate(row) if g}, r) for row, r in zip(G, rhs)]
    live = list(range(m))
    pivots = []
    for c in range(m):
        piv = next((i for i in live if c in rows[i][0]), None)
        if piv is None:
            continue
        live.remove(piv)
        prow, prhs = rows[piv]
        p = prow[c]
        for i in live:
            row, r = rows[i]
            q = row.get(c)
            if q is None:
                continue
            g = math.gcd(p, q)
            a, b = p // g, q // g
            new = {j: a * v for j, v in row.items()}
            for j, v in prow.items():
                new[j] = new.get(j, 0) - b * v
            new = {j: v for j, v in new.items() if v}
            r = a * r - b * prhs
            h = math.gcd(math.gcd(*new.values()), r) if new else 1
            rows[i] = ({j: v // h for j, v in new.items()}, r // h)
        pivots.append((c, prow, prhs))
    y = [0] * m
    for c, prow, prhs in reversed(pivots):
        y[c] = Fraction(prhs - sum(v * y[j] for j, v in prow.items() if j != c), prow[c])
    return y


def min_distance(tables: CubeDistanceTables, caps, eps, iters=140) -> MinDistanceResult:
    """Minimize the grid-evaluated distance upper bound between mu_n(f) and
    the tables' target over admissible streams in their space, for the
    capacity ``caps[i]`` of each edge ``tables.space.edges[i]``.

    Projected subgradient descent: the warm start and every step are
    projected onto the node law (graph-Laplacian projection) and clipped to
    the capacity box, so every value compared is that of such an iterate.
    The loop makes at most ``iters`` evaluations and ends sooner once the
    best value has not improved for ``STALL_EVALUATIONS`` of them.  The best
    iterate is settled by up to ``SETTLE_ROUNDS`` alternating projections and
    polished to exact rational admissibility, so a "holds" verdict is
    certified by an explicit member of S_n(C).  The tables are only read,
    so one object serves every call."""
    import numpy as np

    space = tables.space
    d, n = space.d, space.n
    ne = len(space.edges)
    if len(caps) != ne:
        raise ValueError(f"need one capacity per edge of the tables' space: {len(caps)} for {ne}")
    box = np.array([float(c) for c in caps])
    active = box > 0
    if not active.any():
        f = Stream(d, n)
        val = tables.certified_upper(f)
        return MinDistanceResult(val, f, "holds" if val <= float(eps) else "unknown", 0)

    B_active = space.B * active
    B = B_active.astype(float)
    BBt = B @ B.T
    P = np.linalg.pinv(BBt, rcond=1e-12)

    def proj_div(s):
        return s - B.T @ (P @ (B @ s))

    # warm start: invert the target where possible (constant value on density
    # support, exact edge scalars for atoms sitting on edge midpoints)
    s = np.zeros(ne)
    if tables.target.densities:
        for cell, v in tables.target.densities:
            for i, e in enumerate(space.edges):
                s[i] += float(v[e.axis])
    if tables.target.atoms:
        mid_index = {e.midpoint(n): i for i, e in enumerate(space.edges)}
        for p, w in tables.target.atoms:
            i = mid_index.get(p)
            if i is not None:
                s[i] += float(w[space.edges[i].axis]) * n**d
    s = np.clip(s, -box, box) * active
    s = np.clip(proj_div(s), -box, box) * active
    best_val = float("inf")
    best_s = s
    evaluations = stalled = 0
    for k in range(iters):
        val, g = tables.value_and_grad(s)
        evaluations += 1
        if val < best_val:
            best_val, best_s, stalled = val, s, 0
        else:
            stalled += 1
            if stalled == STALL_EVALUATIONS:
                break
        # step along the subgradient's projection onto the node law
        h = proj_div(g * active)
        hn2 = float((h * h).sum())
        if hn2 < 1e-30:
            break
        s = s - 0.5 / math.sqrt((k + 1) * hn2) * h
        s = np.clip(proj_div(s * active), -box, box) * active
    # a clipped iterate is off the node law, and the polish below would
    # shrink the whole of its projection back into the box: alternating
    # projections bring it close to admissible first
    s = _settle(best_s, lambda s: np.clip(proj_div(s), -box, box) * active)

    # exact polish: rational projection then uniform shrink into the box
    s = proj_div(s * active)
    s_frac = [Fraction(x).limit_denominator(10**9) if active[i] else Fraction(0)
              for i, x in enumerate(s)]
    s_frac = _exact_div_project(B_active, s_frac)
    ratio = Fraction(1)
    for i, x in enumerate(s_frac):
        if x == 0:
            continue
        c = Fraction(caps[i])
        if c == 0:
            ratio = Fraction(0)
            break
        ratio = min(ratio, c / abs(x))
    s_final = [x * ratio for x in s_frac]
    f = Stream(d, n)
    for i, x in enumerate(s_final):
        if x != 0:
            f.values[space.edges[i]] = x
    val = tables.certified_upper(f)
    status = "holds" if val <= float(eps) else "unknown"
    return MinDistanceResult(val, f, status, evaluations)


def _settle(s, step):
    """``step`` applied to the array s up to ``SETTLE_ROUNDS`` times.  The
    rounds end at the first that returns its input bit for bit: ``step`` is
    a function of its input alone, so every later round would return it too."""
    for _ in range(SETTLE_ROUNDS):
        nxt = step(s)
        if nxt.tobytes() == s.tobytes():
            break
        s = nxt
    return s


def constant_target(d, s, v) -> VectorMeasure:
    """The measure s v 1_cube L^d on the unit cube."""
    vec = [Fraction(s) * Fraction(c) for c in v]
    return VectorMeasure.from_density(unit_cube(d), vec)


def _run_trials(fn, trials):
    """The trial loop: ``fn(trial)`` for each trial index, in order."""
    return [fn(i) for i in range(trials)]


def estimate_rate(s, v, eps_list, n, trials, dist: CapacityDistribution, seed, d=None):
    """Monte Carlo estimates of the elementary rate function at s*v, one
    ``RateEstimate`` per epsilon of ``eps_list``.

    Per trial: sample capacities on the cube, run the feasibility solver and
    count "holds".  The same per-trial solver value is compared against every
    epsilon, so the counts are nested by construction.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    d = d or len(v)
    target = constant_target(d, s, v)
    if s == 0:
        values = [0.0] * trials  # the zero stream certifies the event at any eps
    else:
        # built once: every trial reads the same tables
        tables = CubeDistanceTables(CubeSpace(d, n), target, DistanceOptions())
        hasher = EdgeHasher(tables.space.edges)

        def one(trial):
            nums, D = sample_numerators(hasher, dist, derive_seed(seed, trial))
            return min_distance(tables, [x / D for x in nums], eps_list[-1]).value

        values = _run_trials(one, trials)
    out = []
    for e in eps_list:
        successes = sum(1 for val in values if val <= float(e))
        out.append(RateEstimate.from_counts(n, e, s, v, trials, successes, seed, d=d))
    return out


def straight_base(d, n, axis):
    """Base hyperrectangle [0,n)^{d-1} x {0} orthogonal to e_axis (scale 1)."""
    zero = Fraction(0)
    return tuple(
        (zero, zero) if j == axis else (zero, Fraction(n)) for j in range(d)
    )


@dataclass
class FlowConstantPoint:
    n: int
    h: int
    trials: int
    ratios: tuple
    mean: float
    ci_lo: float
    ci_hi: float

    @classmethod
    def from_ratios(cls, n, h, ratios):
        vals = [float(r) for r in ratios]
        m = sum(vals) / len(vals)
        if len(vals) > 1:
            sd = math.sqrt(sum((x - m) ** 2 for x in vals) / (len(vals) - 1))
        else:
            sd = 0.0
        half = Z95 * sd / math.sqrt(len(vals))
        return cls(n, h, len(vals), tuple(ratios), m, m - half, m + half)


def _network_sampler(network, dist: CapacityDistribution):
    """seed -> the exact max-flow value of ``network`` for one capacity
    sample.  The hasher of the network's edges is built once, when the
    sampler is made; a call samples those edges only, as integer numerators
    over one denominator, and solves them."""
    hasher = EdgeHasher(network.edges)
    return lambda seed: network.sample_value(*sample_numerators(hasher, dist, seed))


def straight_tau_sampler(d, side, h, axis, dist: CapacityDistribution):
    """seed -> the exact tau(A, h) for one capacity sample on the two-sided
    straight cylinder over A = straight_base(d, side, axis), at scale 1; the
    network is built once, when the sampler is made."""
    from .maxflow import tau_network

    return _network_sampler(tau_network(straight_base(d, side, axis), h), dist)


def estimate_flow_constant(dist: CapacityDistribution, axis, n_list, h_of_n, trials, seed, d=2):
    """Per-n estimates of tau(nA, h(n)) / (n^{d-1} H^{d-1}(A)) for the straight
    unit hyperrectangle A: each ratio is exact until the mean rounds it."""
    out = []
    for n in n_list:
        h = h_of_n(n)
        tau = straight_tau_sampler(d, n, h, axis, dist)

        def one(trial):
            return Fraction(tau(derive_seed(seed, n, trial)), n ** (d - 1))

        out.append(FlowConstantPoint.from_ratios(n, h, _run_trials(one, trials)))
    return out


def tail_probability(lams, n, trials, dist: CapacityDistribution, seed, L):
    """P(phi_n >= lam n^{d-1}) for every lam of the sequence, estimated over
    independent capacity samples: one (p, (lo, hi), successes) per lam.

    Each trial is solved once, exactly, and its flow value compared against
    every exact threshold lam n^{d-1}, a tie counting as a success, so the
    counts are nested by construction.  One network and one hasher of its
    edges serve every trial; a trial samples the network's edges only."""
    from .maxflow import FlowNetwork

    sample = _network_sampler(FlowNetwork(L.d, L.n, L.omega, L.active_edges, L.gamma1, L.gamma2), dist)
    values = _run_trials(lambda trial: sample(derive_seed(seed, trial)), trials)
    out = []
    for lam in lams:
        threshold = Fraction(lam) * n ** (L.d - 1)  # a float lam as the dyadic it is
        successes = sum(1 for val in values if val >= threshold)
        out.append((successes / trials, wilson_interval(successes, trials), successes))
    return out
