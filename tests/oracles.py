"""Independent brute-force oracles used to freeze expected values.

These deliberately re-derive quantities from the raw definitions (direct
enumeration, vertex-partition min cuts, column counts) instead of reusing the
library's internals.
"""

from fractions import Fraction
from itertools import chain, combinations, product


def dist_inf_to_union(p, boxes):
    """L-infinity distance from the rational point p to the union of the
    closed boxes."""

    def gap(t, lo, hi):
        if t < lo:
            return lo - t
        if t > hi:
            return t - hi
        return Fraction(0)

    return min(max(gap(p[j], lo, hi) for j, (lo, hi) in enumerate(b)) for b in boxes)


def _scan_window(boxes, n, pad=2):
    """Every integer vertex of a padded bounding box of the boxes at scale n,
    in lexicographic order."""
    d = len(boxes[0])
    lo = [min(b[j][0] for b in boxes) for j in range(d)]
    hi = [max(b[j][1] for b in boxes) for j in range(d)]
    return product(*(
        range(int(float(l) * n) - pad - 1, int(float(h) * n) + pad + 2)
        for l, h in zip(lo, hi)
    ))


def _neighbours(v):
    for j in range(len(v)):
        for s in (1, -1):
            w = list(v)
            w[j] += s
            yield tuple(w)


def enumerate_omega(boxes, n):
    """Direct scan for {x in Z^d/n : d_inf(x, Omega) < 1/n}."""
    return {
        v for v in _scan_window(boxes, n)
        if dist_inf_to_union([Fraction(c, n) for c in v], boxes) < Fraction(1, n)
    }


def discretize_by_scan(spec, n):
    """(omega, gamma, gamma1, gamma2, edges) of the domain at scale n, each
    vertex tested by its Fraction distances to the boxes and faces."""
    thr = Fraction(1, n)
    omega = enumerate_omega(spec.boxes, n)
    gamma = {v for v in omega if any(w not in omega for w in _neighbours(v))}
    gamma1, gamma2 = set(), set()
    for v in gamma:
        p = [Fraction(c, n) for c in v]
        near1 = dist_inf_to_union(p, spec.source) < thr
        near2 = dist_inf_to_union(p, spec.sink) < thr
        if near1 and not near2:
            gamma1.add(v)
        if near2 and not near1:
            gamma2.add(v)
    edges = [
        (v, j) for v in sorted(omega) for j in range(spec.d)
        if tuple(c + (k == j) for k, c in enumerate(v)) in omega
    ]
    return omega, gamma, gamma1, gamma2, edges


def box_region_by_scan(boxes, n):
    """Vertices x (lexicographic) with lo <= x/n < hi on every axis of some
    box, tested with Fractions."""
    return [
        v for v in _scan_window(boxes, n)
        if any(all(lo <= Fraction(c, n) < hi for c, (lo, hi) in zip(v, b)) for b in boxes)
    ]


def cylinder_by_scan(base, h, n):
    """(vertices, T, B, T', B') of the straight two-sided cylinder over the
    base at scale n from the definitions, with Fractions: the axis extent
    [c - h, c + h] closed, the base extents half-open; T/B have an edge to
    the outside whose segment meets the shifted base plane c + h (c - h);
    T'/B' split the boundary vertices by the side of the base plane c."""
    axis = next(j for j, (lo, hi) in enumerate(base) if lo == hi)
    c = base[axis][0]
    lo, hi = c - h, c + h
    window = tuple((lo, hi) if j == axis else b for j, b in enumerate(base))
    verts = [
        v for v in _scan_window((window,), n)
        if all(
            (lo <= Fraction(x, n) <= hi) if j == axis else (blo <= Fraction(x, n) < bhi)
            for j, (x, (blo, bhi)) in enumerate(zip(v, base))
        )
    ]
    inside = set(verts)
    top, bottom, top_half, bot_half = set(), set(), set(), set()
    for v in verts:
        outs = [w for w in _neighbours(v) if w not in inside]
        if not outs:
            continue
        for w in outs:
            if w[axis] != v[axis]:
                a, b = sorted((Fraction(v[axis], n), Fraction(w[axis], n)))
                if a <= hi <= b:
                    top.add(v)
                if a <= lo <= b:
                    bottom.add(v)
        side = Fraction(v[axis], n) - c
        if side > 0:
            top_half.add(v)
        elif side < 0:
            bot_half.add(v)
    return verts, top, bottom, top_half, bot_half


def boundary_edges_by_scan(axis, sign, face, n):
    """(left endpoint, axis) of the edges of E_n^{axis,sign}[face], in
    lexicographic order, from the definition with Fractions: the face value c
    satisfies x_axis/n < c <= (x_axis + 1)/n (sign +1) or
    x_axis/n <= c < (x_axis + 1)/n (sign -1), and lo <= x_j/n < hi on every
    other axis."""
    c = face[axis][0]

    def meets(x):
        a, b = Fraction(x, n), Fraction(x + 1, n)
        return (a < c <= b) if sign > 0 else (a <= c < b)

    return [
        (v, axis) for v in _scan_window((face,), n)
        if all(
            meets(x) if j == axis else (lo <= Fraction(x, n) < hi)
            for j, (x, (lo, hi)) in enumerate(zip(v, face))
        )
    ]


def min_cut_by_partitions(vertices, edges, caps, sources, sinks):
    """Exact min cut: enumerate all source-side vertex sets containing the
    sources and avoiding the sinks; return the cheapest crossing capacity."""
    free = sorted(set(vertices) - set(sources) - set(sinks))
    src = set(sources)
    best = None
    best_cut = None
    for r in range(len(free) + 1):
        for extra in combinations(free, r):
            side = src | set(extra)
            cut = [e for e in edges if (e.x in side) != (tuple_right(e) in side)]
            cap = sum(caps[e] for e in cut)
            if best is None or cap < best:
                best, best_cut = cap, cut
    return best, best_cut


def min_cut_by_edge_subsets(vertices, edges, caps, sources, sinks, max_size):
    """Min capacity over all edge subsets up to max_size that cut the sources
    from the sinks (checked by BFS)."""
    best = None
    if not _connected(vertices, edges, set(), sources, sinks):
        return Fraction(0)
    for r in range(1, max_size + 1):
        for subset in combinations(edges, r):
            removed = set(subset)
            if not _connected(vertices, edges, removed, sources, sinks):
                cap = sum(caps[e] for e in subset)
                if best is None or cap < best:
                    best = cap
    return best


def _connected(vertices, edges, removed, sources, sinks):
    adj = {}
    for e in edges:
        if e in removed:
            continue
        a, b = e.x, tuple_right(e)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    seen = set(sources)
    stack = list(sources)
    while stack:
        u = stack.pop()
        if u in sinks:
            return True
        for w in adj.get(u, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def tuple_right(e):
    y = list(e.x)
    y[e.axis] += 1
    return tuple(y)


def column_count(base, axis):
    """Number of vertical lattice lines through the half-open base box."""
    count = 1
    for j, (lo, hi) in enumerate(base):
        if j == axis:
            continue
        import math

        lo_i = math.ceil(float(lo))
        hi_i = math.ceil(float(hi))
        count *= max(0, hi_i - lo_i)
    return count


def fraction_max_flow(L, t):
    """(value, stream values, cutset) of the Dinic core run on the capacities
    as they are, in Fractions, with big = cap_total + 1: the reference for
    the integer scaling of exact solves.  It shares the arc layout, the
    search and the cycle canceller of ``latflow.maxflow``, which the scaling
    leaves alone."""
    from latflow.maxflow import FlowNetwork, _cancel_cycles, _dinic

    net = FlowNetwork(L.d, L.n, L.omega, L.active_edges, L.gamma1, L.gamma2)
    caps = [t.get(e, 0) for e in net.edges]
    big = sum(caps) + 1
    cap = [c for c in caps for _ in range(2)]
    cap += [big, 0] * ((len(net.head) - len(cap)) // 2)
    value, level = _dinic(net.adj, net.head, cap, net.source, net.sink, big)
    flow = [cap[2 * k + 1] - c for k, c in enumerate(caps)]
    _cancel_cycles(net.adj, net.head, flow)
    cut = [
        e for k, e in enumerate(net.edges)
        if (level[net.head[2 * k + 1]] >= 0) != (level[net.head[2 * k]] >= 0)
    ]
    return value, {e: s for e, s in zip(net.edges, flow) if s}, tuple(sorted(cut))


def cancel_cycles_by_restarts(f):
    """Remove circulation components from the Stream f in place by a
    depth-first search from the smallest vertex with flow out, restarted
    after each cycle it cancels by the cycle's smallest |s(e)|, on an
    out-adjacency rebuilt from the stream: the reference for the order and
    values of ``latflow.maxflow._cancel_cycles``."""
    while True:
        out = {}
        for e, v in f.values.items():
            if v > 0:
                out.setdefault(e.x, []).append((e, 1))
            elif v < 0:
                out.setdefault(e.right(), []).append((e, -1))
        color = {}
        cycle = None

        def walk(x):
            nonlocal cycle
            stack = [(x, iter(out.get(x, ())))]
            color[x] = 1
            path = []
            while stack:
                u, it = stack[-1]
                advanced = False
                for e, dr in it:
                    w = e.right() if dr > 0 else e.x
                    if color.get(w, 0) == 1:
                        path.append((e, dr))
                        idx = next(i for i, (v2, _) in enumerate(stack) if v2 == w)
                        cycle = path[idx:]
                        return True
                    if color.get(w, 0) == 0:
                        path.append((e, dr))
                        color[w] = 1
                        stack.append((w, iter(out.get(w, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[u] = 2
                    stack.pop()
                    if path:
                        path.pop()
            return False

        for x in sorted(out):
            if color.get(x, 0) == 0 and walk(x):
                break
        if cycle is None:
            return
        m = min(abs(f.get(e)) for e, _ in cycle)
        for e, dr in cycle:
            f.add(e, -dr * m)


class BincountTables:
    """The rate solver's distance at every grid point by the dense formula:
    every (block, edge) cell of ``latflow.estimate._cube_cells`` is added to
    its (axis, slot) mass with one bincount, the per-slot norms sum the
    axes' squared residuals in order, and one more bincount sums the
    weighted norms per point.  The reference for the evaluation layout of
    ``CubeDistanceTables``, which must agree with it bit for bit."""

    def __init__(self, space, target, opts):
        import numpy as np

        from latflow.estimate import _cube_cells

        (slot_of, self.b_all, self.block_point, self.block_weight, block_slots,
         self.const_point) = _cube_cells(space, target, opts)
        axes = np.array([e.axis for e in space.edges])
        self.scale = 1.0 / space.n**space.d
        self.index = axes * self.b_all.shape[1] + slot_of
        self.slot_weight = np.repeat(self.block_weight, block_slots)
        self.slot_point = np.repeat(self.block_point, block_slots)

    def _residual(self, s_vec):
        import numpy as np

        contrib = np.tile(s_vec * self.scale, len(self.index))
        mass = np.bincount(self.index.ravel(), weights=contrib, minlength=self.b_all.size)
        diff = mass.reshape(self.b_all.shape) - self.b_all
        norms = np.sqrt((diff * diff).sum(axis=0))
        per_point = np.bincount(
            self.slot_point, weights=norms * self.slot_weight, minlength=len(self.const_point)
        )
        return per_point + self.const_point, diff, norms

    def value_and_grad(self, s_vec):
        import numpy as np

        vals, diff, norms = self._residual(s_vec)
        pid = int(np.argmax(vals))
        safe = np.where(norms > 0, norms, 1.0)
        coeff = diff / safe
        mine = self.block_point == pid
        terms = coeff.ravel()[self.index[mine]] * (self.scale * self.block_weight[mine])[:, None]
        return float(vals[pid]), terms.sum(axis=0)

    def value(self, s_vec):
        import numpy as np

        return float(np.max(self._residual(s_vec)[0]))


def fraction_gauss_jordan(G, rhs):
    """A solution of G y = rhs by dense Gauss-Jordan elimination on Fraction
    rows, free variables zero (G may be singular): the reference for the
    rate solver's integer Gram elimination."""
    m = len(G)
    A = [[Fraction(a) for a in row] + [Fraction(rhs[i])] for i, row in enumerate(G)]
    piv_cols = []
    r = 0
    for c in range(m):
        piv = next((i for i in range(r, m) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        pv = A[r][c]
        A[r] = [a / pv for a in A[r]]
        for i in range(m):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    y = [Fraction(0)] * m
    for i, c in enumerate(piv_cols):
        y[c] = A[i][m]
    return y


def cube_key(P, X, S):
    """Index of the cube of side S shifted by X holding the scaled point P,
    one point at a time: the cube z spans [X + (z - 1/2) S, X + (z + 1/2) S)."""
    return tuple((2 * (p - x) + S) // (2 * S) for p, x in zip(P, X))


def cube_bounds(D, X, S, key):
    """Float (lo, hi) per axis of the cube with index ``key`` of a grid with
    common denominator D."""
    return [((2 * x + (2 * z - 1) * S) / (2 * D), (2 * x + (2 * z + 1) * S) / (2 * D))
            for x, z in zip(X, key)]


def overlap_volume(bounds, box):
    """Float volume shared by a cube and a box, both given as float bounds."""
    vol = 1.0
    for (ql, qh), (lo, hi) in zip(bounds, box):
        seg = min(qh, hi) - max(ql, lo)
        if seg <= 0:
            return 0.0
        vol *= seg
    return vol


def distance_by_exhaustion(mu, nu, opts):
    """(lower, upper, best_point) of ``measure.distance`` with every level of
    every grid point summed: the search is re-derived, the level sums are the
    library's.  The maximum is kept by strict increase in grid order, so
    best_point is the first maximum, and None when every sum is 0."""
    from latflow.measure import _level_sum, _prepare

    grid, atoms, cells = _prepare(mu, nu, opts)
    best, best_pt = 0.0, None
    for xs, lam in grid.points:
        X, sides = grid.levels(xs, lam)
        g = 0.0
        for k, S in enumerate(sides):
            g += _level_sum(atoms, cells, X, S, grid, opts.cube_budget) / 2**k
        if g > best:
            best, best_pt = g, (xs, lam)
    tail = (mu.total_variation() + nu.total_variation()) / 2**opts.k_max
    return best, best + tail, best_pt


def cube_face(d, axis, sign) -> tuple:
    """Face of the unit cube [-1/2, 1/2)^d orthogonal to e_axis on side
    ``sign`` (+1/-1)."""
    h = Fraction(1, 2)
    c = h if sign > 0 else -h
    return tuple((c, c) if j == axis else (-h, h) for j in range(d))


def sparse_edge_set(K, region, n, d):
    """E_K^d intersected with the region: axis-0 edges on the K-sublattice in
    the transverse coordinates, plus the transverse rail edges joining
    K-neighbours of the sublattice."""
    from latflow.geometry import EdgeId

    out = []
    for v in region.lattice_vertices(n):
        for j in range(d):
            if all(v[k] % K == 0 for k in range(1, d) if k != j):
                out.append(EdgeId(tuple(v), j))
    return out


def flow_law(L, values):
    """Law of phi_n over the capacities of L.active_edges drawn independently
    and uniformly from ``values``: {phi: number of configurations}, by a
    vertex-partition min cut of every configuration."""
    edges = sorted(L.active_edges)
    law = {}
    for caps in product(values, repeat=len(edges)):
        phi, _ = min_cut_by_partitions(L.omega, edges, dict(zip(edges, caps)), L.gamma1, L.gamma2)
        law[phi] = law.get(phi, 0) + 1
    return law


def check_mix2d_invariants(f, f_in, beta, col, r, M):
    """Assert the proof invariants of the 2-d rerouting mixer on its state
    (``reconnect._mix2d_steps``): transfer columns carry verticals only for
    their deficit source and never more than the source's input edge;
    below-mean rows are non-decreasing along the flow, above-mean rows
    non-increasing."""
    from latflow.geometry import EdgeId

    used_cols = set(col.values())
    for c in range(r):
        vert = [abs(f.get(EdgeId((c, k), 1))) for k in range(1, r)]
        load = max(vert, default=0)
        if c not in used_cols:
            assert load == 0, f"column {c} must stay clear"
        else:
            i = next(i for i, cc in col.items() if cc == c)
            assert load <= abs(f.get(EdgeId((0, i), 0))), "vertical exceeds source input"
    for i in range(1, r + 1):
        row = [f.get(EdgeId((k, i), 0)) for k in range(r)]
        if f_in[i - 1] < beta:
            assert row[0] == f_in[i - 1]
            assert all(a <= b for a, b in zip(row, row[1:])), "below-mean row must be monotone"
            assert row[-1] <= beta
        elif f_in[i - 1] > beta:
            assert all(a >= b for a, b in zip(row, row[1:])), "above-mean row must be antitone"
            assert row[0] <= f_in[i - 1] and row[-1] >= beta
    assert all(abs(v) <= M for v in f.values.values())


def box_face_fluxes(f, m, lattice_box):
    """``reconnect.measure_face_fluxes`` on the faces of a half-open
    integer-coordinate box at the stream's scale instead of the unit cube:
    psi_axis^sign(f, A) for each of the m^(d-1) equal cells A of each face,
    keyed by (axis, sign, cell offsets)."""
    from latflow.stream import face_flux

    d, n = f.d, f.n
    b = [(Fraction(lo, n), Fraction(hi, n)) for lo, hi in lattice_box]
    out = {}
    for axis in range(d):
        for sign in (1, -1):
            c = b[axis][1] if sign > 0 else b[axis][0]
            for offs in product(range(m), repeat=d - 1):
                it = iter(offs)
                cell = []
                for j, (lo, hi) in enumerate(b):
                    if j == axis:
                        cell.append((c, c))
                    else:
                        w = Fraction(hi - lo, m)
                        start = lo + next(it) * w
                        cell.append((start, start + w))
                out[(axis, sign, offs)] = face_flux(f, tuple(cell), axis, sign)
    return out
