"""Stream decomposition, the mixing constructions, face balancing and
corridor gluing.

The mixing builders work on abstract boxes [0, m) x [1, r]^{d-1} of the unit
lattice (scale 1), with inputs on the column-0 edges and outputs on the
column-(m-1) edges; ``embed``/``transform`` place them inside concrete cubes.

The builders compute exactly, on ints and Fractions.  A float among a
mixer's inputs raises TypeError where their mean, a Fraction, is formed.
"""

from fractions import Fraction
from itertools import product

from .geometry import EdgeId, boundary_edge_set, cube_box, face_partition
from .stream import Stream, divergence_at, face_flux, incident_edges, transform


# ---------------------------------------------------------------------------
# Decomposition (residual peeling)


def decompose(f: Stream, L):
    """Split a stream obeying the node law off the terminals into weighted
    self-avoiding oriented paths with endpoints in Gamma_n^1 u Gamma_n^2.

    Returns a list of (vertex tuple path, weight); the weighted sum of unit
    path streams reproduces f exactly and every path edge is strictly aligned
    with the flow.
    """
    terminals = L.gamma1 | L.gamma2
    res = f.copy()  # peeled down to zero below
    for x in sorted(L.omega - terminals):
        if divergence_at(res, x) != 0:
            raise ValueError(f"node law violated at interior vertex {x}")

    paths = []

    def aligned(x, sign):
        """(edge, direction, far end) for the edges carrying flow out of x
        (sign 1) or into x (sign -1), lexicographic order."""
        out = []
        for e, orient in incident_edges(x, f.d):
            if sign * res.get(e) * orient > 0:
                out.append((e, sign * orient, e.right() if orient > 0 else e.x))
        out.sort(key=lambda t: (t[0].x, t[0].axis))
        return out

    def walk(start, forward):
        """Self-avoiding walk along aligned residual edges from a terminal to
        another terminal; backtracking DFS, deterministic order."""
        sign = 1 if forward else -1
        stack = [(start, iter(aligned(start, sign)))]
        on_path = {start}
        edges = []
        while stack:
            x, it = stack[-1]
            step = next((t for t in it if t[2] not in on_path), None)
            if step is None:
                stack.pop()
                if edges:
                    edges.pop()
                    on_path.discard(x)
                continue
            e, direction, y = step
            edges.append((e, direction))
            if y in terminals:
                return edges, y
            on_path.add(y)
            stack.append((y, iter(aligned(y, sign))))
        raise ValueError("no terminal-to-terminal path found (dangling flux)")

    while True:
        pick = next(
            ((x, res.get(e) * orient > 0)
             for x in sorted(terminals)
             for e, orient in incident_edges(x, f.d)
             if res.get(e) and (e.right() if orient > 0 else e.x) in L.omega),
            None,
        )
        if pick is None:
            break
        x, forward = pick
        edges, end = walk(x, forward)
        if not forward:
            edges = [(e, d) for e, d in reversed(edges)]
            src = end
        else:
            src = x
        weight = min(res.values[e] * d for e, d in edges)
        verts = [src]
        for e, d in edges:
            verts.append(e.right() if d > 0 else e.x)
        for e, d in edges:
            res.add(e, -d * weight)
        paths.append((tuple(verts), weight))

    if res.values:
        raise ValueError(
            "stream contains a circulation component; it cannot be written as "
            "boundary-to-boundary paths"
        )
    return paths


def recompose(paths, d, n) -> Stream:
    """Sum over (vertices, weight) paths of the weight times the path's unit
    stream; every step must move one coordinate by exactly one."""
    f = Stream(d, n)
    for verts, weight in paths:
        for u, w in zip(verts, verts[1:]):
            diff = [b - a for a, b in zip(u, w)]
            if sum(abs(c) for c in diff) != 1:
                raise ValueError("path steps must be lattice edges")
            axis = next(j for j, c in enumerate(diff) if c != 0)
            if diff[axis] == 1:
                f.add(EdgeId(tuple(u), axis), weight)
            else:
                f.add(EdgeId(tuple(w), axis), -weight)
    return f


# ---------------------------------------------------------------------------
# Mixing in dimension 2


def _mix2d_steps(f_in, M):
    """Rerouting algorithm for nonnegative input sums, one step at a time.

    Rows j = 1..r, support [0, r) x [1, r]; inputs on the column-0 edges,
    uniform outputs (the mean) on the column-(r-1) edges.  Transfers for a
    deficit source i run along row i up to a source-specific column, move
    vertically there, and follow the receiving row to its output.

    Yields (f, beta, col) before the first step and after each one: the
    stream, updated in place, the mean, and the transfer column of each
    deficit source.
    """
    r = len(f_in)
    if any(abs(v) > M for v in f_in):
        raise ValueError("input magnitude exceeds the bound M")
    total = sum(f_in)
    if total < 0:
        raise ValueError("core mixer needs a nonnegative input sum")
    beta = Fraction(total, r)

    f = Stream(2, 1)
    for i in range(1, r + 1):
        v = min(f_in[i - 1], beta)
        if v != 0:
            for k in range(r):
                f.values[EdgeId((k, i), 0)] = v

    # transfer column per deficit source: n - i, except that a source at row r
    # borrows the (never used) column of the smallest non-deficit source
    deficit = [i for i in range(1, r + 1) if f_in[i - 1] > beta]
    col = {}
    for i in deficit:
        if i < r:
            col[i] = r - i
        else:
            kstar = next(k for k in range(1, r + 1) if f_in[k - 1] <= beta)
            col[i] = r - kstar

    def in_val(i):
        return f.get(EdgeId((0, i), 0))

    def out_val(j):
        return f.get(EdgeId((r - 1, j), 0))

    yield f, beta, col
    while True:
        i = next((i for i in range(1, r + 1) if abs(in_val(i)) < abs(f_in[i - 1])), None)
        if i is None:
            break
        j = next(j for j in range(1, r + 1) if out_val(j) < beta)
        amount = min(f_in[i - 1] - in_val(i), beta - out_val(j))
        c = col[i]
        for k in range(c):
            f.add(EdgeId((k, i), 0), amount)
        if j > i:
            for k in range(i, j):
                f.add(EdgeId((c, k), 1), amount)
        else:
            for k in range(j, i):
                f.add(EdgeId((c, k), 1), -amount)
        for k in range(c, r):
            f.add(EdgeId((k, j), 0), amount)
        yield f, beta, col


def _mix2d_core(f_in, M):
    """The stream of ``_mix2d_steps`` after its last step."""
    for f, _, _ in _mix2d_steps(f_in, M):
        pass
    return f


def mix2d(f_in, M) -> Stream:
    """Two-dimensional mixing: reproduce the inputs on the column-0 edges and
    deliver their mean on every column-(r-1) edge, magnitudes bounded by M and
    node law away from the two boundary columns."""
    if len(f_in) < 1:
        raise ValueError("need at least one input")
    sign = 1 if sum(f_in) >= 0 else -1
    g = _mix2d_core([sign * v for v in f_in], M)
    return g.scaled(sign)


# ---------------------------------------------------------------------------
# Mixing in dimension d


def _grid_keys(r, k):
    return list(product(range(1, r + 1), repeat=k))


def _infer_grid(f_in):
    keys = list(f_in)
    k = len(keys[0])
    r = max(max(key) for key in keys)
    if sorted(keys) != _grid_keys(r, k):
        raise ValueError("inputs must cover the full index grid {1..r}^(d-1)")
    return r, k


def embed(f: Stream, d, axis_map, pinned=None, offset=None, n=None) -> Stream:
    """Place an abstract lower-dimensional stream into d dimensions.

    axis_map[j] is the target axis of source axis j; pinned fixes the
    remaining coordinates; offset translates afterwards; n overrides the
    lattice scale of the result.
    """
    pinned = pinned or {}
    offset = offset or [0] * d
    out = Stream(d, n or f.n)
    for e, v in f.values.items():
        coords = [None] * d
        for j, c in enumerate(e.x):
            coords[axis_map[j]] = c
        for ax, c in pinned.items():
            coords[ax] = c
        coords = [c + offset[k] for k, c in enumerate(coords)]
        out.add(EdgeId(tuple(coords), axis_map[e.axis]), v)
    return out


def _mix_nested(d, r, f_in, mix2) -> Stream:
    """Mix to uniform outputs in [0, (d-1)r) x [1, r]^{d-1} by dimension
    reduction; f_in keyed by {1..r}^{d-1} tuples, mix2 the 2-d kernel on a
    list of r inputs.

    Each row i is mixed in dimension d-1 to its mean, then one 2-d mix of the
    row means runs along axis 1 for every remaining transverse position."""
    if d == 2:
        return mix2([f_in[(i,)] for i in range(1, r + 1)])
    total = Stream(d, 1)
    means = []
    # abstract axes (0, 1..d-2) -> (0, 2..d-1), row coordinate pinned on axis 1
    amap = [0] + list(range(2, d))
    for i in range(1, r + 1):
        sub = {z: f_in[(i,) + z] for z in _grid_keys(r, d - 2)}
        total += embed(_mix_nested(d - 1, r, sub, mix2), d, amap, pinned={1: i})
        means.append(Fraction(sum(sub.values()), r ** (d - 2)))
    t = mix2(means)
    for x in _grid_keys(r, d - 2):
        pinned = {k + 2: c for k, c in enumerate(x)}
        total += embed(t, d, [0, 1], pinned=pinned, offset=[(d - 2) * r] + [0] * (d - 1))
    return total


def mix(f_in, f_out, m, M) -> Stream:
    """General mixing: connect the input family to the output family inside
    [0, m) x [1, r]^{d-1}.

    Requires matched sums and m >= 2(d-1)r, or m >= (d-1)r when the outputs
    are uniform.  Inputs sit on the column-0 edges, outputs on the
    column-(m-1) edges; the node law holds away from those two columns.
    """
    r, k = _infer_grid(f_in)
    d = k + 1
    if sorted(f_out) != sorted(f_in):
        raise ValueError("output grid must match the input grid")
    if any(abs(v) > M for v in f_in.values()) or any(abs(v) > M for v in f_out.values()):
        raise ValueError("magnitude exceeds the bound M")
    s_in = sum(f_in.values())
    s_out = sum(f_out.values())
    if s_in != s_out:
        raise ValueError("input and output sums do not match")
    mean = Fraction(s_in, r ** (d - 1))
    uniform = all(v == mean for v in f_out.values())
    L = (d - 1) * r
    need = L if uniform else 2 * L
    if m < need:
        raise ValueError(f"corridor too short: need m >= {need}, got {m}")

    def mix2(vals):
        return mix2d(vals, M)

    g = _mix_nested(d, r, f_in, mix2)
    start = L
    if not uniform:
        fo = _mix_nested(d, r, f_out, mix2)
        # reversed copy: reflect axis 0 and negate, so the f_out side feeds the
        # shared uniform seam at column L-1 and exposes f_out at column 2L-2
        rev = transform(fo, flips=[True] + [False] * (d - 1), offset=[2 * L] + [0] * (d - 1))
        g += rev.scaled(-1)
        for y in _grid_keys(r, d - 1):
            g.add(EdgeId((L - 1,) + y, 0), -mean)  # both halves carry the seam edge; count it once
        start = 2 * L - 1
    # straight lines carry the outputs on to column m-1
    for y, v in f_out.items():
        if v != 0:
            for c in range(start, m):
                g.add(EdgeId((c,) + y, 0), v)
    return g


# ---------------------------------------------------------------------------
# Sparse mixing


def sparse_c(d):
    """Smallest admissible sparsity constant: c_d = 2(d-1)."""
    return 2 * (d - 1)


def mix_sparse(f_in, f_out, K, M, n=None) -> Stream:
    """Mixing supported on the sparse edge set E_K^d: inputs and outputs are
    indexed by the K-sublattice points of {1..n}^{d-1}; the construction
    works on the coarse lattice and expands rails edge-for-edge."""
    keys = list(f_in)
    k = len(keys[0])
    d = k + 1
    if K < sparse_c(d):
        raise ValueError(f"K must be at least 2(d-1) = {sparse_c(d)}")
    if sorted(f_out) != sorted(keys):
        raise ValueError("output grid must match the input grid")
    if any(c % K != 0 or c < 1 for key in keys for c in key):
        raise ValueError("indices must be positive multiples of K")
    r0 = max(max(key) for key in keys) // K
    coarse_in = {tuple(c // K for c in key): v for key, v in f_in.items()}
    coarse_out = {tuple(c // K for c in key): v for key, v in f_out.items()}
    if sorted(coarse_in) != _grid_keys(r0, k):
        raise ValueError("indices must fill the K-sublattice grid")
    if n is None:
        n = K * r0
    if n < sparse_c(d) * r0:
        raise ValueError("width too small for sparse mixing")
    g = mix(coarse_in, coarse_out, n, M)
    out = Stream(d, 1)
    for e, v in g.values.items():
        if e.axis == 0:
            tgt = (e.x[0],) + tuple(K * c for c in e.x[1:])
            out.add(EdgeId(tgt, 0), v)
        else:
            # coarse transverse edge expands to K consecutive fine edges
            base = (e.x[0],) + tuple(K * c for c in e.x[1:])
            for step in range(K):
                tgt = list(base)
                tgt[e.axis] += step
                out.add(EdgeId(tuple(tgt), e.axis), v)
    return out


# ---------------------------------------------------------------------------
# Precise mixing


def _check_precise_conditions(f_in, r, k, M, eps):
    for level in range(k):
        for y in product(range(1, r + 1), repeat=level):
            vals = [f_in[y + x] for x in product(range(1, r + 1), repeat=k - level)]
            if sum(vals) >= 0:
                continue
            if max(vals) - min(vals) <= eps:
                continue
            raise ValueError(f"prefix condition fails at level {level}, prefix {y}")
    for v in f_in.values():
        if not (-M <= v <= eps):
            raise ValueError("inputs must lie in [-M, eps]")


def _mix_precise_2d(vals, M, eps) -> Stream:
    total = sum(vals)
    if total >= 0:
        return _mix2d_core(list(vals), max(M, eps))
    alpha = min(vals)
    g = _mix2d_core([v - alpha for v in vals], max(M, eps))
    r = len(vals)
    for i in range(1, r + 1):
        for kk in range(r):
            g.add(EdgeId((kk, i), 0), alpha)
    return g


def mix_precise(f_in, M, eps) -> Stream:
    """Mixing with a precise usage description: axis-0 edges stay in [-M, eps]
    and every transverse edge is bounded by eps; outputs are uniform at the
    mean.  Inputs must satisfy the nested prefix conditions, which are checked
    and reported by level."""
    r, k = _infer_grid(f_in)
    # the conditions on every prefix imply those of each sub-grid mixed below
    _check_precise_conditions(f_in, r, k, M, eps)
    return _mix_nested(k + 1, r, f_in, lambda vals: _mix_precise_2d(vals, M, eps))


# ---------------------------------------------------------------------------
# Face balancing (residual stream construction)


def _sparse_coords(n, K, d):
    """Transverse sparse levels inside the cube, kept off the extreme planes
    so rail edges never cross a face.  A sparse mix over r0 levels needs a
    width of c_d r0, and one entered one layer inside the cube has n - 1, so
    at most (n - 1) // c_d consecutive levels are kept, the middle ones."""
    lo, hi = cube_box(1, n)
    coords = [c for c in range(lo + 1, hi - 1) if c % K == 0]
    keep = (n - 1) // sparse_c(d)
    start = max(len(coords) - keep, 0) // 2
    coords = coords[start:start + keep]
    if not coords:
        raise ValueError(f"no sparse levels inside the cube: K = {K} is too large, or "
                         f"n - 1 = {n - 1} is below c_{d} = {sparse_c(d)}")
    return coords


def _face_cells(d, m):
    """Mesoscopic face cells of the centered unit cube keyed by (axis, sign,
    offsets)."""
    out = {}
    for axis in range(d):
        for sign in (1, -1):
            cells = face_partition(d, axis, sign, m)
            for offs, cell in zip(product(range(m), repeat=d - 1), cells):
                out[(axis, sign, offs)] = cell
    return out


def measure_face_fluxes(f: Stream, m):
    """psi_axis^sign(f, A) for every mesoscopic face cell of the unit cube,
    keyed by (axis, sign, cell offsets)."""
    cells = _face_cells(f.d, m)
    return {key: face_flux(f, cell, key[0], key[1]) for key, cell in cells.items()}


def _cell_sparse_points(cell, axis, sign, n, K, sparse_levels):
    """V_A: left endpoints of the face-crossing edges whose transverse
    coordinates all lie on the sparse levels."""
    pts = []
    for e in boundary_edge_set(axis, sign, cell, n):
        if all(e.x[j] in sparse_levels for j in range(len(e.x)) if j != axis):
            pts.append(e.x)
    return pts


def _axis_sparse_mix(d, n, K, axis, entry_sign, inflow, outflow, M, interior_entry=False):
    """Sparse mix across the cube along ``axis``.

    inflow/outflow are profiles keyed by transverse coordinate tuples (the
    sparse points, coordinates of all axes except ``axis``); inflow enters at
    the entry_sign plane, outflow leaves at the opposite plane.  With
    interior_entry the entry column starts one layer inside the cube (used
    when a transfer path delivers the water there instead of the outside).
    """
    levels = _sparse_coords(n, K, d)
    level_index = {c: (a + 1) * K for a, c in enumerate(levels)}
    width = n - 1 if interior_entry else n

    def to_abstract(profile):
        out = {}
        for pt, v in profile.items():
            key = tuple(level_index[c] for c in pt)
            out[key] = out.get(key, 0) + v
        for key in _full_sparse_grid(len(levels), d - 1, K):
            out.setdefault(key, 0)
        return out

    g = mix_sparse(to_abstract(inflow), to_abstract(outflow), K, M, n=width)

    lo, hi = cube_box(1, n)
    trans_axes = [j for j in range(d) if j != axis]
    out = Stream(d, n)
    for e, v in g.values.items():
        coords = [0] * d
        for j, c in enumerate(e.x):
            if j == 0:
                continue
            coords[trans_axes[j - 1]] = levels[0] + (c - K)
        c0 = e.x[0]
        if entry_sign < 0:
            coords[axis] = lo + c0
            sign_flip = 1
        else:
            start = (hi - 1) if interior_entry else hi
            coords[axis] = (start - c0 - 1) if e.axis == 0 else (start - c0)
            sign_flip = -1 if e.axis == 0 else 1
        tgt_ax = axis if e.axis == 0 else trans_axes[e.axis - 1]
        out.add(EdgeId(tuple(coords), tgt_ax), sign_flip * v)
    return out


def _full_sparse_grid(count, k, K):
    return [tuple((a + 1) * K for a in key) for key in product(range(count), repeat=k)]


def _l_path(d, n, x, axis_i, sign_i, axis_j, delivery, weight) -> Stream:
    """L-shaped transfer path from the in-plane point x: run along axis_i from
    its face to the level t = x[axis_j], then along axis_j from t to the
    delivery coordinate.  The first step crosses the in-face, the delivery
    side stops before the opposite face."""
    f = Stream(d, n)
    lo, hi = cube_box(1, n)
    t = x[axis_j]

    def add_run(base, ax, frm, to, w):
        if frm == to:
            return
        step = 1 if to > frm else -1
        c = frm
        while c != to:
            left = min(c, c + step)
            coords = list(base)
            coords[ax] = left
            f.add(EdgeId(tuple(coords), ax), w if step > 0 else -w)
            c += step

    # axis_i run starts at the exempt plane vertex so its first edge is the
    # face-crossing edge of the in-face
    start = lo if sign_i < 0 else hi
    add_run(x, axis_i, start, t, weight)
    mid = list(x)
    mid[axis_i] = t
    add_run(mid, axis_j, t, delivery, weight)
    return f


def balance_faces(lam, beta, K, m, d, n) -> Stream:
    """Algorithm 1: build the residual stream whose face fluxes are exactly
    beta - lam on every mesoscopic face cell of the unit cube.

    lam/beta are keyed by (axis, sign, cell offsets) as produced by
    measure_face_fluxes.  Faces with zero net difference get a single sparse
    mix; surplus faces are paired with deficit faces through sparse mixes and
    disjoint transfer paths, at most (2d)^2 pairings.  n must be even.
    """
    if n % 2:
        # the sparse mixes start their columns at cube_box's -(n // 2), the
        # face-crossing edges of boundary_edge_set sit at floor(-n / 2)
        raise ValueError(f"balance_faces needs an even n, got {n}")
    cells = _face_cells(d, m)
    if sorted(lam) != sorted(cells) or sorted(beta) != sorted(cells):
        raise ValueError("lam and beta must cover every face cell")
    total_minus = sum(beta[k] - lam[k] for k in cells if k[1] == -1)
    total_plus = sum(beta[k] - lam[k] for k in cells if k[1] == 1)
    if total_minus != total_plus:
        raise ValueError("total flux mismatch between the two face families")

    levels = _sparse_coords(n, K, d)
    level_set = set(levels)
    w = {}  # per sparse in-plane point
    pts_of = {}
    mu = {(axis, sign): 0 for axis in range(d) for sign in (1, -1)}
    for key, cell in cells.items():
        axis, sign, _ = key
        diff = beta[key] - lam[key]
        pts = _cell_sparse_points(cell, axis, sign, n, K, level_set)
        if not pts and diff != 0:
            raise ValueError("no sparse points on a face cell; decrease K")
        pts_of[key] = pts
        mu[(axis, sign)] += diff
        for p in pts:
            w[p] = Fraction(diff, len(pts))

    max_w = max((abs(v) for v in w.values()), default=0)
    bound = max_w * 2 * (2 * d) ** 2 + 1

    def face_profile(axis, sign):
        prof = {}
        for key, pts in pts_of.items():
            if key[0] == axis and key[1] == sign:
                for p in pts:
                    prof[_transverse(p, axis)] = w[p]
        return prof

    f_res = Stream(d, n)

    f_in_faces, f_out_faces, f_zero = [], [], []
    for axis in range(d):
        for sign in (1, -1):
            m_ = mu[(axis, sign)]
            if m_ == 0:
                f_zero.append((axis, sign))
            elif (sign < 0 and m_ > 0) or (sign > 0 and m_ < 0):
                f_in_faces.append((axis, sign))
            else:
                f_out_faces.append((axis, sign))

    for axis, sign in f_zero:
        prof = face_profile(axis, sign)
        if all(v == 0 for v in prof.values()):
            continue
        zero = {y: 0 for y in face_profile(axis, -1)}
        inflow, outflow = (prof, zero) if sign < 0 else (zero, prof)
        f_res += _axis_sparse_mix(d, n, K, axis, -1, inflow, outflow, bound)

    sent = {face: 0 for face in f_in_faces}
    received = {face: 0 for face in f_out_faces}
    steps = 0
    for face_in in f_in_faces:
        while abs(sent[face_in]) < abs(mu[face_in]):
            face_out = next(fo for fo in f_out_faces if abs(received[fo]) < abs(mu[fo]))
            amount = min(
                abs(mu[face_in]) - abs(sent[face_in]),
                abs(mu[face_out]) - abs(received[face_out]),
            )
            f_res += _transfer(
                d, n, K, face_in, face_out, amount, mu, face_profile, bound
            )
            sent[face_in] += amount
            received[face_out] += amount
            steps += 1
            if steps > (2 * d) ** 2:
                raise RuntimeError("face pairing failed to terminate")
    return f_res


def _transverse(pt, axis):
    return tuple(c for j, c in enumerate(pt) if j != axis)


def _transfer(d, n, K, face_in, face_out, amount, mu, face_profile, bound) -> Stream:
    ax_i, s_i = face_in
    ax_j, s_j = face_out
    scale_in = Fraction(amount, abs(mu[face_in]))
    scale_out = Fraction(amount, abs(mu[face_out]))
    # inflow rate a(x) = -s_i w(x) scale; outflow rate b(x) = s_j w(x) scale
    prof_in = {y: -s_i * v * scale_in for y, v in face_profile(ax_i, s_i).items()}
    prof_out = {y: s_j * v * scale_out for y, v in face_profile(ax_j, s_j).items()}

    if ax_i == ax_j:
        return _axis_sparse_mix(d, n, K, ax_i, s_i, prof_in, prof_out, bound)

    lo, hi = cube_box(1, n)
    delivery = lo if s_j > 0 else hi - 1
    entry_sign = -s_j
    paths = Stream(d, n)
    delivered = {}
    for x, a in _profile_points(d, n, K, ax_i, s_i, prof_in).items():
        pth = _l_path(d, n, x, ax_i, s_i, ax_j, delivery, a)
        paths += pth
        y = list(x)
        y[ax_i] = x[ax_j]
        y[ax_j] = delivery
        delivered[_transverse(tuple(y), ax_j)] = delivered.get(_transverse(tuple(y), ax_j), 0) + a
    mix_part = _axis_sparse_mix(
        d, n, K, ax_j, entry_sign, delivered, prof_out, bound,
        interior_entry=(s_j < 0),
    )
    return paths + mix_part


def _profile_points(d, n, K, axis, sign, prof):
    """Rebuild per-point rates from a transverse-keyed profile on the face."""
    lo, hi = cube_box(1, n)
    plane = lo if sign < 0 else hi - 1
    out = {}
    for y, v in prof.items():
        pt = list(y)
        pt.insert(axis, plane)
        out[tuple(pt)] = v
    return out


# ---------------------------------------------------------------------------
# Gluing


def glue_adjacent(f_a: Stream, box_a, f_b: Stream, box_b, m, M) -> Stream:
    """Connect two well-behaved streams in adjacent lattice cubes through the
    corridor between them, one general mix per mesoscopic face cell.

    box_a/box_b are half-open integer-coordinate boxes (lo, hi) per axis at the
    streams' scale; they must be translates along one axis with a gap of at
    least 2(d-1) * side/m lattice units.  Raises when a face cell's fluxes do
    not match, naming the cell.
    """
    d = f_a.d
    n = f_a.n
    if (f_b.d, f_b.n) != (d, n):
        raise ValueError("streams must share lattice and dimension")
    diffs = [j for j in range(d) if box_a[j] != box_b[j]]
    if len(diffs) != 1:
        raise ValueError("cubes must be translates along a single axis")
    axis = diffs[0]
    side = box_a[axis][1] - box_a[axis][0]
    if any(box_a[j][1] - box_a[j][0] != side for j in range(d)):
        raise ValueError("cubes must be cubes")
    if side % m != 0:
        raise ValueError("m must divide the cube side")
    cell_side = side // m
    a1 = box_a[axis][1]
    b0 = box_b[axis][0]
    if b0 < a1:
        f_a, f_b = f_b, f_a
        box_a, box_b = box_b, box_a
        a1 = box_a[axis][1]
        b0 = box_b[axis][0]
    gap = b0 - a1
    need = 2 * (d - 1) * cell_side
    if gap < need:
        raise ValueError(f"corridor too narrow: need {need} lattice units, got {gap}")

    out = f_a + f_b
    trans_axes = [j for j in range(d) if j != axis]
    for offs in product(range(m), repeat=d - 1):
        f_in, f_out = {}, {}
        windows = []
        for k, j in enumerate(trans_axes):
            lo = box_a[j][0] + offs[k] * cell_side
            windows.append(range(lo, lo + cell_side))
        for coords in product(*windows):
            key = tuple(c - wnd.start + 1 for c, wnd in zip(coords, windows))
            left_a = list(coords)
            left_a.insert(axis, a1 - 1)
            left_b = list(coords)
            left_b.insert(axis, b0)
            f_in[key] = f_a.get(EdgeId(tuple(left_a), axis))
            f_out[key] = f_b.get(EdgeId(tuple(left_b), axis))
        if sum(f_in.values()) != sum(f_out.values()):
            raise ValueError(f"face cell {offs}: flux mismatch between the two streams")
        g = mix(f_in, f_out, gap, M)
        amap = [axis] + trans_axes
        offset = [0] * d
        offset[axis] = a1
        for k, j in enumerate(trans_axes):
            offset[j] = windows[k].start - 1
        out += embed(g, d, amap, offset=offset, n=n)
    return out
