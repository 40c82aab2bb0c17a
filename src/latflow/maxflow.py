"""Exact maximal flow, maximal admissible stream and minimum cutset.

Each undirected lattice edge becomes two antiparallel arcs of capacity t(e);
the net arc flow gives the stream scalar, so |s(e)| <= t(e) holds exactly.
Dinic's blocking-flow search keeps every quantity in the input's arithmetic
(Fractions in verification mode), which makes the duality certificate exact.
"""

from collections import deque
from dataclasses import dataclass

from .geometry import inner_edges
from .stream import Stream


@dataclass
class MaxFlowResult:
    value: object
    stream: Stream
    cutset: tuple

    def cut_capacity(self, t):
        return sum(t[e] for e in self.cutset)


def _levels(adj, head, cap, s):
    """BFS distances from s over arcs with residual capacity (-1: unreached)."""
    level = [-1] * len(adj)
    level[s] = 0
    q = deque([s])
    while q:
        u = q.popleft()
        for a in adj[u]:
            v = head[a]
            if level[v] < 0 and cap[a]:
                level[v] = level[u] + 1
                q.append(v)
    return level


def _dinic(adj, head, cap, s, t, big):
    """Dinic's max flow on arc pairs (a, a ^ 1); returns the value and the
    final levels, whose reached set is the source side of a minimum cut.

    The blocking-flow search walks arcs in adjacency order and keeps one
    current-arc pointer per vertex.  Each augmentation pushes the path's
    bottleneck (starting from ``big``, which exceeds every path capacity);
    the walk then resumes at the tail of the first saturated arc, which is
    where a fresh search from s would arrive again.

    Residual capacities never go negative, so ``cap[a]`` is tested for
    truth: on Fractions that is far cheaper than ``cap[a] > 0``."""
    total = 0
    level = _levels(adj, head, cap, s)
    while level[t] >= 0:
        it = [0] * len(adj)
        path = []
        u = s
        while True:
            if u == t:
                f = big
                for a in path:
                    f = min(f, cap[a])
                for a in path:
                    cap[a] -= f
                    cap[a ^ 1] += f
                total += f
                k = next(i for i, a in enumerate(path) if not cap[a])
                u = head[path[k] ^ 1]
                del path[k:]
                continue
            arcs, i, nxt = adj[u], it[u], level[u] + 1
            m = len(arcs)
            while i < m and not (level[head[arcs[i]]] == nxt and cap[arcs[i]]):
                i += 1
            it[u] = i
            if i < m:
                path.append(arcs[i])
                u = head[arcs[i]]
            elif path:
                u = head[path.pop() ^ 1]
                it[u] += 1
            else:
                break
        level = _levels(adj, head, cap, s)
    return total, level


def _solve(d, n, vertices, edges, sources, sinks, t):
    """Max flow on the given lattice edge set between the vertex sets, with
    circulations cancelled from the stream.

    Edge k of ``edges`` becomes arcs 2k (+e_axis) and 2k + 1 (reverse), both
    of capacity t(e); terminal arcs follow, with capacity above the total."""
    index = {v: i for i, v in enumerate(sorted(vertices))}
    S, T = len(index), len(index) + 1
    adj = [[] for _ in range(len(index) + 2)]
    head, cap = [], []

    def add(u, v, c_uv, c_vu):
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head.extend((v, u))
        cap.extend((c_uv, c_vu))

    cap_total = 0
    for e in edges:
        c = t.get(e, 0)
        if c < 0:
            raise ValueError("negative capacity")
        add(index[e.x], index[e.right()], c, c)
        cap_total += c
    big = cap_total + 1
    for v in sorted(sources):
        add(S, index[v], big, 0)
    for v in sorted(sinks):
        add(index[v], T, big, 0)
    value, level = _dinic(adj, head, cap, S, T, big)

    stream = Stream(d, n)
    cut = []
    for k, e in enumerate(edges):
        # net flow along +e_axis = flow added to the reverse arc
        s = cap[2 * k + 1] - t.get(e, 0)
        if s != 0:
            stream.values[e] = s
        if (level[head[2 * k + 1]] >= 0) != (level[head[2 * k]] >= 0):
            cut.append(e)
    _cancel_cycles(stream)
    return MaxFlowResult(value=value, stream=stream, cutset=tuple(sorted(cut)))


def _cancel_cycles(f: Stream):
    """Remove circulation components so the stream decomposes into pure
    source-to-sink paths; keeps flow value, node law and |s(e)| non-increasing."""
    # oriented adjacency: vertex -> list of (edge, dir) with positive flow out
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


def max_flow(L, t) -> MaxFlowResult:
    """phi_n(Gamma^1, Gamma^2, Omega) with a maximal admissible stream and a
    minimum cutset certificate (source-side residual reachability)."""
    return _solve(L.d, L.n, L.omega, L.active_edges, L.gamma1, L.gamma2, t)


def cylinder_flow_top_bottom(base, h, v, t, n=1):
    """Phi(A, h): maximal flow from T(A,h) to B(A,h) inside cyl(A,h,v)."""
    from .geometry import cylinder_sets

    region, top, bottom, _, _ = cylinder_sets(base, h, v, n)
    return _cyl_flow(region, top, bottom, t, n)


def cylinder_flow_tau(base, h, t, n=1, v=None):
    """tau(A, h): maximal flow from the upper to the lower half boundary."""
    from .geometry import cylinder_sets, face_axis

    if v is None:
        ax = face_axis(base)
        v = tuple(1 if j == ax else 0 for j in range(len(base)))
    region, _, _, top_half, bot_half = cylinder_sets(base, h, v, n)
    return _cyl_flow(region, top_half, bot_half, t, n)


def _cyl_flow(region, sources, sinks, t, n):
    verts = set(region.lattice_vertices(n))
    d = len(next(iter(verts))) if verts else 0
    edges = inner_edges(verts)
    terminals = sources | sinks
    edges = [e for e in edges if not (e.x in terminals and e.right() in terminals)]
    return _solve(d, n, verts, edges, sources, sinks, t)
