"""Exact maximal flow, maximal admissible stream and minimum cutset.

Each undirected lattice edge becomes two antiparallel arcs of capacity t(e);
the net arc flow gives the stream scalar, so |s(e)| <= t(e) holds exactly.
Dinic's blocking-flow search keeps every quantity exact in verification
mode: Fraction capacities are scaled to integers by the lcm of their
denominators and divided back at the end, which makes the duality certificate
exact.  Float capacities are searched as floats.
"""

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

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
    truth rather than compared with 0."""
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


class FlowNetwork:
    """Max flow on the given lattice edge set between the vertex sets: the
    arc structure, built once, and ``solve(t)`` for each capacity sample.

    Edge k of ``edges`` becomes arcs 2k (+e_axis) and 2k + 1 (reverse), both
    of capacity t(e); terminal arcs follow, with capacity above the total.
    Nothing is written after construction, so one network serves any number
    of solves, on any thread."""

    def __init__(self, d, n, vertices, edges, sources, sinks):
        index = {v: i for i, v in enumerate(sorted(vertices))}
        self.d, self.n, self.edges = d, n, list(edges)
        self.source, self.sink = len(index), len(index) + 1
        ends = [(index[e.x], index[e.right()]) for e in self.edges]
        ends += [(self.source, index[v]) for v in sorted(sources)]
        ends += [(index[v], self.sink) for v in sorted(sinks)]
        self.adj = [[] for _ in range(len(index) + 2)]
        self.head = []
        for u, v in ends:
            self.adj[u].append(len(self.head))
            self.adj[v].append(len(self.head) + 1)
            self.head.extend((v, u))

    def solve(self, t) -> MaxFlowResult:
        """Max flow for the capacities t (missing edges have capacity 0), with
        circulations cancelled from the stream.

        Rational capacities (Fractions, possibly with ints) are scaled by the
        lcm D of their denominators and the search runs on ints: with ``big``
        scaled too, every min, difference and truth test is the Fraction
        run's times D, so the value and stream, divided by D, are the same
        Fractions.  Float or pure-int capacities are used as they are."""
        caps = [t.get(e, 0) for e in self.edges]
        if any(c < 0 for c in caps):
            raise ValueError("negative capacity")
        kinds = set(map(type, caps))
        scaled = Fraction in kinds and kinds <= {Fraction, int}
        D = 1
        if scaled:
            D = math.lcm(*{c.denominator for c in caps})
            caps = [c.numerator * (D // c.denominator) for c in caps]
        big = sum(caps) + D  # D (cap_total + 1): above every path capacity
        m = 2 * len(caps)
        cap = [0] * len(self.head)
        cap[0:m:2] = caps
        cap[1:m:2] = caps
        cap[m::2] = [big] * ((len(cap) - m) // 2)
        head = self.head
        value, level = _dinic(self.adj, head, cap, self.source, self.sink, big)

        stream = Stream(self.d, self.n)
        cut = []
        for k, e in enumerate(self.edges):
            # net flow along +e_axis = flow added to the reverse arc
            s = cap[2 * k + 1] - caps[k]
            if s != 0:
                stream.values[e] = s
            if (level[head[2 * k + 1]] >= 0) != (level[head[2 * k]] >= 0):
                cut.append(e)
        _cancel_cycles(stream)
        if scaled:
            stream.values = {e: Fraction(s, D) for e, s in stream.values.items()}
            value = Fraction(value, D) if value else 0  # no path: the int 0, as on Fractions
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
    return FlowNetwork(L.d, L.n, L.omega, L.active_edges, L.gamma1, L.gamma2).solve(t)


def cylinder_flow_top_bottom(base, h, v, t, n=1):
    """Phi(A, h): maximal flow from T(A,h) to B(A,h) inside cyl(A,h,v)."""
    from .geometry import cylinder_sets

    region, top, bottom, _, _ = cylinder_sets(base, h, v, n)
    return _cylinder_network(region, top, bottom, n).solve(t)


def tau_network(base, h, n=1, v=None) -> FlowNetwork:
    """The network of tau(A, h): the cylinder's upper half boundary as sources
    and its lower half as sinks.  It depends on (base, h, n, v) only, so one
    build serves every capacity sample."""
    from .geometry import cylinder_sets, face_axis

    if v is None:
        ax = face_axis(base)
        v = tuple(1 if j == ax else 0 for j in range(len(base)))
    region, _, _, top_half, bot_half = cylinder_sets(base, h, v, n)
    return _cylinder_network(region, top_half, bot_half, n)


def cylinder_flow_tau(base, h, t, n=1, v=None):
    """tau(A, h): maximal flow from the upper to the lower half boundary."""
    return tau_network(base, h, n, v).solve(t)


def _cylinder_network(region, sources, sinks, n):
    verts = set(region.lattice_vertices(n))
    d = len(next(iter(verts))) if verts else 0
    terminals = sources | sinks
    edges = [e for e in inner_edges(verts) if not (e.x in terminals and e.right() in terminals)]
    return FlowNetwork(d, n, verts, edges, sources, sinks)
