"""Exact maximal flow, maximal admissible stream and minimum cutset.

Each undirected lattice edge becomes two antiparallel arcs of capacity t(e);
the net arc flow gives the stream scalar, so |s(e)| <= t(e) holds exactly.
Every capacity is an int or a Fraction: the capacities are scaled to ints by
the lcm D of their denominators, Dinic's blocking-flow search runs on them,
and the value and stream are divided back by D once at the end, into
Fractions.  A capacity sample given as integer numerators over one
denominator is already scaled, and runs as it is, to the exact value
(``FlowNetwork.sample_value``): every tau and tail trial solves that way.
When only the value is wanted and the network is a planar d=2 one, a
shortest path in its dual gives it.
"""

import functools
import heapq
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


def _levels(adj, head, cap, s, t):
    """BFS distances from s over arcs with residual capacity (-1: unreached).

    The search stops once t is labelled: every level below t's is complete
    then, and the blocking-flow walk never uses a level at or above t's
    except t itself, so it makes the same augmentations.  When t is not
    reached the search is complete, and its reached set is the source side
    of a minimum cut."""
    level = [-1] * len(adj)
    level[s] = 0
    q = deque([s])
    while q:
        u = q.popleft()
        for a in adj[u]:
            v = head[a]
            if level[v] < 0 and cap[a]:
                level[v] = level[u] + 1
                if v == t:
                    return level
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
    level = _levels(adj, head, cap, s, t)
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
        level = _levels(adj, head, cap, s, t)
    return total, level


class FlowNetwork:
    """Max flow on the given lattice edge set between the vertex sets: the
    arc structure, built once, and ``solve(t)`` or ``sample_value(nums, D)``
    for each capacity sample.

    Edge k of ``edges`` becomes arcs 2k (+e_axis) and 2k + 1 (reverse), both
    of capacity t(e); terminal arcs follow, with capacity above the total.
    A d=2 network with its terminals on the outer face also has a planar
    dual (``dual``, else None), built on first use: ``max_flow`` builds a
    network per call and never needs it.  Nothing else is written after
    construction, and the dual depends on the construction arguments only,
    so one network serves any number of solves, on any thread."""

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
        self._sets = index, set(sources), set(sinks)

    @functools.cached_property
    def dual(self):
        """The planar dual (``_PlanarDual``), or None when there is none."""
        vertices, sources, sinks = self._sets
        return _planar_dual(self.d, vertices, self.edges, sources, sinks)

    def _max_flow(self, caps, D):
        """Dinic on the capacities: the value, the residual arc capacities
        and the final levels."""
        big = sum(caps) + D  # D (cap_total + 1): above every path capacity
        m = 2 * len(caps)
        cap = [0] * len(self.head)
        cap[0:m:2] = caps
        cap[1:m:2] = caps
        cap[m::2] = [big] * ((len(cap) - m) // 2)
        value, level = _dinic(self.adj, self.head, cap, self.source, self.sink, big)
        return value, cap, level

    def solve(self, t) -> MaxFlowResult:
        """Max flow for the capacities t (missing edges have capacity 0), with
        circulations cancelled from the stream.

        The search runs on the ints scaled by D: with ``big`` scaled too,
        every min, difference and truth test is the Fraction run's times D,
        so the value and stream, divided by D, are the same Fractions.  The
        net flow of each edge, the flow added to its reverse arc, has its
        cycles cancelled on those ints (``_cancel_cycles``) before the stream
        is built, once, in edge order."""
        caps, D, back = _scale([t.get(e, 0) for e in self.edges])
        value, cap, level = self._max_flow(caps, D)
        head = self.head
        flow = [cap[2 * k + 1] - c for k, c in enumerate(caps)]
        _cancel_cycles(self.adj, head, flow)
        stream = Stream(self.d, self.n, {e: back(s) for e, s in zip(self.edges, flow) if s})
        cut = tuple(sorted(e for k, e in enumerate(self.edges)
                           if (level[head[2 * k + 1]] >= 0) != (level[head[2 * k]] >= 0)))
        return MaxFlowResult(value=back(value), stream=stream, cutset=cut)

    def sample_value(self, nums, D):
        """The flow value of one capacity sample of ``edges`` given as its
        numerators nums over the law's denominator D (``sample_numerators``
        with an ``EdgeHasher`` of ``edges``), equal in value and type to
        ``solve(sample_capacities(...)).value``, without the stream or the
        cut: the planar dual's shortest path when there is a dual, else
        Dinic for the value.  The ints run as they are, and no Fraction is
        built per edge."""
        if self.dual is not None:
            x = self.dual.shortest_path(nums)
        else:
            x = self._max_flow(nums, D)[0]
        return Fraction(x, D) if x else 0


def _scale(values):
    """(caps, D, back) for the capacities ``values`` of a network's edges:
    ints scaled by the lcm D of their denominators, and the map of a scaled
    result x back, Fraction(x, D) with a Fraction among them (the int 0 for
    no flow, as on Fractions), and x itself for ints.  A capacity that is
    neither an int nor a Fraction raises TypeError: a float, say, would
    otherwise come back multiplied by D."""
    ratios = [c.as_integer_ratio() for c in values]
    D = math.lcm(*{q for _, q in ratios})
    caps = [p * (D // q) for p, q in ratios]
    if caps and min(caps) < 0:
        raise ValueError("negative capacity")
    other = next((c for c in values if not isinstance(c, (int, Fraction))), None)
    if other is not None:
        raise TypeError(f"a capacity must be an int or a Fraction, got {other!r}")
    if any(isinstance(c, Fraction) for c in values):
        return caps, D, lambda x: Fraction(x, D) if x else 0
    return caps, D, lambda x: x


class _PlanarDual:
    """The dual of an (s, t)-planar network, whose max-flow value is the
    length of a shortest path between two outer faces (Hassin 1981).

    ``faces[f]`` lists (g, slot) for the primal edge in ``slot`` between
    faces f and g; network edge k is in ``slots[k]``, and a slot that holds
    no network edge weighs 0."""

    def __init__(self, faces, slots, nslots, start, stop):
        self.faces, self.slots, self.nslots = faces, slots, nslots
        self.start, self.stop = start, stop

    def shortest_path(self, caps):
        """Dijkstra from ``start`` to ``stop``, edge weights being the
        capacities (ints, so the length is exact)."""
        weight = [0] * self.nslots
        for slot, c in zip(self.slots, caps):
            weight[slot] += c
        faces, stop = self.faces, self.stop
        best = [sum(weight) + 1] * len(faces)
        best[self.start] = 0
        heap = [(0, self.start)]
        while True:
            du, u = heapq.heappop(heap)
            if u == stop:
                return du
            if du > best[u]:
                continue
            for v, slot in faces[u]:
                dv = du + weight[slot]
                if dv < best[v]:
                    best[v] = dv
                    heapq.heappush(heap, (dv, v))


def _planar_dual(d, vertices, edges, sources, sinks):
    """The planar dual of the network, or None.  It exists when d == 2, the
    vertices fill a lattice rectangle with at least one edge on each side,
    no vertex is both a source and a sink, and every terminal lies on the
    boundary cycle, where the sources form one arc and the sinks another.

    Join a super source to the sources and a super sink to the sinks, and
    draw an edge between the two outside the rectangle: the graph stays
    plane, and a minimum cut is a shortest dual path between the two faces
    beside that edge.  Dual nodes: one per unit cell, then one per run of
    boundary edges between consecutive terminals of the cycle, the outer
    face beyond those edges (terminal arcs are never cut, so their duals
    are left out).  The two runs from a source to a sink are the faces
    beside the added edge."""
    if d != 2 or not vertices or sources & sinks:
        return None
    (x0, x1), (y0, y1) = ((min(c), max(c)) for c in zip(*vertices))
    width, height = x1 - x0, y1 - y0
    if width < 1 or height < 1 or len(vertices) != (width + 1) * (height + 1):
        return None
    # the boundary cycle, counterclockwise from the lower left corner
    ring = ([(x, y0) for x in range(x0, x1)] + [(x1, y) for y in range(y0, y1)]
            + [(x, y1) for x in range(x1, x0, -1)] + [(x0, y) for y in range(y1, y0, -1)])
    label = [1 if v in sources else 2 if v in sinks else 0 for v in ring]
    at = [k for k, lab in enumerate(label) if lab]
    if len(at) != len(sources) + len(sinks):
        return None  # a terminal off the boundary cycle
    if sum(label[at[i - 1]] != label[at[i]] for i in range(len(at))) != 2:
        return None  # not one source arc and one sink arc
    # cell c = i * height + j has its lower left corner at (x0 + i, y0 + j);
    # edge (x, y, axis) is in slot 2 ((x - x0) (height + 1) + y - y0) + axis
    cells, step = width * height, 2 * (height + 1)
    faces = []
    for i in range(width):
        for j in range(height):
            c, s = i * height + j, i * step + 2 * j  # s: the cell's lower edge
            faces.append([(g, e) for g, e, inside in (
                (c - 1, s, j > 0), (c + 1, s + 2, j + 1 < height),
                (c - height, s + 1, i > 0), (c + height, s + step + 1, i + 1 < width)) if inside])
    ends = []
    for r, k in enumerate(at):
        stop = at[r + 1] if r + 1 < len(at) else at[0] + len(ring)
        if label[k] != label[stop % len(ring)]:
            ends.append(cells + r)
        run = []
        for j in range(k, stop):
            (x, y), (u, w) = ring[j % len(ring)], ring[(j + 1) % len(ring)]
            axis, x, y = int(x == u), min(x, u) - x0, min(y, w) - y0
            e = x * step + 2 * y + axis
            c = (x - (x == width)) * height + y - (y == height)  # the cell inside
            run.append((c, e))
            faces[c].append((cells + r, e))
        faces.append(run)
    slots = [(e.x[0] - x0) * step + 2 * (e.x[1] - y0) + e.axis for e in edges]
    return _PlanarDual(faces, slots, 2 * len(vertices), *ends)


def _cancel_cycles(adj, head, flow):
    """Cancel every circulation in ``flow`` in place, ``flow[k]`` being the
    net flow of edge k along its arc 2k, so that it decomposes into
    source-to-sink paths: each divergence stays, and each |flow[k]| only
    shrinks, keeping its sign.

    One depth-first walk, from each vertex in index order, follows the arcs
    of positive flow in adjacency order by the rule of ``_dinic``: one
    current-arc pointer per vertex, and a vertex is done once no arc with
    flow leads to a vertex not done.  A cycle the walk closes is cancelled
    by its smallest flow, and the walk resumes at the tail of the first arc
    emptied.  A cancel only empties arcs, and done vertices reach only done
    ones, so this cancels the cycles a walk restarted from the first vertex
    after each cancel would, in the same order.  Any number type works."""
    m = 2 * len(flow)
    f = [0] * m  # the flow along each edge arc; terminal arcs carry none here
    f[0::2] = flow
    f[1::2] = [-x for x in flow]
    it = [0] * len(adj)
    done = [False] * len(adj)
    at = [-1] * len(adj)  # a vertex's position on the path, -1 off it
    for root in range(len(adj)):
        path, u, at[root] = [], root, 0
        while not done[root]:
            arcs, i = adj[u], it[u]
            while i < len(arcs) and not (arcs[i] < m and f[arcs[i]] > 0 and not done[head[arcs[i]]]):
                i += 1
            it[u] = i
            if i == len(arcs):
                done[u] = True
                if path:
                    u = head[path.pop() ^ 1]
            elif at[head[arcs[i]]] < 0:
                path.append(arcs[i])
                u = head[arcs[i]]
                at[u] = len(path)
            else:
                start = at[head[arcs[i]]]
                cycle = path[start:] + [arcs[i]]
                c = min(f[a] for a in cycle)
                for a in cycle:
                    f[a] -= c
                    f[a ^ 1] += c
                j = next(j for j, a in enumerate(cycle) if not f[a])
                u = head[cycle[j] ^ 1]
                for a in path[start + j:]:
                    at[head[a]] = -1
                del path[start + j:]
    flow[:] = f[0::2]


def max_flow(L, t) -> MaxFlowResult:
    """phi_n(Gamma^1, Gamma^2, Omega) with a maximal admissible stream and a
    minimum cutset certificate (source-side residual reachability)."""
    return FlowNetwork(L.d, L.n, L.omega, L.active_edges, L.gamma1, L.gamma2).solve(t)


def tau_network(base, h) -> FlowNetwork:
    """The network of tau(A, h) at scale 1: the cylinder's upper half
    boundary as sources and its lower half as sinks.  It depends on (base,
    h) only, so one build serves every capacity sample."""
    from .geometry import cylinder_sets

    region, top_half, bot_half = cylinder_sets(base, h)
    return _cylinder_network(region, top_half, bot_half)


def cylinder_flow_tau(base, h, t):
    """tau(A, h): maximal flow from the upper to the lower half boundary."""
    return tau_network(base, h).solve(t)


def _cylinder_network(region, sources, sinks):
    verts = set(region.lattice_vertices(1))
    d = len(next(iter(verts))) if verts else 0
    terminals = sources | sinks
    edges = [e for e in inner_edges(verts) if not (e.x in terminals and e.right() in terminals)]
    return FlowNetwork(d, 1, verts, edges, sources, sinks)
