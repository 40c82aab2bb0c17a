"""The discrete stream object and its derived quantities.

A stream assigns to each lattice edge a signed magnitude in the canonical
+e_axis orientation; the vector value on edge e is s(e) * e_axis.  Magnitudes
are ints and Fractions, so every quantity here is exact.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .geometry import EdgeId, half_open_ranges


@dataclass
class Stream:
    d: int
    n: int
    values: dict = field(default_factory=dict)

    def get(self, edge):
        return self.values.get(edge, 0)

    def set(self, edge, v):
        if v == 0:
            self.values.pop(edge, None)
        else:
            self.values[edge] = v

    def add(self, edge, v):
        self.set(edge, self.get(edge) + v)

    def copy(self):
        return Stream(self.d, self.n, dict(self.values))

    def scaled(self, c):
        out = Stream(self.d, self.n)
        if c != 0:
            for e, v in self.values.items():
                out.values[e] = c * v
        return out

    def __iadd__(self, other):
        if (self.d, self.n) != (other.d, other.n):
            raise ValueError("streams live on different lattices")
        for e, v in other.values.items():
            self.add(e, v)
        return self

    def __add__(self, other):
        out = self.copy()
        out += other
        return out

    def __sub__(self, other):
        return self + other.scaled(-1)

    def max_magnitude(self):
        return max((abs(v) for v in self.values.values()), default=0)


def incident_edges(x, d):
    """(edge, orientation) pairs at vertex x; orientation +1 when the edge
    leaves x in the canonical +e direction."""
    out = []
    for j in range(d):
        out.append((EdgeId(tuple(x), j), 1))
        y = list(x)
        y[j] -= 1
        out.append((EdgeId(tuple(y), j), -1))
    return out


def divergence_at(f: Stream, x) -> object:
    """Discrete divergence d f_n(x) = n * sum f(e).(y->x): the amount of water
    appearing at x.  A single edge of magnitude s gives -s at its left
    endpoint and +s at its right one; zero exactly when the node law holds."""
    acc = 0
    for e, orient in incident_edges(x, f.d):
        v = f.values.get(e)
        if v:
            # f(e).(vector y->x) * n = -orient * s(e)
            acc += -orient * v
    return acc


@dataclass
class AdmissibilityReport:
    inside: bool
    capacity: bool
    node_law: bool
    bad_support: list
    bad_capacity: list
    bad_vertices: list

    @property
    def admissible(self):
        return self.inside and self.capacity and self.node_law


def admissibility_report(f: Stream, t, L) -> AdmissibilityReport:
    """Three verdicts for f against a LatticeDomain: support inside
    Omega_n^2 minus (Gamma_n^1 u Gamma_n^2)^2, capacity bound, node law off
    the terminals."""
    allowed = set(L.active_edges)
    bad_support = [e for e in f.values if e not in allowed]
    bad_capacity = [e for e in f.values if abs(f.values[e]) > t.get(e, 0)]
    bad_vertices = [x for x in sorted(L.omega - L.gamma1 - L.gamma2) if divergence_at(f, x) != 0]
    return AdmissibilityReport(
        inside=not bad_support,
        capacity=not bad_capacity,
        node_law=not bad_vertices,
        bad_support=bad_support,
        bad_capacity=bad_capacity,
        bad_vertices=bad_vertices,
    )


def admissibility_region_report(f: Stream, t, region) -> AdmissibilityReport:
    """S_n(C) verdicts: capacity only for edges with left endpoint in C, node
    law only at vertices x with every x - e_i/n in C."""
    n, d = f.n, f.d
    bad_capacity = []
    for e, v in f.values.items():
        if region.contains_vertex(e.x, n) and abs(v) > t.get(e, 0):
            bad_capacity.append(e)
    verts = set()
    for e in f.values:
        verts.add(e.x)
        verts.add(e.right())
    bad_vertices = []
    for x in sorted(verts):
        if not region.contains_vertex(x, n):
            continue
        interior = True
        for j in range(d):
            y = list(x)
            y[j] -= 1
            if not region.contains_vertex(tuple(y), n):
                interior = False
                break
        if interior and divergence_at(f, x) != 0:
            bad_vertices.append(x)
    return AdmissibilityReport(
        inside=True,
        capacity=not bad_capacity,
        node_law=not bad_vertices,
        bad_support=[],
        bad_capacity=bad_capacity,
        bad_vertices=bad_vertices,
    )


def vector_measure(f: Stream):
    """The atomic measure mu_n(f) = (1/n^d) sum f(e) delta_{c(e)}."""
    from .measure import VectorMeasure

    scale = Fraction(1, f.n**f.d)
    atoms = []
    for e, v in sorted(f.values.items()):
        w = [0] * f.d
        w[e.axis] = v * scale
        atoms.append((e.midpoint(f.n), tuple(w)))
    return VectorMeasure(d=f.d, atoms=tuple(atoms))


def flow_value(f: Stream, L) -> object:
    """Water entering Omega_n through Gamma_n^1: sum over x in Gamma_n^1 and
    neighbours y in Omega_n of n f(e).(x->y)."""
    acc = 0
    for x in L.gamma1:
        for e, orient in incident_edges(x, f.d):
            v = f.values.get(e)
            if not v:
                continue
            other = e.right() if orient > 0 else e.x
            if other in L.omega:
                acc += orient * v
    return acc


def face_flux(f: Stream, face, axis, sign) -> object:
    """psi_axis^sign(f, A): signed stream intensity through the face in the
    +e_axis direction."""
    from .geometry import boundary_edge_set

    acc = 0
    for e in boundary_edge_set(axis, sign, face, f.n):
        v = f.values.get(e)
        if v:
            acc += v
    return acc


def constant_stream(b, vec, n) -> Stream:
    """The discretized version of the constant field vec restricted to the
    half-open box b: every edge with left endpoint in b carries vec[axis].
    Face fluxes through every mesoscopic cell of the box boundary come out
    exactly proportional to the cell area."""
    d = len(b)
    f = Stream(d, n)
    for coords in product(*half_open_ranges(b, n)):
        for j in range(d):
            if vec[j] != 0:
                f.values[EdgeId(tuple(coords), j)] = vec[j]
    return f


def transform(f: Stream, flips, offset) -> Stream:
    """Push a stream through per-axis reflections and an integer translation
    (at the stored integer scale).

    flips[k] reflects coordinate k via c -> -1 - c (which maps a half-open box
    onto a half-open box); the scalar of an edge along a flipped axis changes
    sign.  offset[k] is then added to coordinate k.
    """
    out = Stream(f.d, f.n)
    for e, v in f.values.items():
        tgt = [(-1 - c if flip else c) + o for c, flip, o in zip(e.x, flips, offset)]
        if flips[e.axis]:
            # edge [c, c+1] maps to [-2-c, -1-c]; left endpoint shifts
            tgt[e.axis] -= 1
            v = -v
        out.add(EdgeId(tuple(tgt), e.axis), v)
    return out


def dump_stream(f: Stream) -> str:
    """Bit-exact text format: header 'd n', then 'x1 ... xd axis value'."""
    lines = [f"{f.d} {f.n}"]
    for e in sorted(f.values):
        lines.append(" ".join(str(c) for c in e.x) + f" {e.axis} {f.values[e]}")
    return "\n".join(lines) + "\n"


def load_stream(text) -> Stream:
    """The stream of ``dump_stream``'s text; each value is read as the exact
    Fraction of the number written ('1/3', '2', or a decimal such as '0.1'),
    and anything else, 'inf' say, raises ValueError."""
    lines = text.strip().splitlines()
    d, n = (int(tok) for tok in lines[0].split())
    f = Stream(d, n)
    for line in lines[1:]:
        parts = line.split()
        coords = tuple(int(c) for c in parts[:d])
        f.values[EdgeId(coords, int(parts[d]))] = Fraction(parts[d + 1])
    return f
