"""Reproducible i.i.d. edge capacities from bounded-support distributions.

Per-edge values come from a counter-based hash of (seed, edge coordinates),
so the result never depends on iteration order or thread count.  In exact
mode the values are Fractions; in float mode IEEE doubles.  Both modes draw
the same 64-bit word per edge, so discrete distributions sample identically
in either mode.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

MASK64 = (1 << 64) - 1


def mix64(*words) -> int:
    """splitmix64-style avalanche over a sequence of integer words."""
    h = 0x9E3779B97F4A7C15
    for w in words:
        h = (h ^ (w & MASK64)) * 0xBF58476D1CE4E5B9 & MASK64
        h ^= h >> 27
        h = h * 0x94D049BB133111EB & MASK64
        h ^= h >> 31
    h = (h ^ (h >> 33)) * 0xFF51AFD7ED558CCD & MASK64
    h ^= h >> 33
    return h


def edge_word(seed, edge) -> int:
    # offset coordinates so negative values hash distinctly from positives
    return mix64(seed, edge.axis + 1, *[c + (1 << 31) for c in edge.x])


def derive_seed(master, *tags) -> int:
    """Child seed for (master, tag...) streams, e.g. per-trial seeds."""
    return mix64(master, 0xD1B54A32D192ED03, *tags)


@dataclass(frozen=True)
class CapacityDistribution:
    """Bounded-support law G for the edge capacities.

    kinds: constant(c), bernoulli(a, b, p), uniform(a, b),
    discrete(values, probs).  The essential sup M is finite by construction.
    """

    kind: str
    params: tuple

    @classmethod
    def constant(cls, c):
        c = Fraction(c)
        if c < 0:
            raise ValueError("capacities must be nonnegative")
        return cls("constant", (c,))

    @classmethod
    def bernoulli(cls, a, b, p):
        a, b, p = Fraction(a), Fraction(b), Fraction(p)
        if not (0 <= p <= 1):
            raise ValueError("p must be in [0,1]")
        if a < 0 or b < 0:
            raise ValueError("capacities must be nonnegative")
        return cls("bernoulli", (a, b, p))

    @classmethod
    def uniform(cls, a, b):
        a, b = Fraction(a), Fraction(b)
        if a < 0 or b < a:
            raise ValueError("need 0 <= a <= b")
        return cls("uniform", (a, b))

    @classmethod
    def discrete(cls, values, probs):
        values = tuple(Fraction(v) for v in values)
        probs = tuple(Fraction(p) for p in probs)
        if any(v < 0 for v in values):
            raise ValueError("capacities must be nonnegative")
        if sum(probs) != 1:
            raise ValueError("probabilities must sum to 1")
        return cls("discrete", (values, probs))

    @property
    def support_bound(self) -> Fraction:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "bernoulli":
            return max(self.params[0], self.params[1])
        if self.kind == "uniform":
            return self.params[1]
        return max(self.params[0])

    def mean(self) -> Fraction:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "bernoulli":
            a, b, p = self.params
            return a * (1 - p) + b * p
        if self.kind == "uniform":
            a, b = self.params
            return (a + b) / 2
        values, probs = self.params
        return sum(v * p for v, p in zip(values, probs))

    def tail_mass(self, a) -> Fraction:
        """G([a, M]) = P(X >= a), used by the rate-function upper bound."""
        a = Fraction(a)
        if self.kind == "constant":
            return Fraction(int(self.params[0] >= a))
        if self.kind == "bernoulli":
            lo, hi, p = self.params
            m = Fraction(0)
            if lo >= a:
                m += 1 - p
            if hi >= a:
                m += p
            return m
        if self.kind == "uniform":
            lo, hi = self.params
            if a <= lo:
                return Fraction(1)
            if a >= hi:
                return Fraction(0)
            return (hi - a) / (hi - lo)
        values, probs = self.params
        return sum(p for v, p in zip(values, probs) if v >= a)

    def sampler(self, exact):
        """The map from one uniform 64-bit word to a sample.

        The discrete kinds compare the word exactly, so both numeric modes
        agree: u < p 2^64 is u < ceil(p 2^64), an integer fixed here once.
        A uniform sample is one integer ratio: reduced once into a Fraction,
        or rounded by one int true division into a float."""
        conv = (lambda v: v) if exact else float
        if self.kind == "constant":
            c = conv(self.params[0])
            return lambda u: c
        if self.kind == "bernoulli":
            a, b, p = self.params
            cut, a, b = math.ceil(p * (1 << 64)), conv(a), conv(b)
            return lambda u: b if u < cut else a
        if self.kind == "uniform":
            a, b = self.params
            w = b - a
            # a + w u / 2^64 = (top + step u) / den
            top = a.numerator * w.denominator << 64
            step = w.numerator * a.denominator
            den = a.denominator * w.denominator << 64
            if exact:
                return lambda u: Fraction(top + step * u, den)
            return lambda u: (top + step * u) / den
        values, probs = self.params
        cuts = [math.ceil(acc * (1 << 64)) for acc in accumulate(probs)]
        values = [conv(v) for v in values]
        return lambda u: next((v for cut, v in zip(cuts, values) if u < cut), values[-1])


@dataclass(frozen=True)
class Capacities:
    """Immutable map EdgeId -> t(e) plus the provenance that produced it."""

    values: dict
    dist: CapacityDistribution
    seed: int

    def __getitem__(self, edge):
        return self.values[edge]

    def get(self, edge, default=0):
        return self.values.get(edge, default)

    def __contains__(self, edge):
        return edge in self.values

    def __len__(self):
        return len(self.values)

    @property
    def support_bound(self):
        return self.dist.support_bound


def sample_capacities(edges, dist: CapacityDistribution, seed: int, exact=True) -> Capacities:
    """Sample t(e) for every edge of a LatticeDomain, Region or edge list.

    Deterministic in (seed, edge identity): the per-edge word is a hash of the
    seed and the integer edge coordinates, independent of enumeration order.
    """
    if hasattr(edges, "edges"):
        edge_list = edges.edges
    elif hasattr(edges, "lattice_vertices"):
        raise TypeError("pass region_edges(region, n) for a Region")
    else:
        edge_list = list(edges)
    draw = dist.sampler(exact)
    vals = {e: draw(edge_word(seed, e)) for e in edge_list}
    return Capacities(values=vals, dist=dist, seed=seed)


def region_edges(region, n, d=None):
    """Edges with left endpoint in the region (the set the S_n(C) conditions
    can see)."""
    from .geometry import EdgeId

    if d is None:
        d = len(region.boxes[0]) if region.boxes is not None else region.cylinder.d
    out = []
    for v in region.lattice_vertices(n):
        for j in range(d):
            out.append(EdgeId(tuple(v), j))
    return out


def dump_capacities(caps: Capacities) -> str:
    """Text export: one 'x1 ... xd axis value' line per edge, sorted."""
    lines = []
    for e in sorted(caps.values):
        v = caps.values[e]
        lines.append(" ".join(str(c) for c in e.x) + f" {e.axis} {value_repr(v)}")
    return "\n".join(lines) + "\n"


def load_capacities(text, dist=None, seed=0) -> Capacities:
    from .geometry import EdgeId

    vals = {}
    for line in text.strip().splitlines():
        parts = line.split()
        *coords, axis, value = parts
        vals[EdgeId(tuple(int(c) for c in coords), int(axis))] = parse_value(value)
    return Capacities(values=vals, dist=dist or CapacityDistribution.constant(0), seed=seed)


def value_repr(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    return repr(float(v))


def parse_value(s):
    if "/" in s:
        return Fraction(s)
    if "." in s or "e" in s or "E" in s or s in ("inf", "nan"):
        return float(s)
    return Fraction(s)
