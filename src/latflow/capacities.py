"""Reproducible i.i.d. edge capacities from bounded-support distributions.

Per-edge values come from a counter-based hash of (seed, edge
coordinates), so the result never depends on iteration order or thread
count.  An ``EdgeHasher`` does the seed-free part of that hash once per
edge list (the lattice line of each edge, each edge's last word packed
into a 128-bit lane of one int) and then hashes every edge at once per
seed with whole-int operations on the lanes; the tau, tail and rate trials
build one per edge list and share it across trials and threads.  A sample
is an integer numerator over one denominator D fixed by the law: the tau
and tail trials solve the numerators exactly, the rate trials round each
once, by the int true division x / D, into an IEEE double, and
``sample_capacities`` returns the Fraction x / D.  All draw the same 64-bit
word per edge, so discrete distributions sample identically in any of them.
"""

import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

MASK64 = (1 << 64) - 1
START = 0x9E3779B97F4A7C15  # the splitmix64 state before any word
OFFSET = 1 << 31  # added to each edge coordinate before hashing


def _absorb(h, words):
    """The splitmix64 state after mixing the words into state h."""
    for w in words:
        h = (h ^ (w & MASK64)) * 0xBF58476D1CE4E5B9 & MASK64
        h ^= h >> 27
        h = h * 0x94D049BB133111EB & MASK64
        h ^= h >> 31
    return h


def mix64(*words) -> int:
    """splitmix64-style avalanche over a sequence of integer words."""
    h = _absorb(START, words)
    h = (h ^ (h >> 33)) * 0xFF51AFD7ED558CCD & MASK64
    h ^= h >> 33
    return h


class EdgeHasher:
    """``mix64(seed, axis + 1, x_1 + 2^31, ..., x_d + 2^31)`` for each EdgeId
    of a fixed edge list, in order (the offset hashes negative coordinates
    apart from positive ones), for any seed.

    The edges of one lattice line share every word but the last coordinate.
    Built once per edge list: the line of each edge, each line's words, and
    each edge's last word in the low half of its own 128-bit lane of one
    int.  ``words(seed)`` mixes the seed and the words of each line once,
    then runs the last word's splitmix64 round and the finalizer on every
    lane at once as whole-int operations.  A lane's high half takes the
    carries of each multiply and the bits a right shift brings in from the
    next lane; masking it off (``& lanes``) after each multiply and before
    each one keeps every lane's low half the 64-bit arithmetic of one edge.
    ``words`` writes no state, so one hasher serves every thread."""

    def __init__(self, edges):
        self.edges = list(edges)
        line_index = {}
        self._lines = []
        self._line_of = []
        for x, axis in self.edges:
            head = x[:-1]
            k = line_index.get((axis, head))
            if k is None:
                k = line_index[axis, head] = len(self._lines)
                self._lines.append((axis + 1, *[c + OFFSET for c in head]))
            self._line_of.append(k)
        self._last = _pack([(x[-1] + OFFSET) & MASK64 for x, _ in self.edges])
        self._lanes = _pack([MASK64] * len(self.edges))

    def words(self, seed) -> list:
        """The 64-bit words of the edges for this seed, in order."""
        h0 = _absorb(START, (seed,))
        states = [_absorb(h0, line) for line in self._lines]
        lanes = self._lanes
        h = _pack(list(map(states.__getitem__, self._line_of))) ^ self._last
        h = h * 0xBF58476D1CE4E5B9 & lanes
        h = (h ^ (h >> 27)) & lanes
        h = h * 0x94D049BB133111EB & lanes
        h ^= h >> 31
        h = (h ^ (h >> 33)) & lanes
        h = h * 0xFF51AFD7ED558CCD & lanes
        return _unpack(h ^ (h >> 33), len(self.edges))


def _pack(values) -> int:
    """The int whose 128-bit lane k holds values[k] (each below 2^64)."""
    lanes = array("Q", bytes(16 * len(values)))
    lanes[0::2] = array("Q", values)
    if sys.byteorder == "big":
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def _unpack(h, m) -> list:
    """The low 64 bits of each of the m 128-bit lanes of h, in order."""
    lanes = array("Q", h.to_bytes(16 * m, "little"))
    if sys.byteorder == "big":
        lanes.byteswap()
    return lanes[0::2].tolist()


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

    def scaled_sampler(self):
        """(D, draw): the law's one denominator D and the map from one
        uniform 64-bit word to the sample's exact numerator over D.

        The discrete kinds compare the word exactly: u < p 2^64 is
        u < ceil(p 2^64), an integer fixed here once; their values are
        scaled to the lcm D of their denominators.  A uniform sample is
        a + (b - a) u / 2^64 = (top + step u) / den."""
        if self.kind == "uniform":
            a, b = self.params
            w = b - a
            top = a.numerator * w.denominator << 64
            step = w.numerator * a.denominator
            return a.denominator * w.denominator << 64, lambda u: top + step * u
        if self.kind == "constant":
            values, cuts = self.params, []
        elif self.kind == "bernoulli":
            a, b, p = self.params
            values, cuts = (b, a), [math.ceil(p * (1 << 64))]
        else:
            values, probs = self.params
            cuts = [math.ceil(acc * (1 << 64)) for acc in accumulate(probs)][:-1]
        D = math.lcm(*(v.denominator for v in values))
        nums = [v.numerator * (D // v.denominator) for v in values]
        # the first value whose cut exceeds u (the last value past every cut)
        return D, lambda u: nums[bisect_right(cuts, u)]

def sample_capacities(edges, dist: CapacityDistribution, seed: int) -> dict:
    """Sample t(e) for every edge of a LatticeDomain, Region or edge list:
    ``{EdgeId: value}``, each numerator x of ``sample_numerators`` read as
    the Fraction x / D.

    Deterministic in (seed, edge identity): the per-edge word is a hash of the
    seed and the integer edge coordinates, independent of enumeration order.
    """
    if hasattr(edges, "edges"):
        edge_list = edges.edges
    elif hasattr(edges, "lattice_vertices"):
        raise TypeError("pass region_edges(region, n) for a Region")
    else:
        edge_list = list(edges)
    nums, D = sample_numerators(EdgeHasher(edge_list), dist, seed)
    return {e: Fraction(x, D) for e, x in zip(edge_list, nums)}


def sample_numerators(hasher: EdgeHasher, dist: CapacityDistribution, seed: int):
    """(nums, D): the samples on the hasher's edges, in order, each as its
    exact numerator over the law's denominator D."""
    D, draw = dist.scaled_sampler()
    return list(map(draw, hasher.words(seed))), D


def region_edges(region, n):
    """Edges with left endpoint in the region (the set the S_n(C) conditions
    can see)."""
    from .geometry import EdgeId

    return [EdgeId(v, j) for v in region.lattice_vertices(n) for j in range(len(v))]
