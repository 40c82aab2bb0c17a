"""Seeded workload definitions for the latflow benchmark.

Each workload is a *pass*: a fixed list of ``latflow`` CLI invocations whose
configs (and, for ``distance``, measure JSON files) are generated here from
the workload seed.  The program under test only ever sees those files.

Seeds are folded onto ``VARIANTS`` input variants (``seed % VARIANTS``), so
every seed has recorded reference outputs in ``reference.json``; seeds that
are congruent modulo ``VARIANTS`` give identical inputs.  ``DEFAULT_SEED`` is
the seed to tune with and ``CONFIRM_SEED`` a second one, on another variant,
for confirming a claim.
"""

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

VARIANTS = 32
DEFAULT_SEED = 1
CONFIRM_SEED = 17

RATE_EPS = ["3/10", "1/2", "3/4", "1"]
RATE_TRIALS = 16
FLOW_N_LIST = [8, 16, 32]
FLOW_TRIALS = 3
TAIL_LAMBDAS = ["9/32", "5/16", "21/64", "11/32"]
TAIL_TRIALS = 20
TAIL_THREADS = 2
DISTANCE_K_MAX = 12
LATTICE_N = 12


@dataclass
class Invocation:
    """One CLI run: ``latflow <subcommand> --config <config>``."""

    subcommand: str
    config: dict
    units: int
    label: str = ""
    # key into reference.json for this invocation's output, if it has one
    ref_key: str = None


@dataclass
class Workload:
    name: str
    seed: int
    variant: int
    threads: int
    trials: int  # Monte Carlo trials per pass (0 for distance)
    passes: list  # the invocations of one pass
    setup: Invocation  # the same config cut to its first unit
    files: dict = field(default_factory=dict)  # generated measure files

    @property
    def units(self):
        return sum(inv.units for inv in self.passes)


def variant_of(seed):
    return seed % VARIANTS


def _rng(name, variant):
    return random.Random(f"latflow-bench/{name}/{variant}")


def _config_seed(name, variant):
    return _rng(name, variant).randrange(1, 2**31)


def _rate(variant):
    seed = _config_seed("rate", variant)

    def cfg(trials):
        return {
            "seed": seed,
            "mode": "float",
            "threads": 1,
            "rate": {
                "d": 2, "n": 6, "s": "1/2", "v": ["1", "0"], "eps": RATE_EPS,
                "trials": trials,
                "dist": {"kind": "bernoulli", "a": "0", "b": "1", "p": "1/2"},
            },
        }

    full = Invocation("rate", cfg(RATE_TRIALS), RATE_TRIALS, "rate")
    setup = Invocation("rate", cfg(1), 1, "rate-setup")
    return 1, RATE_TRIALS, [full], setup, {}


def _flow_constant(variant):
    seed = _config_seed("flow-constant", variant)

    def cfg(n_list, trials):
        return {
            "seed": seed,
            "mode": "exact",
            "threads": 1,
            "flow_constant": {
                "d": 2, "n_list": n_list, "h": "n", "trials": trials,
                "dist": {"kind": "uniform", "a": "0", "b": "1"},
            },
        }

    units = FLOW_TRIALS * len(FLOW_N_LIST)
    full = Invocation("flow-constant", cfg(FLOW_N_LIST, FLOW_TRIALS), units,
                      "flow-constant", ref_key="nu.csv")
    setup = Invocation("flow-constant", cfg(FLOW_N_LIST[:1], 1), 1, "flow-constant-setup")
    return 1, FLOW_TRIALS, [full], setup, {}


def _tail(variant):
    seed = _config_seed("tail", variant)

    def cfg(trials):
        return {
            "seed": seed,
            "mode": "float",
            "threads": TAIL_THREADS,
            "tail": {
                "domain": "unit_square", "n": 24, "lam": TAIL_LAMBDAS,
                "trials": trials,
                "dist": {"kind": "uniform", "a": "0", "b": "1"},
            },
        }

    full = Invocation("tail", cfg(TAIL_TRIALS), TAIL_TRIALS, "tail", ref_key="successes")
    setup = Invocation("tail", cfg(1), 1, "tail-setup")
    return TAIL_THREADS, TAIL_TRIALS, [full], setup, {}


def _frac(x):
    return str(Fraction(x))


def lattice_atoms(n, vec):
    """Measure JSON of the constant lattice stream ``vec`` on the unit square
    at scale n: one atom per edge midpoint, weight vec[axis] / n^2."""
    atoms = []
    for x in range(n):
        for y in range(n):
            for axis, val in enumerate(vec):
                if val == 0:
                    continue
                point = [Fraction(x, n), Fraction(y, n)]
                point[axis] += Fraction(1, 2 * n)
                weight = [Fraction(0), Fraction(0)]
                weight[axis] = val / n**2
                atoms.append({"point": [_frac(c) for c in point],
                              "weight": [_frac(c) for c in weight]})
    return {"d": 2, "atoms": atoms, "densities": []}


def unit_square_density(vec):
    return {"d": 2, "atoms": [],
            "densities": [{"box": [["0", "1"], ["0", "1"]], "value": [_frac(c) for c in vec]}]}


def random_boxes(rng, count=2, grid=8):
    """``count`` separated random boxes of the 1/grid lattice."""
    boxes = []
    while len(boxes) < count:
        lo = [rng.randint(-grid, grid - 2) for _ in range(2)]
        hi = [l + rng.randint(1, 3) for l in lo]
        b = [(Fraction(l, grid), Fraction(h, grid)) for l, h in zip(lo, hi)]
        if all(max(max(blo - ahi, alo - bhi) for (alo, ahi), (blo, bhi) in zip(b, o))
               >= Fraction(1, grid) for o in boxes):
            boxes.append(b)
    return boxes


def random_density(rng, boxes):
    """Piecewise-constant density on ``boxes`` with random nonzero values in
    eighths (the shape of the distance-lemma acceptance pairs)."""
    eighths = [k for k in range(-8, 9) if k]
    return {"d": 2, "atoms": [], "densities": [
        {"box": [[_frac(lo), _frac(hi)] for lo, hi in b],
         "value": [_frac(Fraction(rng.choice(eighths), 8)) for _ in range(2)]}
        for b in boxes
    ]}


# The box layout of the density pairs sets the cost of a distance evaluation
# (a random layout varies it twofold), so it is drawn once, the same for
# every seed; the seed draws the density values and the lattice field.
_LAYOUT_RNG = random.Random("latflow-bench/distance/layout")
DENSITY_LAYOUT = [(random_boxes(_LAYOUT_RNG), random_boxes(_LAYOUT_RNG)) for _ in range(3)]


def _distance(variant):
    rng = _rng("distance", variant)
    # constant field (+-1, 0) or (0, +-1): the weight's denominator sets the
    # cost of the Fraction arithmetic, so it is the same for every seed
    vec = [Fraction(rng.choice((1, -1))), Fraction(0)]
    if rng.random() < 0.5:
        vec.reverse()
    files = {}
    pairs = []
    # the first unit is a cheap density pair, so the lattice pair is timed
    # in units_per_s rather than hidden in setup_s
    layouts = iter(DENSITY_LAYOUT)
    for label in ("density-0", "lattice", "density-1", "density-2"):
        if label == "lattice":
            a, b = lattice_atoms(LATTICE_N, vec), unit_square_density(vec)
        else:
            boxes_a, boxes_b = next(layouts)
            a, b = random_density(rng, boxes_a), random_density(rng, boxes_b)
        files[f"{label}-a.json"] = a
        files[f"{label}-b.json"] = b
        pairs.append(label)

    def inv(label):
        cfg = {"distance": {"measure_a": f"{label}-a.json", "measure_b": f"{label}-b.json",
                            "k_max": DISTANCE_K_MAX}}
        return Invocation("distance", cfg, 1, label, ref_key=label)

    full = [inv(label) for label in pairs]
    return 1, 0, full, inv(pairs[0]), files


_GENERATORS = {
    "rate": _rate,
    "flow-constant": _flow_constant,
    "tail": _tail,
    "distance": _distance,
}
NAMES = tuple(_GENERATORS)


def build(name, seed):
    """The workload ``name`` generated from ``seed``."""
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    variant = variant_of(seed)
    threads, trials, passes, setup, files = _GENERATORS[name](variant)
    return Workload(name, seed, variant, threads, trials, passes, setup, files)


def materialize(workload, directory):
    """Write the generated measure files into ``directory``; configs refer
    to them by name, relative to the directory the CLI runs in."""
    os.makedirs(directory, exist_ok=True)
    for fname, payload in workload.files.items():
        with open(os.path.join(directory, fname), "w") as fh:
            json.dump(payload, fh, sort_keys=True)
