"""Experiment orchestration: YAML config, subcommands, CSV/JSON outputs and
reproducibility manifests.

Exit codes: 0 ok, 2 config error, 3 invariant violation.
"""

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import product

import yaml

from . import __version__
from .measure import DistanceOptions, distance, from_json


class ConfigError(Exception):
    pass


def _need(cfg, key, path):
    if key not in cfg:
        raise ConfigError(f"{path}.{key}: missing required field")
    return cfg[key]


def _read_file(cfg, key, path, parse):
    """parse() of the text of the file named by cfg[key]; a file that cannot
    be read or parsed is a config error naming the field."""
    name = _need(cfg, key, path)
    if not isinstance(name, str):
        raise ConfigError(f"{path}.{key}: expected a file path, got {name!r}")
    try:
        with open(name) as fh:
            return parse(fh.read())
    except OSError as exc:
        raise ConfigError(f"{path}.{key}: cannot read the file: {exc}")
    except (ValueError, LookupError, TypeError, ArithmeticError) as exc:
        raise ConfigError(f"{path}.{key}: malformed file {name!r}: {type(exc).__name__}: {exc}")


def _need_list(cfg, key, path):
    """cfg[key] as a non-empty YAML list: a scalar or a string is never read
    as a sequence of its characters."""
    vals = _need(cfg, key, path)
    if not isinstance(vals, list) or not vals:
        raise ConfigError(f"{path}.{key}: expected a non-empty list, got {vals!r}")
    return vals


def _as_int(v, path, minimum=None, maximum=None):
    if not isinstance(v, int) or isinstance(v, bool):
        raise ConfigError(f"{path}: expected an integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {v!r}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {v!r}")
    return v


def _as_frac(v, path):
    """A value that stays rational, read by ``frac``: a float only when it is
    exactly the decimal written, and never a boolean (YAML true/false)."""
    from .geometry import frac

    if isinstance(v, float) and math.isfinite(v):
        try:
            return frac(v)
        except ValueError as exc:  # not exactly the decimal written
            raise ConfigError(f"{path}: {exc}")
    try:
        if not isinstance(v, bool):
            return frac(v)
    except Exception:
        pass
    raise ConfigError(f"{path}: expected a rational like '1/2', got {v!r}")


def parse_distribution(cfg, path="dist"):
    from .capacities import CapacityDistribution

    kind = _need(cfg, "kind", path)
    try:
        if kind == "constant":
            return CapacityDistribution.constant(_as_frac(_need(cfg, "c", path), f"{path}.c"))
        if kind == "bernoulli":
            return CapacityDistribution.bernoulli(
                _as_frac(_need(cfg, "a", path), f"{path}.a"),
                _as_frac(_need(cfg, "b", path), f"{path}.b"),
                _as_frac(_need(cfg, "p", path), f"{path}.p"),
            )
        if kind == "uniform":
            return CapacityDistribution.uniform(
                _as_frac(_need(cfg, "a", path), f"{path}.a"),
                _as_frac(_need(cfg, "b", path), f"{path}.b"),
            )
        if kind == "discrete":
            return CapacityDistribution.discrete(
                [_as_frac(v, f"{path}.values") for v in _need_list(cfg, "values", path)],
                [_as_frac(p, f"{path}.probs") for p in _need_list(cfg, "probs", path)],
            )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")
    raise ConfigError(f"{path}.kind: unknown distribution kind {kind!r}")


def parse_domain(cfg, path="domain"):
    from .geometry import DomainSpec, unit_box_domain, unit_square_domain

    if isinstance(cfg, str):
        if cfg == "unit_square":
            return unit_square_domain()
        if cfg.startswith("unit_box_d"):
            try:
                return unit_box_domain(int(cfg.removeprefix("unit_box_d")))
            except ValueError:
                pass
        raise ConfigError(f"{path}: unknown named domain {cfg!r}")
    d = _as_int(_need(cfg, "d", path), f"{path}.d", minimum=2)

    def read_boxes(key):
        boxes = []
        for i, b in enumerate(_need_list(cfg, key, path)):
            p = f"{path}.{key}[{i}]"
            if not isinstance(b, list) or len(b) != d or any(
                    not isinstance(iv, list) or len(iv) != 2 for iv in b):
                raise ConfigError(f"{p}: expected {d} [lo, hi] axis intervals, got {b!r}")
            boxes.append(tuple((_as_frac(lo, p), _as_frac(hi, p)) for lo, hi in b))
        return tuple(boxes)

    boxes, source, sink = read_boxes("boxes"), read_boxes("source"), read_boxes("sink")
    try:
        return DomainSpec(d=d, boxes=boxes, source=source, sink=sink)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _versions():
    """Python, PyYAML and numpy as this process loaded them; numpy is None
    when the run never imported it (only the rate solver does)."""
    numpy = sys.modules.get("numpy")
    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "pyyaml": yaml.__version__,
        "numpy": numpy.__version__ if numpy is not None else None,
    }


def _write_manifest(out_dir, subcommand, cfg, seed, mode):
    """``mode`` is the arithmetic of the run's capacity samples, None for a
    subcommand with none; ``threads`` is 1, since every run makes its trials
    one after another in one process."""
    payload = {
        "subcommand": subcommand,
        "config": cfg,
        "seed": seed,
        "mode": mode,
        "threads": 1,
        "version": __version__,
        "versions": _versions(),
    }
    _write_json(out_dir, "manifest.json", payload)


def _write_json(out_dir, name, payload):
    """Write payload to out_dir/name with sorted keys, a trailing newline,
    and str() for values JSON has no type for (the manifest's config)."""
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")


def _write_csv(path, header, rows):
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(c) for c in row])


def _cell(c):
    if isinstance(c, float):
        return repr(c)
    if isinstance(c, Fraction):
        return repr(float(c))
    return c


def _common(cfg, args):
    """The run's seed and output directory.  The thread count, the
    ``--threads`` flag else the config's ``threads``, is validated only: the
    trials run one after another whatever it says."""
    seed = _as_int(cfg.get("seed", 0), "seed")
    _as_int(args.threads if args.threads is not None else cfg.get("threads", 1), "threads", minimum=1)
    out_dir = args.out_dir or cfg.get("out_dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    return seed, out_dir


def cmd_maxflow(cfg, args):
    seed, out_dir = _common(cfg, args)
    sub = _need(cfg, "maxflow", "config")
    domain = parse_domain(_need(sub, "domain", "maxflow"), "maxflow.domain")
    n = _as_int(_need(sub, "n", "maxflow"), "maxflow.n", minimum=1)
    dist = parse_distribution(_need(sub, "dist", "maxflow"), "maxflow.dist")
    from .capacities import sample_capacities
    from .geometry import discretize_domain
    from .maxflow import max_flow
    from .stream import admissibility_report, dump_stream

    L = discretize_domain(domain, n)
    t = sample_capacities(L, dist, seed)
    res = max_flow(L, t)
    report = admissibility_report(res.stream, t, L)
    cut_cap = res.cut_capacity(t)
    duality = res.value == cut_cap
    with open(os.path.join(out_dir, "stream.txt"), "w") as fh:
        fh.write(dump_stream(res.stream))
    with open(os.path.join(out_dir, "cut.txt"), "w") as fh:
        for e in res.cutset:
            fh.write(" ".join(str(c) for c in e.x) + f" {e.axis}\n")
    summary = {
        "value": float(res.value),
        "cut_capacity": float(cut_cap),
        "flow_equals_cut": bool(duality),
        "admissible": bool(report.admissible),
        "edges": len(L.edges),
        "vertices": len(L.omega),
    }
    _write_json(out_dir, "summary.json", summary)
    _write_manifest(out_dir, "maxflow", cfg, seed, "exact")
    if not duality or not report.admissible:
        print("invariant violation: duality or admissibility failed", file=sys.stderr)
        return 3
    return 0


def cmd_tau(cfg, args):
    seed, out_dir = _common(cfg, args)
    sub = _need(cfg, "tau", "config")
    d = _as_int(sub.get("d", 2), "tau.d", minimum=2)
    side = _as_int(_need(sub, "side", "tau"), "tau.side", minimum=1)
    h = _as_int(_need(sub, "h", "tau"), "tau.h", minimum=1)
    axis = _as_int(sub.get("axis", d - 1), "tau.axis", minimum=0, maximum=d - 1)
    dist = parse_distribution(_need(sub, "dist", "tau"), "tau.dist")
    from .estimate import straight_tau_sampler

    tau = straight_tau_sampler(d, side, h, axis, dist)(seed)
    summary = {"tau": float(tau), "side": side, "h": h, "d": d}
    _write_json(out_dir, "tau.json", summary)
    _write_manifest(out_dir, "tau", cfg, seed, "exact")
    return 0


def cmd_decompose(cfg, args):
    seed, out_dir = _common(cfg, args)
    sub = _need(cfg, "decompose", "config")
    domain = parse_domain(_need(sub, "domain", "decompose"), "decompose.domain")
    from .geometry import discretize_domain
    from .reconnect import decompose, recompose
    from .stream import load_stream

    f = _read_file(sub, "stream", "decompose", load_stream)

    L = discretize_domain(domain, f.n)
    try:
        paths = decompose(f, L)
    except ValueError as exc:  # the stream breaks the node law or has a circulation
        raise ConfigError(f"decompose.stream: {exc}")
    rebuilt = recompose(paths, f.d, f.n)
    exact = rebuilt.values == f.values
    payload = {
        "paths": [
            {"vertices": [list(v) for v in verts], "weight": _cell(float(w))}
            for verts, w in paths
        ],
        "count": len(paths),
        "reconstruction_exact": bool(exact),
    }
    _write_json(out_dir, "paths.json", payload)
    _write_manifest(out_dir, "decompose", cfg, seed, None)
    return 0 if exact else 3


def _mix_values(sub, key, count=None):
    """The rationals listed in mix_demo[key], exactly count of them when
    count is given."""
    vals = _need_list(sub, key, "mix_demo")
    if count is not None and len(vals) != count:
        raise ConfigError(f"mix_demo.{key}: expected a list of r^(d-1) = {count} values, got {vals!r}")
    return [_as_frac(v, f"mix_demo.{key}") for v in vals]


def cmd_mix_demo(cfg, args):
    seed, out_dir = _common(cfg, args)
    sub = _need(cfg, "mix_demo", "config")
    kind = sub.get("kind", "mix2d")
    M = _as_frac(sub.get("M", 1), "mix_demo.M")
    from . import reconnect
    from .stream import dump_stream

    if kind == "mix2d":
        build, build_args = reconnect.mix2d, (_mix_values(sub, "inputs"), M)
    elif kind == "mix":
        r = _as_int(_need(sub, "r", "mix_demo"), "mix_demo.r", minimum=1)
        d = _as_int(sub.get("d", 2), "mix_demo.d", minimum=2)
        fin = _mix_values(sub, "inputs", r ** (d - 1))
        fout = _mix_values(sub, "outputs", r ** (d - 1))
        keys = list(product(range(1, r + 1), repeat=d - 1))
        m = _as_int(_need(sub, "m", "mix_demo"), "mix_demo.m")
        build, build_args = reconnect.mix, (dict(zip(keys, fin)), dict(zip(keys, fout)), m, M)
    else:
        raise ConfigError(f"mix_demo.kind: unsupported kind {kind!r}")
    try:
        g = build(*build_args)
    except ValueError as exc:  # inputs the construction rejects
        raise ConfigError(f"mix_demo: {exc}")
    with open(os.path.join(out_dir, "mix_stream.txt"), "w") as fh:
        fh.write(dump_stream(g))
    summary = {
        "support": len(g.values),
        "max_magnitude": float(g.max_magnitude()),
        "within_bound": bool(g.max_magnitude() <= M),
    }
    _write_json(out_dir, "mix.json", summary)
    _write_manifest(out_dir, "mix-demo", cfg, seed, None)
    return 0 if summary["within_bound"] else 3


def cmd_distance(cfg, args):
    seed, out_dir = _common(cfg, args)
    sub = _need(cfg, "distance", "config")
    mu = _read_file(sub, "measure_a", "distance", from_json)
    nu = _read_file(sub, "measure_b", "distance", from_json)
    opts = DistanceOptions(k_max=_as_int(sub.get("k_max", 12), "distance.k_max", minimum=1))
    br = distance(mu, nu, opts)
    payload = {
        "lower": br.lower,
        "upper": br.upper,
        "gap": br.gap,
        "k_max": br.k_max,
        "grid": br.grid,
    }
    _write_json(out_dir, "distance.json", payload)
    _write_manifest(out_dir, "distance", cfg, seed, None)
    return 0


def cmd_rate(cfg, args):
    seed, out_dir = _common(cfg, args)
    sub = _need(cfg, "rate", "config")
    d = _as_int(sub.get("d", 2), "rate.d", minimum=2)
    n = _as_int(_need(sub, "n", "rate"), "rate.n", minimum=1)
    s = _as_frac(_need(sub, "s", "rate"), "rate.s")
    v = [_as_frac(c, "rate.v") for c in _need_list(sub, "v", "rate")]
    if len(v) != d:
        raise ConfigError("rate.v: must have d components")
    eps_list = [_as_frac(e, "rate.eps") for e in _need_list(sub, "eps", "rate")]
    trials = _as_int(_need(sub, "trials", "rate"), "rate.trials", minimum=1)
    dist = parse_distribution(_need(sub, "dist", "rate"), "rate.dist")
    from .estimate import estimate_rate

    results = estimate_rate(s, v, eps_list, n, trials, dist, seed, d=d)
    header = ["s"] + [f"v{j+1}" for j in range(d)] + [
        "eps", "n", "trials", "successes", "phat", "lo", "hi", "Ihat", "Ihat_is_bound",
    ]
    rows = []
    for r in results:
        # with no success, Ihat is the bound -log(hi) / n^d, not -log(phat) / n^d
        bound = r.successes == 0
        rows.append([float(s)] + [float(c) for c in v] + [
            r.eps, n, r.trials, r.successes, r.p_hat, r.ci_lo, r.ci_hi,
            r.i_hat_bound if bound else r.i_hat, int(bound),
        ])
    _write_csv(os.path.join(out_dir, "rate.csv"), header, rows)
    _write_manifest(out_dir, "rate", cfg, seed, "float")
    return 0


def cmd_flow_constant(cfg, args):
    seed, out_dir = _common(cfg, args)
    sub = _need(cfg, "flow_constant", "config")
    d = _as_int(sub.get("d", 2), "flow_constant.d", minimum=2)
    axis = _as_int(sub.get("axis", d - 1), "flow_constant.axis", minimum=0, maximum=d - 1)
    n_list = [_as_int(n, "flow_constant.n_list", minimum=1)
              for n in _need_list(sub, "n_list", "flow_constant")]
    h_mode = sub.get("h", "n")
    trials = _as_int(_need(sub, "trials", "flow_constant"), "flow_constant.trials", minimum=1)
    dist = parse_distribution(_need(sub, "dist", "flow_constant"), "flow_constant.dist")
    if h_mode == "n":
        h_of_n = lambda n: n
    else:
        h = _as_int(h_mode, "flow_constant.h", minimum=1)
        h_of_n = lambda n: h
    from .estimate import estimate_flow_constant

    points = estimate_flow_constant(dist, axis, n_list, h_of_n, trials, seed, d=d)
    header = ["n", "h", "trials", "mean", "lo", "hi"]
    rows = [[p.n, p.h, p.trials, p.mean, p.ci_lo, p.ci_hi] for p in points]
    _write_csv(os.path.join(out_dir, "nu.csv"), header, rows)
    _write_manifest(out_dir, "flow-constant", cfg, seed, "exact")
    return 0


def cmd_tail(cfg, args):
    seed, out_dir = _common(cfg, args)
    sub = _need(cfg, "tail", "config")
    domain = parse_domain(_need(sub, "domain", "tail"), "tail.domain")
    n = _as_int(_need(sub, "n", "tail"), "tail.n", minimum=1)
    lams = [_as_frac(l, "tail.lam") for l in _need_list(sub, "lam", "tail")]
    trials = _as_int(_need(sub, "trials", "tail"), "tail.trials", minimum=1)
    dist = parse_distribution(_need(sub, "dist", "tail"), "tail.dist")
    from .geometry import discretize_domain

    L = discretize_domain(domain, n)
    from .estimate import tail_probability

    d = L.d
    header = ["lam", "n", "trials", "successes", "phat", "lo", "hi",
              "neglog_per_nd1", "neglog_per_nd"]
    rows = []
    results = tail_probability(lams, n, trials, dist, seed, L)
    for lam, (p, (lo, hi), successes) in zip(lams, results):
        # p <= 1, so -log p = |log p|, and abs gives 0.0, not -0.0, at p = 1
        neglog = abs(math.log(p)) if p > 0 else float("inf")
        rows.append([lam, n, trials, successes, p, lo, hi,
                     neglog / n ** (d - 1), neglog / n**d])
    _write_csv(os.path.join(out_dir, "tail.csv"), header, rows)
    _write_manifest(out_dir, "tail", cfg, seed, "exact")
    return 0


COMMANDS = {
    "maxflow": cmd_maxflow,
    "tau": cmd_tau,
    "decompose": cmd_decompose,
    "mix-demo": cmd_mix_demo,
    "distance": cmd_distance,
    "rate": cmd_rate,
    "flow-constant": cmd_flow_constant,
    "tail": cmd_tail,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="latflow", description=__doc__)
    parser.add_argument("subcommand", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="YAML experiment config")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--out-dir", default=None)
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.subcommand](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
