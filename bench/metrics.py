"""The benchmark's arithmetic: medians, the percentile rule, self time,
end-to-end derivations and per-layer metrics from traced spans."""

import math
import statistics

# Metric names, units and directions are listed once, in BENCHMARK.json;
# this module computes the value behind each name.

# spans whose per-call durations get a median and a tail percentile
TIMED = ("estimate.min_distance", "maxflow.max_flow", "maxflow.cylinder_flow_tau",
         "measure.distance")
ESTIMATORS = ("estimate.estimate_rate", "estimate.estimate_flow_constant",
              "estimate.tail_probability")


def median(values):
    return statistics.median(values)


def tail_percentile(count):
    """The highest whole percentile with at least ten of ``count`` samples
    beyond it (nearest rank); 50 when no percentile above the median has."""
    pct = math.floor(100 * (count - 10) / count) if count > 10 else 0
    return pct if pct > 50 else 50


def percentiles(samples, basis=None):
    """Median and tail of ``samples`` with the sample count.

    The tail percentile follows the rule for ``basis`` samples (default: all
    of them), so a caller that gathers a varying number of samples can fix
    the percentile; with ``basis`` at most ``len(samples)`` at least ten
    samples still lie beyond it.  Below twenty samples the tail is the
    median itself (``tail_pct`` 50)."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0, "samples": 0}
    p50 = statistics.median(xs)
    pct = tail_percentile(n if basis is None else min(basis, n))
    if pct == 50:
        return {"p50": p50, "tail": p50, "tail_pct": 50, "samples": n}
    rank = math.ceil(pct * n / 100)  # 1-based; n - rank >= 10 samples lie beyond
    return {"p50": p50, "tail": xs[rank - 1], "tail_pct": pct, "samples": n}


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span, children):
    """Duration of ``span`` minus the part of it its child spans cover; the
    children may run on other threads and overlap each other."""
    covered = covered_length([(c["start"], c["end"]) for c in children], span["start"], span["end"])
    return (span["end"] - span["start"]) - covered


def end_to_end(walls, setups, units):
    """wall_s and setup_s as medians; units_per_s = units / (wall_s - setup_s)."""
    wall_s = median(walls)
    setup_s = median(setups)
    if wall_s <= setup_s:
        raise ValueError(f"pass wall {wall_s:.3f} s is not longer than set-up {setup_s:.3f} s")
    return {"wall_s": wall_s, "setup_s": setup_s, "units_per_s": units / (wall_s - setup_s)}


def failed_frac(failed, attempted):
    if attempted <= 0:
        raise ValueError("no units attempted")
    return failed / attempted


def pass_layers(processes, trials, threads):
    """Per-layer values of one traced pass.

    ``processes`` holds the span list of each traced CLI process of the pass
    (span ids are unique within a process only); ``trials`` is the pass's
    Monte Carlo trial count and ``threads`` the thread count passed to it.
    Returns (metrics, durations) where durations maps each TIMED span name to
    its per-call durations in ms."""
    calls, busy, selfs, extra = {}, {}, {}, {}
    durations = {name: [] for name in TIMED}
    trial_cpu = estimator_wall = 0.0
    for spans in processes:
        children = {}
        for s in spans:
            children.setdefault(s["parent"], []).append(s)
        for s in spans:
            name, dur = s["name"], s["end"] - s["start"]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            if name in ("estimate.min_distance", "maxflow.cylinder_flow_tau", "cli.main"):
                selfs[name] = selfs.get(name, 0.0) + self_time(s, children.get(s["id"], []))
            if name in durations:
                durations[name].append(dur * 1e3)
            if name == "estimate.trial":
                trial_cpu += s["cpu"]
            if name in ESTIMATORS:
                estimator_wall += dur
            if "edges" in s:
                extra["edges"] = extra.get("edges", 0) + s["edges"]

    def c(name):
        return calls.get(name, 0)

    def b(name):
        return busy.get(name, 0.0)

    m = {
        "estimate.value_and_grad.calls": c("estimate.value_and_grad"),
        "estimate.value_and_grad.busy_s": b("estimate.value_and_grad"),
        "estimate.value_and_grad.mean_us":
            b("estimate.value_and_grad") / c("estimate.value_and_grad") * 1e6
            if c("estimate.value_and_grad") else 0.0,
        "estimate.min_distance.calls": c("estimate.min_distance"),
        "estimate.min_distance.self_s": selfs.get("estimate.min_distance", 0.0),
        "estimate.tables.builds": c("estimate.tables"),
        "estimate.tables.build_s": b("estimate.tables"),
        "estimate.pool.busy_frac":
            trial_cpu / (threads * estimator_wall) if estimator_wall else 0.0,
        "capacities.sample_capacities.calls": c("capacities.sample_capacities"),
        "capacities.sample_capacities.busy_s": b("capacities.sample_capacities"),
        "capacities.sample_capacities.edges": extra.get("edges", 0),
        "capacities.region_edges.busy_s": b("capacities.region_edges"),
        "maxflow.max_flow.calls": c("maxflow.max_flow"),
        "maxflow.max_flow.busy_s": b("maxflow.max_flow"),
        "maxflow.solves_per_trial": c("maxflow.max_flow") / trials if trials else 0.0,
        "maxflow.cylinder_flow_tau.calls": c("maxflow.cylinder_flow_tau"),
        "maxflow.cylinder_flow_tau.self_s": selfs.get("maxflow.cylinder_flow_tau", 0.0),
        "geometry.cylinder_sets.busy_s": b("geometry.cylinder_sets"),
        "geometry.discretize_domain.busy_s": b("geometry.discretize_domain"),
        "measure.distance.calls": c("measure.distance"),
        "measure.distance.busy_s": b("measure.distance"),
        "cli.self_s": selfs.get("cli.main", 0.0),
    }
    return m, durations
