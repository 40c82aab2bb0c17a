"""Tests for the benchmark's own arithmetic, tracer and checks.

Run with ``PYTHONPATH=src python -m pytest -q bench/test_bench.py``.
"""

import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import checks
import hostspeed
import metrics
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_percentile_rule_keeps_ten_samples_beyond_the_tail():
    xs = list(range(1, 201))  # 200 samples: p95 leaves exactly 10 beyond it
    p = metrics.percentiles(xs)
    assert (p["p50"], p["tail_pct"], p["tail"], p["samples"]) == (100.5, 95, 190, 200)
    p = metrics.percentiles(list(range(100, 0, -1)))
    assert (p["tail_pct"], p["tail"]) == (90, 90)
    assert sum(x > p["tail"] for x in range(1, 101)) == 10
    p = metrics.percentiles(range(1, 38))  # 37 samples: floor(100*27/37) = 72
    assert p["tail_pct"] == 72 and sum(x > p["tail"] for x in range(1, 38)) >= 10


def test_percentile_rule_falls_back_to_the_median():
    p = metrics.percentiles([5.0, 1.0, 3.0])
    assert (p["p50"], p["tail"], p["tail_pct"], p["samples"]) == (3.0, 3.0, 50, 3)
    assert metrics.percentiles(range(20))["tail_pct"] == 50
    assert metrics.percentiles([])["samples"] == 0


def test_percentile_rule_with_a_fixed_basis():
    # the percentile follows the basis, not the number of samples gathered
    p = metrics.percentiles(range(1, 101), basis=40)
    assert p["tail_pct"] == 75 and p["samples"] == 100 and p["tail"] == 75
    assert metrics.percentiles(range(1, 201), basis=40)["tail_pct"] == 75
    assert metrics.percentiles(range(1, 101), basis=12)["tail_pct"] == 50
    assert metrics.percentiles(range(1, 31), basis=100)["tail_pct"] == 66  # basis capped at n


def test_self_time_with_overlapping_children_on_two_threads():
    parent = {"start": 0.0, "end": 10.0}
    children = [
        {"start": 1.0, "end": 4.0, "tid": 1},
        {"start": 3.0, "end": 6.0, "tid": 2},  # overlaps the first
        {"start": 8.0, "end": 12.0, "tid": 2},  # runs past the parent
    ]
    # covered: [1, 6] and [8, 10] -> 7 of 10
    assert metrics.self_time(parent, children) == pytest.approx(3.0)
    assert metrics.self_time(parent, []) == pytest.approx(10.0)


def test_tracer_links_worker_thread_trials_to_their_pool():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def run_trials(fn, trials, threads):
        with ThreadPoolExecutor(max_workers=threads) as ex:
            return list(ex.map(fn, range(trials)))

    def trial(i):
        barrier.wait()  # both workers are inside a trial at once
        time.sleep(0.01)
        return i

    with tracer.span("cli.main"):
        assert tracer.wrap_pool(run_trials)(trial, 2, 2) == [0, 1]
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    (pool,) = by_name["estimate.pool"]
    trials = by_name["estimate.trial"]
    assert pool["threads"] == 2 and pool["parent"] == by_name["cli.main"][0]["id"]
    assert [t["parent"] for t in trials] == [pool["id"]] * 2
    assert len({t["tid"] for t in trials}) == 2
    overlap = min(t["end"] for t in trials) - max(t["start"] for t in trials)
    assert overlap > 0
    expected = (pool["end"] - pool["start"]) - (
        max(t["end"] for t in trials) - min(t["start"] for t in trials))
    assert metrics.self_time(pool, trials) == pytest.approx(expected)


def test_install_patches_every_binding_and_reports_absent_names(monkeypatch):
    import latflow.cli
    import latflow.estimate
    import latflow.maxflow
    import latflow.measure

    # a binding made at module level after the tracer was written is found too
    monkeypatch.setattr(latflow.estimate, "max_flow", latflow.maxflow.max_flow, raising=False)
    tracer = spans.Tracer()
    layers = spans.LAYERS + (("gone.layer", "latflow.measure:no_such"),)
    absent, undo = spans.install(tracer, layers)
    try:
        assert absent == ["gone.layer"]
        assert latflow.cli.distance is latflow.measure.distance
        assert latflow.estimate.max_flow is latflow.maxflow.max_flow
        assert hasattr(latflow.estimate.max_flow, "__wrapped__")
        mu = latflow.measure.from_json(json.dumps(workloads.unit_square_density([1, 0])))
        latflow.cli.distance(mu, mu, latflow.measure.DistanceOptions(k_max=1))
    finally:
        for owner, attr, original in undo:
            setattr(owner, attr, original)
    assert [s["name"] for s in tracer.spans] == ["measure.distance"]
    assert not hasattr(latflow.cli.distance, "__wrapped__")
    assert not hasattr(latflow.maxflow.max_flow, "__wrapped__")


def test_end_to_end_derivation():
    values = metrics.end_to_end([10.0, 12.0, 11.0], [2.0, 4.0, 3.0], units=16)
    assert values == {"wall_s": 11.0, "setup_s": 3.0, "units_per_s": 2.0}
    with pytest.raises(ValueError):
        metrics.end_to_end([3.0], [3.0], units=1)


@pytest.mark.parametrize("threads", [1, 2])
def test_host_clock_pauses_the_process_and_normalizes_its_time(threads):
    busy = 2.5 * hostspeed.SLICE_S  # CPU seconds the child spends, pauses or not
    child = ("import time\nt = time.process_time()\n"
             f"while time.process_time() - t < {busy}:\n    pass\n")
    clock = hostspeed.HostClock(threads)
    proc = subprocess.Popen([sys.executable, "-c", child])
    status, usage, program, normalized = clock.wait(proc, timeout=60)
    assert os.waitstatus_to_exitcode(status) == 0
    # the chunk before, at least two during and the one after
    assert len(clock.chunks) >= 4
    assert busy <= program < busy + 5
    assert usage.ru_utime + usage.ru_stime >= busy
    assert normalized == pytest.approx(
        program * hostspeed.NOMINAL_S / (sum(clock.chunks) / len(clock.chunks)))


def test_failed_frac():
    assert metrics.failed_frac(0, 12) == 0.0
    assert metrics.failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        metrics.failed_frac(0, 0)


def _span(sid, name, start, end, parent=None, cpu=0.0, **attrs):
    return dict(id=sid, name=name, start=start, end=end, parent=parent, cpu=cpu, tid=1, **attrs)


def test_pass_layers_counts_and_ratios():
    process = [
        _span(1, "cli.main", 0.0, 10.0),
        _span(2, "estimate.tail_probability", 1.0, 9.0, parent=1),
        _span(3, "estimate.pool", 1.0, 9.0, parent=2, threads=2),
        _span(4, "estimate.trial", 1.0, 5.0, parent=3, cpu=2.0),
        _span(5, "estimate.trial", 1.0, 9.0, parent=3, cpu=6.0),
        _span(6, "maxflow.max_flow", 2.0, 4.0, parent=4),
        _span(7, "maxflow.max_flow", 2.0, 8.0, parent=5),
        _span(8, "capacities.sample_capacities", 1.0, 2.0, parent=4, edges=1200),
    ]
    m, durations = metrics.pass_layers([process, process], trials=4, threads=2)
    assert m["maxflow.max_flow.calls"] == 4
    assert m["maxflow.solves_per_trial"] == 1.0
    assert m["capacities.sample_capacities.edges"] == 2400
    assert m["estimate.pool.busy_frac"] == pytest.approx((2 * 8.0) / (2 * 2 * 8.0))
    assert m["cli.self_s"] == pytest.approx(2 * 2.0)
    assert sorted(durations["maxflow.max_flow"]) == [2000.0, 2000.0, 6000.0, 6000.0]
    assert m["estimate.value_and_grad.mean_us"] == 0.0


def test_wilson_recomputation_matches_the_program():
    from latflow.estimate import wilson_interval

    for k, n in [(0, 12), (1, 12), (6, 20), (20, 20)]:
        assert checks.wilson(k, n) == wilson_interval(k, n)


def _write_rate_csv(path, counts, trials):
    rows = ["s,v1,v2,eps,n,trials,successes,phat,lo,hi,Ihat"]
    for eps, k in zip([0.3, 0.5, 0.75, 1.0], counts):
        lo, hi = checks.wilson(k, trials)
        rows.append(f"0.5,1.0,0.0,{eps},6,{trials},{k},{k / trials!r},{lo!r},{hi!r},0.0")
    with open(os.path.join(path, "rate.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")


def test_rate_check_catches_counts_that_are_not_nested(tmp_path):
    cfg = workloads.build("rate", 1).passes[0].config
    trials = cfg["rate"]["trials"]
    _write_rate_csv(tmp_path, [0, 0, 2, trials], trials)
    assert checks.check_rate(tmp_path, cfg) == []
    assert checks.rate_holds(tmp_path) == 2 + trials
    _write_rate_csv(tmp_path, [0, 3, 2, trials], trials)
    assert any("nested" in p for p in checks.check_rate(tmp_path, cfg))


def test_workloads_are_seeded():
    for name in workloads.NAMES:
        a, b = workloads.build(name, 3), workloads.build(name, 3 + workloads.VARIANTS)
        assert [i.config for i in a.passes] == [i.config for i in b.passes]
        assert a.files == b.files
        c = workloads.build(name, 4)
        assert [i.config for i in a.passes] != [i.config for i in c.passes] or a.files != c.files
        assert a.setup.units == 1
    assert workloads.variant_of(workloads.DEFAULT_SEED) != workloads.variant_of(workloads.CONFIRM_SEED)


def test_reference_covers_every_variant():
    with open(os.path.join(ROOT, "bench", "reference.json")) as fh:
        refs = json.load(fh)
    assert refs["variants"] == workloads.VARIANTS
    for name in ("flow-constant", "tail", "distance"):
        assert sorted(refs[name], key=int) == [str(v) for v in range(workloads.VARIANTS)]
