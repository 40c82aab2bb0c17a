"""latflow benchmark: drives the ``latflow`` CLI on seeded workloads.

    python3 bench/run.py --workload {rate,flow-constant,tail,distance,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the CLI is run from ``src/`` as
``python3 -m latflow.cli`` in fresh processes.  With ``--trace 0`` it
alternates set-up runs (the workload's config cut to its first unit) with
full passes for about ``--seconds`` seconds and reports the end-to-end
metrics; with ``--trace 1`` it alternates traced and untraced passes and
reports the per-layer metrics.  The end-to-end times are host-speed
normalized: each timed process is paused now and then to time a fixed
calibration loop, and its time is rescaled by how fast that loop ran
(``hostspeed.py``); the unnormalized times are printed too and kept in the
result record.  Metric names and units come from ``BENCHMARK.json``;
``metrics.py`` computes their values.  Every output is checked
(``checks.py``).  ``all`` measures every workload in turn.  Each workload's
output ends with one line of result JSON; its full record, with machine
facts and provenance, is written to
``.bench_work/result-<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import glob
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time

import checks
import hostspeed
import metrics
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")  # metric names and units

SETUP_RUNS = 3  # set-up_s is the median of at least this many fresh set-up runs
SETUP_SHARE = 0.25  # ... and of more, while they take at most this share of --seconds
MIN_PASSES = 2  # full passes (traced passes, when tracing) whatever --seconds says
INVOCATION_TIMEOUT = 150.0  # seconds before a hung CLI process is killed


class Run:
    """One CLI invocation as measured: wall time (less any pauses), its
    host-speed-normalized value (None when run unpaused), exit code and
    peak RSS."""

    def __init__(self, inv, wall, normalized, rc, rss_kib, out_dir, problems):
        self.inv, self.wall, self.normalized = inv, wall, normalized
        self.rc, self.rss_kib = rc, rss_kib
        self.out_dir, self.problems = out_dir, problems

    @property
    def failed(self):
        return self.rc != 0 or bool(self.problems)

    def record(self):
        return {"label": self.inv.label, "wall_s": self.wall, "normalized_s": self.normalized,
                "rc": self.rc, "peak_rss_kib": self.rss_kib, "units": self.inv.units,
                "problems": self.problems}


def child_env():
    env = dict(os.environ)
    env.pop("LATFLOW_THREADS", None)  # the thread count is passed explicitly
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _wait(proc):
    timer = threading.Timer(INVOCATION_TIMEOUT, proc.kill)
    timer.start()
    try:
        return os.wait4(proc.pid, 0)[1:]
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()


def invoke(inv, threads, work_dir, out_dir, references=None, trace_out=None, clock=None):
    """Run one invocation in a fresh process and check its output.  With a
    ``hostspeed.HostClock`` the process is paused to time the host's speed."""
    os.makedirs(out_dir, exist_ok=True)
    config = os.path.join(out_dir, "config.yaml")
    with open(config, "w") as fh:
        json.dump(inv.config, fh, sort_keys=True)  # JSON is valid YAML
    cli_args = [inv.subcommand, "--config", config, "--out-dir", out_dir,
                "--threads", str(threads)]
    if trace_out is None:
        argv = [sys.executable, "-m", "latflow.cli"] + cli_args
    else:
        argv = [sys.executable, os.path.abspath(spans.__file__), trace_out, "--"] + cli_args
    with open(os.path.join(out_dir, "log.txt"), "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work_dir, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        if clock is None:
            status, usage = _wait(proc)
            wall, normalized = time.perf_counter() - start, None
        else:
            status, usage, wall, normalized = clock.wait(proc, INVOCATION_TIMEOUT)
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    problems = checks.check(inv, out_dir, references) if rc == 0 else [f"exit code {rc}"]
    return Run(inv, wall, normalized, rc, usage.ru_maxrss, out_dir, problems)


def run_pass(wl, work_dir, tag, references, traced=False, clock=None):
    """All invocations of one pass; a traced pass also returns its spans."""
    runs, processes, absent = [], [], set()
    for i, inv in enumerate(wl.passes):
        out_dir = os.path.join(work_dir, f"{tag}-{i}")
        trace_out = os.path.join(out_dir, "spans.json") if traced else None
        run = invoke(inv, wl.threads, work_dir, out_dir, references, trace_out, clock)
        runs.append(run)
        if traced and run.rc == 0:
            with open(trace_out) as fh:
                payload = json.load(fh)
            processes.append(payload["spans"])
            absent.update(payload["absent"])
    return runs, processes, absent


def _time_left(started, seconds, next_cost):
    return time.perf_counter() - started + next_cost <= seconds


def measure_end_to_end(wl, work_dir, seconds, references):
    """Set-up runs interleaved with full passes: S P S P S [P ...], timed
    against the host's speed (``hostspeed``)."""
    started = time.perf_counter()
    clock = hostspeed.HostClock(wl.threads)
    setups, passes = [], []
    setup_cost = pass_cost = 0.0  # elapsed time of the last one, pauses included

    def timed(fn, *args, **kwargs):
        t0 = time.perf_counter()
        return fn(*args, **kwargs), time.perf_counter() - t0

    while True:
        more = len(setups) < SETUP_RUNS or (
            (len(setups) + 1) * setup_cost <= SETUP_SHARE * seconds
            and _time_left(started, seconds, setup_cost))
        if more and len(setups) <= len(passes):
            run, setup_cost = timed(invoke, wl.setup, wl.threads, work_dir,
                                    os.path.join(work_dir, f"setup{len(setups)}"), references,
                                    clock=clock)
            setups.append(run)
            continue
        if (len(passes) >= MIN_PASSES and len(setups) >= SETUP_RUNS
                and not _time_left(started, seconds, pass_cost)):
            break
        (runs, _, _), pass_cost = timed(run_pass, wl, work_dir, f"pass{len(passes)}",
                                        references, clock=clock)
        passes.append(runs)
    pass_norm = [sum(r.normalized for r in p) for p in passes]
    setup_norm = [r.normalized for r in setups]
    values = metrics.end_to_end(pass_norm, setup_norm, wl.units)
    values["peak_rss_mib"] = metrics.median([max(r.rss_kib for r in p) for p in passes]) / 1024
    all_runs = setups + [r for p in passes for r in p]
    walls = [sum(r.wall for r in p) for p in passes]
    extra = {"holds_total": [checks.rate_holds(p[0].out_dir) for p in passes
                             if wl.name == "rate" and not p[0].failed],
             "pass_walls_s": walls, "setup_walls_s": [r.wall for r in setups],
             "pass_normalized_s": pass_norm, "setup_normalized_s": setup_norm,
             "chunks_s": clock.chunks,
             "unnormalized": metrics.end_to_end(walls, [r.wall for r in setups], wl.units)}
    return values, all_runs, extra


def measure_layers(wl, work_dir, seconds, references):
    """Traced and untraced passes, alternating, for about ``seconds``."""
    started = time.perf_counter()
    traced, untraced, absent = [], [], set()
    while True:
        if len(traced) >= MIN_PASSES and untraced:
            last = sum(r.wall for r in traced[-1][0])
            if not _time_left(started, seconds, last):
                break
        if len(traced) <= len(untraced):
            runs, processes, gone = run_pass(wl, work_dir, f"traced{len(traced)}", references, True)
            traced.append((runs, processes))
            absent |= gone
        else:
            untraced.append(run_pass(wl, work_dir, f"plain{len(untraced)}", references)[0])
    per_pass, durations = [], {name: [] for name in metrics.TIMED}
    for runs, processes in traced:
        m, d = metrics.pass_layers(processes, wl.trials, wl.threads)
        m["estimate.holds_total"] = (checks.rate_holds(runs[0].out_dir)
                                     if wl.name == "rate" and not runs[0].failed else 0)
        per_pass.append(m)
        for name, xs in d.items():
            durations[name].extend(xs)
    values = {name: metrics.median([m[name] for m in per_pass]) for name in per_pass[0]}
    pctl = {}
    for name, xs in durations.items():
        # the tail percentile is fixed by the calls in MIN_PASSES passes, so
        # it is the same however many passes fit in the time
        calls_per_pass = len(xs) // len(traced)
        p = metrics.percentiles(xs, basis=calls_per_pass * MIN_PASSES)
        values[f"{name}.p50_ms"] = p["p50"]
        values[f"{name}.tail_ms"] = p["tail"]
        pctl[name] = p
    traced_wall = metrics.median([sum(r.wall for r in runs) for runs, _ in traced])
    plain_wall = metrics.median([sum(r.wall for r in runs) for runs in untraced])
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1
    all_runs = [r for runs, _ in traced for r in runs] + [r for runs in untraced for r in runs]
    exact_counts = {name: [m[name] for m in per_pass] for name in (
        "estimate.value_and_grad.calls", "estimate.tables.builds",
        "maxflow.solves_per_trial", "capacities.sample_capacities.calls")}
    extra = {"percentiles": pctl, "absent": sorted(absent), "per_pass_counts": exact_counts}
    return values, all_runs, extra


def machine_facts():
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version()}
    for dist in ("numpy", "PyYAML"):
        try:
            facts[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            facts[dist] = None
    try:
        with open("/proc/cpuinfo") as fh:
            models = [l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")]
        facts["cpu"] = models[0] if models else None
    except OSError:
        facts["cpu"] = None
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            facts[f"L{level}"] = size
    return facts


def provenance(wl, trace):
    commit = None  # a source checkout need not be a git repository
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "latflow", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"git_commit": commit, "source_sha256": digest.hexdigest(),
            "workload": wl.name, "seed": wl.seed, "variant": wl.variant,
            "threads": wl.threads, "trace": trace}


def load_references(name, variant):
    with open(REFERENCE) as fh:
        refs = json.load(fh)
    if refs.get("variants") != workloads.VARIANTS:
        raise SystemExit("bench/reference.json was recorded for another variant count")
    return refs.get(name, {}).get(str(variant), {})


def summary_lines(wl, values, units, failed, attempted, extra, trace):
    lines = [f"workload {wl.name}: seed {wl.seed} (variant {wl.variant}), "
             f"threads {wl.threads}, {wl.units} units per pass"]
    for name, value in values.items():
        lines.append(f"  {name:40s} {value:14.6g} {units[name]}")
    lines.append(f"  {'failed_frac':40s} {metrics.failed_frac(failed, attempted):14.6g} "
                 f"({failed} of {attempted} units)")
    if not trace:
        for name, value in extra["unnormalized"].items():
            lines.append(f"  {name + ' (unnormalized)':40s} {value:14.6g} {units[name]}")
    if not trace and extra["holds_total"]:
        lines.append(f"  {'holds_total':40s} {metrics.median(extra['holds_total']):14.6g} count")
    for name, p in extra.get("percentiles", {}).items():
        if not p["samples"]:
            continue
        lines.append(f"  {name}: p50 {p['p50']:.4g} ms, p{p['tail_pct']} {p['tail']:.4g} ms "
                     f"({p['samples']} samples)")
    if extra.get("absent"):
        lines.append(f"  absent layers: {', '.join(extra['absent'])}")
    return lines


def metric_units(trace):
    """Name -> unit of the metrics BENCHMARK.json lists for this mode."""
    with open(SPEC) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name, seed, seconds, trace):
    """Measure one workload and print its provenance, summary and result."""
    wl = workloads.build(name, seed)
    references = load_references(wl.name, wl.variant)
    work_dir = os.path.join(WORK, f"{wl.name}-seed{wl.seed}-trace{trace}-{os.getpid()}")
    units = metric_units(trace)
    workloads.materialize(wl, work_dir)
    try:
        if trace:
            values, runs, extra = measure_layers(wl, work_dir, seconds, references)
        else:
            values, runs, extra = measure_end_to_end(wl, work_dir, seconds, references)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted = sum(r.inv.units for r in runs)
    failed = sum(r.inv.units for r in runs if r.failed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"provenance": provenance(wl, trace), "machine": machine_facts(),
              "result": result, "extra": extra, "runs": [r.record() for r in runs]}
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"result-{wl.name}-seed{wl.seed}-trace{trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for r in runs:
        for problem in r.problems:
            print(f"{r.inv.label}: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"], "machine": record["machine"]}))
    print("\n".join(summary_lines(wl, {n: values[n] for n in units}, units, failed, attempted,
                                  extra, trace)))
    print(json.dumps(result), flush=True)


def _terminate(signum, frame):
    # unwind, so every running CLI process is killed and waited for
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "latflow", "cli.py")):
        print(f"no latflow sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        run_workload(name, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
