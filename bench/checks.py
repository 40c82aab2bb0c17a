"""Output checks for the benchmark's CLI invocations.

Each check returns a list of problems (empty when the output is correct).
Invariant checks need nothing but the output; reference checks compare with
the outputs recorded in ``reference.json`` for the workload's input variant.
Rate success counts are solver quality, not correctness: only their
invariants are checked here.
"""

import csv
import json
import math
import os

Z95 = 1.959963984540054


def wilson(successes, trials, z=Z95):
    """95% Wilson score interval, recomputed independently of the program."""
    p = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def _count_problems(rows, key, trials, increasing):
    """Counts must be nested over the grid and the Wilson interval must be
    the one the counts give."""
    problems = []
    grid = [float(r[key]) for r in rows]
    if grid != sorted(grid):
        problems.append(f"{key} grid is not sorted: {grid}")
    counts = [int(r["successes"]) for r in rows]
    ordered = counts == sorted(counts) if increasing else counts == sorted(counts, reverse=True)
    if not ordered:
        problems.append(f"success counts are not nested over {key}: {counts}")
    for r, k in zip(rows, counts):
        if int(r["trials"]) != trials or not 0 <= k <= trials:
            problems.append(f"bad trials/successes {r['trials']}/{k} at {key}={r[key]}")
            continue
        lo, hi = wilson(k, trials)
        if not (_close(float(r["lo"]), lo) and _close(float(r["hi"]), hi)):
            problems.append(f"Wilson interval at {key}={r[key]} does not match counts {k}/{trials}")
        if not _close(float(r["phat"]), k / trials):
            problems.append(f"phat at {key}={r[key]} is not {k}/{trials}")
    return problems


def rate_holds(out_dir):
    """'holds' verdicts summed over the eps grid."""
    return sum(int(r["successes"]) for r in _rows(os.path.join(out_dir, "rate.csv")))


def tail_successes(out_dir):
    return [int(r["successes"]) for r in _rows(os.path.join(out_dir, "tail.csv"))]


def check_rate(out_dir, cfg, reference=None):
    """Invariants only: rate counts have no recorded reference."""
    sub = cfg["rate"]
    rows = _rows(os.path.join(out_dir, "rate.csv"))
    if len(rows) != len(sub["eps"]):
        return [f"rate.csv has {len(rows)} rows, expected {len(sub['eps'])}"]
    return _count_problems(rows, "eps", sub["trials"], increasing=True)


def check_tail(out_dir, cfg, reference=None):
    sub = cfg["tail"]
    rows = _rows(os.path.join(out_dir, "tail.csv"))
    if len(rows) != len(sub["lam"]):
        return [f"tail.csv has {len(rows)} rows, expected {len(sub['lam'])}"]
    problems = _count_problems(rows, "lam", sub["trials"], increasing=False)
    if reference is not None:
        counts = tail_successes(out_dir)
        if counts != reference:
            problems.append(f"tail success counts {counts} differ from reference {reference}")
    return problems


def check_flow_constant(out_dir, cfg, reference=None):
    with open(os.path.join(out_dir, "nu.csv")) as fh:
        text = fh.read()
    rows = _rows(os.path.join(out_dir, "nu.csv"))
    sub = cfg["flow_constant"]
    problems = []
    if [int(r["n"]) for r in rows] != sub["n_list"]:
        problems.append("nu.csv rows do not follow n_list")
    if reference is not None and text != reference:
        problems.append("nu.csv is not byte-identical to the reference")
    return problems


def distance_bracket(out_dir):
    with open(os.path.join(out_dir, "distance.json")) as fh:
        payload = json.load(fh)
    return [payload["lower"], payload["upper"]]


def check_distance(out_dir, cfg, reference=None):
    lower, upper = distance_bracket(out_dir)
    problems = []
    if not lower <= upper:
        problems.append(f"distance bracket has lower {lower} > upper {upper}")
    if reference is not None and [lower, upper] != reference:
        problems.append(f"distance bracket {[lower, upper]} differs from reference {reference}")
    return problems


CHECKS = {
    "rate": check_rate,
    "flow-constant": check_flow_constant,
    "tail": check_tail,
    "distance": check_distance,
}


def reference_output(subcommand, out_dir):
    """The part of an output that reference.json records."""
    if subcommand == "flow-constant":
        with open(os.path.join(out_dir, "nu.csv")) as fh:
            return fh.read()
    if subcommand == "tail":
        return tail_successes(out_dir)
    if subcommand == "distance":
        return distance_bracket(out_dir)
    raise ValueError(f"{subcommand} has no recorded reference")


def check(inv, out_dir, references=None):
    """Problems with one invocation's output; ``references`` maps the
    invocation's ref_key to the recorded value (None: invariants only)."""
    reference = None
    if references is not None and inv.ref_key is not None:
        if inv.ref_key not in references:
            return [f"no recorded reference for {inv.label}"]
        reference = references[inv.ref_key]
    try:
        return CHECKS[inv.subcommand](out_dir, inv.config, reference)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
