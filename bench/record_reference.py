"""Record the reference outputs of every input variant into reference.json.

    python3 bench/record_reference.py

Runs one pass of each workload that has recorded outputs (flow-constant,
tail, distance) for every variant, as many at a time as there are CPUs,
checks its invariants and writes the outputs the benchmark later compares
against.  Re-record only when an
output is meant to change, and say so where the change is described.
"""

import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import checks
import run
import workloads

RECORDED = ("flow-constant", "tail", "distance")


def record_variant(name, variant):
    wl = workloads.build(name, variant)
    work_dir = os.path.join(run.WORK, f"record-{name}-{variant}")
    workloads.materialize(wl, work_dir)
    try:
        runs = run.run_pass(wl, work_dir, "ref", references=None)[0]
        outputs = {}
        for r in runs:
            if r.failed:
                raise RuntimeError(f"{name} variant {variant} {r.inv.label}: {r.problems}")
            outputs[r.inv.ref_key] = checks.reference_output(r.inv.subcommand, r.out_dir)
        return outputs
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main():
    jobs = [(name, v) for name in RECORDED for v in range(workloads.VARIANTS)]
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as ex:
        results = list(ex.map(lambda job: record_variant(*job), jobs))
    refs = {"variants": workloads.VARIANTS}
    for (name, v), outputs in zip(jobs, results):
        refs.setdefault(name, {})[str(v)] = outputs
    with open(run.REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(jobs)} passes into {run.REFERENCE}", file=sys.stderr)


if __name__ == "__main__":
    main()
