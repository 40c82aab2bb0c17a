import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy
import pytest
import yaml

import latflow.maxflow
from latflow.capacities import CapacityDistribution, sample_capacities
from latflow.cli import main
from latflow.geometry import discretize_domain, unit_square_domain
from latflow.maxflow import max_flow
from latflow.stream import dump_stream


def run_cli(tmp_path, name, cfg, *args):
    path = tmp_path / f"{name}.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return main([name.split("__")[0], "--config", str(path), *args])


def read_bytes(p):
    with open(p, "rb") as fh:
        return fh.read()


def test_maxflow_subcommand_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = {
        "seed": 3,
        "out_dir": str(out),
        "maxflow": {
            "domain": "unit_square",
            "n": 3,
            "dist": {"kind": "bernoulli", "a": "0", "b": "1", "p": "1/2"},
        },
    }
    assert run_cli(tmp_path, "maxflow", cfg) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["flow_equals_cut"] is True
    assert summary["admissible"] is True
    assert (out / "stream.txt").exists()
    assert (out / "cut.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "maxflow"
    assert manifest["seed"] == 3


def _maxflow_config(out, **top):
    return {
        "seed": 3,
        "out_dir": str(out),
        "maxflow": {"domain": "unit_square", "n": 8, "dist": {"kind": "uniform", "a": "0", "b": "1"}},
        **top,
    }


def test_float_maxflow_certifies_the_cut_without_a_tolerance(tmp_path):
    # a config's mode key is read by no subcommand: with mode: float too, the
    # run solves and writes the exact flow, and its manifest records "exact"
    L = discretize_domain(unit_square_domain(), 8)
    res = max_flow(L, sample_capacities(L, CapacityDistribution.uniform(0, 1), 3))
    runs = {}
    for mode in (None, "float"):
        out = tmp_path / f"out-{mode}"
        cfg = _maxflow_config(out, **({"mode": mode} if mode else {}))
        assert run_cli(tmp_path, "maxflow", cfg) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["flow_equals_cut"] is True and summary["admissible"] is True
        assert summary["cut_capacity"] == summary["value"] == float(res.value)
        # the outputs are the library's exact solve of the same sample
        assert (out / "stream.txt").read_text() == dump_stream(res.stream)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "exact" and manifest["config"].get("mode") == mode
        runs[mode] = [(out / name).read_bytes() for name in ("stream.txt", "cut.txt", "summary.json")]
    assert runs["float"] == runs[None]


def test_maxflow_with_a_cut_missing_an_edge_exits_3(tmp_path, monkeypatch):
    def short_cut(L, t):
        res = cli_max_flow(L, t)
        return dataclasses.replace(res, cutset=res.cutset[1:])

    # cmd_maxflow imports max_flow when it runs, so it picks up the patch
    cli_max_flow = latflow.maxflow.max_flow
    monkeypatch.setattr(latflow.maxflow, "max_flow", short_cut)
    out = tmp_path / "out"
    assert run_cli(tmp_path, "maxflow", _maxflow_config(out)) == 3
    assert json.loads((out / "summary.json").read_text())["flow_equals_cut"] is False


def test_tau_subcommand(tmp_path):
    out = tmp_path / "tau_out"
    cfg = {
        "seed": 1,
        "out_dir": str(out),
        "tau": {
            "d": 2,
            "side": 3,
            "h": 3,
            "dist": {"kind": "constant", "c": "1"},
        },
    }
    assert run_cli(tmp_path, "tau", cfg) == 0
    data = json.loads((out / "tau.json").read_text())
    assert data["tau"] == 3.0


def test_decompose_subcommand(tmp_path):
    out = tmp_path / "mf"
    cfg = {
        "seed": 5,
        "out_dir": str(out),
        "maxflow": {
            "domain": "unit_square",
            "n": 2,
            "dist": {"kind": "uniform", "a": "0", "b": "1"},
        },
    }
    assert run_cli(tmp_path, "maxflow", cfg) == 0
    out2 = tmp_path / "dec"
    cfg2 = {
        "seed": 5,
        "out_dir": str(out2),
        "decompose": {
            "domain": "unit_square",
            "stream": str(out / "stream.txt"),
        },
    }
    assert run_cli(tmp_path, "decompose__1", cfg2) == 0
    data = json.loads((out2 / "paths.json").read_text())
    assert data["reconstruction_exact"] is True
    assert data["count"] >= 1


def test_mix_demo_subcommand(tmp_path):
    out = tmp_path / "mix"
    cfg = {
        "seed": 0,
        "out_dir": str(out),
        "mix_demo": {
            "kind": "mix2d",
            "M": "1",
            "inputs": ["1", "-1", "1/2"],
        },
    }
    assert run_cli(tmp_path, "mix-demo", cfg) == 0
    data = json.loads((out / "mix.json").read_text())
    assert data["within_bound"] is True


@pytest.mark.parametrize(
    "sub",
    [
        {"kind": "mix", "r": 2, "m": 4, "inputs": ["1/2", "0", "1/4"], "outputs": ["1/4", "1/4"]},
        {"kind": "mix", "r": 2, "m": 4, "inputs": ["1/2"], "outputs": ["1/2"]},
        {"kind": "mix", "r": 2, "m": 4, "inputs": ["1/2", "0"], "outputs": "1"},
        {"kind": "mix2d", "inputs": []},
        {"kind": "mix2d", "inputs": ["2", "0"]},
        {"kind": "mix", "r": 2, "m": 4, "inputs": ["1/2", "0"], "outputs": ["1/2", "1/2"]},
    ],
    ids=["r2-three-inputs", "r2-one-input", "outputs-not-a-list", "empty", "above-M",
         "sums-differ"],
)
def test_mix_demo_rejected_input_exits_2(tmp_path, sub):
    cfg = {"seed": 0, "out_dir": str(tmp_path / "mix"), "mix_demo": {"M": "1", **sub}}
    assert run_cli(tmp_path, "mix-demo", cfg) == 2


def test_decompose_stream_breaking_the_node_law_exits_2(tmp_path):
    stream = tmp_path / "stream.txt"
    stream.write_text("2 2\n0 1 0 1/2\n")  # (1, 1) is interior: flow ends there
    cfg = {
        "out_dir": str(tmp_path / "dec"),
        "decompose": {"domain": "unit_square", "stream": str(stream)},
    }
    assert run_cli(tmp_path, "decompose", cfg) == 2


def test_distance_subcommand(tmp_path):
    from latflow.measure import VectorMeasure, to_json
    from latflow.geometry import unit_cube
    from fractions import Fraction

    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(to_json(VectorMeasure.from_density(unit_cube(2), (Fraction(1), Fraction(0)))))
    b.write_text(to_json(VectorMeasure.from_density(unit_cube(2), (Fraction(1, 2), Fraction(0)))))
    out = tmp_path / "dist"
    cfg = {
        "seed": 0,
        "out_dir": str(out),
        "distance": {"measure_a": str(a), "measure_b": str(b), "k_max": 10},
    }
    assert run_cli(tmp_path, "distance", cfg) == 0
    data = json.loads((out / "distance.json").read_text())
    assert 0 <= data["lower"] <= data["upper"]
    assert data["k_max"] == 10


def test_rate_subcommand_zero_speed(tmp_path):
    out = tmp_path / "rate"
    cfg = {
        "seed": 2,
        "out_dir": str(out),
        "rate": {
            "d": 2,
            "n": 2,
            "s": "0",
            "v": ["1", "0"],
            "eps": ["1/10"],
            "trials": 10,
            "dist": {"kind": "bernoulli", "a": "0", "b": "1", "p": "1/2"},
        },
    }
    assert run_cli(tmp_path, "rate", cfg) == 0
    rows = (out / "rate.csv").read_text().strip().splitlines()
    assert rows[0] == "s,v1,v2,eps,n,trials,successes,phat,lo,hi,Ihat,Ihat_is_bound"
    assert rows[1].split(",")[7] == "1.0"  # phat


# SHA-256 of rate.csv for the bench rate law at n=4 over 20 eps in [1/2, 1]:
# the counts climb from 0 to all 32 trials (0, 0, 0, 0, 3, 4, 4, 8, 8, 10, 12,
# 15, 18, 21, 21, 26, 27, 28, 31, 32), so they tell the trials' solver values
# apart; the last row, where every trial holds, writes Ihat as 0.0
GOLDEN_RATE_CSV = "38395a34ea495d99bc177ad861014311c21e1c3de046913069769ee34f19faea"


def test_rate_csv_is_bit_identical_to_the_recorded_file(tmp_path):
    import hashlib
    from fractions import Fraction

    out = tmp_path / "rate"
    cfg = {
        "seed": 1,
        "mode": "float",
        "threads": 1,
        "out_dir": str(out),
        "rate": {
            "d": 2, "n": 4, "s": "1/2", "v": ["1", "0"],
            "eps": [str(Fraction(1, 2) + Fraction(k, 38)) for k in range(20)],
            "trials": 32,
            "dist": {"kind": "bernoulli", "a": "0", "b": "1", "p": "1/2"},
        },
    }
    assert run_cli(tmp_path, "rate", cfg) == 0
    data = read_bytes(out / "rate.csv")
    assert len(data.splitlines()) == 21
    assert hashlib.sha256(data).hexdigest() == GOLDEN_RATE_CSV


def test_manifest_records_the_mode_and_threads_that_ran(tmp_path):
    # rate's solver always runs on float capacities; a mode key in the config
    # is recorded with the config and read by no subcommand
    out = tmp_path / "rate"
    cfg = {
        "seed": 2,
        "mode": "exact",
        "out_dir": str(out),
        "rate": {
            "d": 2, "n": 2, "s": "1/2", "v": ["1", "0"], "eps": ["1/2"], "trials": 4,
            "dist": {"kind": "bernoulli", "a": "0", "b": "1", "p": "1/2"},
        },
    }
    assert run_cli(tmp_path, "rate", cfg, "--threads", "2") == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "float"
    # the trials ran one after another, whatever --threads said
    assert manifest["threads"] == 1
    assert manifest["config"]["mode"] == "exact"
    # tail always solves its trials exactly
    out = tmp_path / "tail"
    cfg = {"seed": 2, "mode": "float", "out_dir": str(out), "tail": TINY["tail"]}
    assert run_cli(tmp_path, "tail", cfg) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "exact"
    assert manifest["config"]["mode"] == "float"


def test_flow_constant_subcommand_unit(tmp_path):
    out = tmp_path / "nu"
    cfg = {
        "seed": 2,
        "out_dir": str(out),
        "flow_constant": {
            "d": 2,
            "n_list": [2, 4],
            "h": "n",
            "trials": 2,
            "dist": {"kind": "constant", "c": "1"},
        },
    }
    assert run_cli(tmp_path, "flow-constant", cfg) == 0
    rows = (out / "nu.csv").read_text().strip().splitlines()
    assert rows[0] == "n,h,trials,mean,lo,hi"
    for row in rows[1:]:
        assert row.split(",")[3] == "1.0"


def test_tail_subcommand_and_determinism(tmp_path):
    cfg = {
        "seed": 9,
        "tail": {
            "domain": "unit_square",
            "n": 2,
            "lam": ["0", "1/2"],
            "trials": 120,
            "dist": {"kind": "bernoulli", "a": "0", "b": "1", "p": "1/2"},
        },
    }
    outs = []
    for run, threads in (("r1", "1"), ("r2", "1"), ("r8", "8")):
        out = tmp_path / run
        assert run_cli(tmp_path, f"tail__{run}", cfg, "--out-dir", str(out), "--threads", threads) == 0
        outs.append(read_bytes(out / "tail.csv"))
    assert outs[0] == outs[1] == outs[2]


def test_tail_csv_writes_zero_when_every_trial_succeeds(tmp_path):
    # constant capacities with lam below the flow: p = 1, and -log p is 0.0
    out = tmp_path / "out"
    cfg = {"tail": {"domain": "unit_square", "n": 4, "lam": ["1/2"], "trials": 3,
                    "dist": {"kind": "constant", "c": "1"}}}
    assert run_cli(tmp_path, "tail", cfg, "--out-dir", str(out)) == 0
    header, row = (out / "tail.csv").read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    assert row["successes"] == "3" and row["phat"] == "1.0"
    assert row["neglog_per_nd1"] == row["neglog_per_nd"] == "0.0"


def test_tail_counts_a_flow_that_ties_the_threshold(tmp_path):
    # constant 7/10 on the unit square at n=2: phi is exactly 21/10 = lam n on
    # every trial, so P = 1; a float comparison of the rounded flow missed it.
    # The YAML float 1.05 is not exactly 21/20, so it is a config error, as in
    # every other rational field, not a threshold just above the tie
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    procs = {}
    for i, lam in enumerate(("21/20", 1.05)):
        out = tmp_path / f"out{i}"
        path = tmp_path / "tie.yaml"
        path.write_text(yaml.safe_dump({"tail": {"domain": "unit_square", "n": 2, "lam": [lam], "trials": 3,
                                                 "dist": {"kind": "constant", "c": "7/10"}}}))
        procs[lam] = subprocess.run([sys.executable, "-m", "latflow.cli", "tail", "--config", str(path),
                                     "--out-dir", str(out)], env=dict(os.environ, PYTHONPATH=src),
                                    capture_output=True, text=True, timeout=120)
    assert procs["21/20"].returncode == 0, procs["21/20"].stderr
    header, row = (tmp_path / "out0" / "tail.csv").read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    assert row["lam"] == "1.05"
    assert row["successes"] == "3" and row["phat"] == "1.0"
    assert procs[1.05].returncode == 2
    assert "config error: tail.lam: the float 1.05 is not exactly 21/20" in procs[1.05].stderr
    assert not (tmp_path / "out1" / "tail.csv").exists()


def test_rate_csv_writes_zero_when_every_trial_holds(tmp_path):
    # eps 2 clears every trial's distance: p = 1, and Ihat = -log p / n^d is 0.0
    out = tmp_path / "out"
    cfg = {"rate": {"d": 2, "n": 2, "s": "1/2", "v": ["1", "0"], "eps": ["2"], "trials": 4,
                    "dist": {"kind": "bernoulli", "a": "0", "b": "1", "p": "1/2"}}}
    assert run_cli(tmp_path, "rate", cfg, "--out-dir", str(out)) == 0
    header, row = (out / "rate.csv").read_text().splitlines()
    row = dict(zip(header.split(","), row.split(",")))
    assert row["successes"] == "4" and row["phat"] == "1.0"
    assert row["Ihat"] == "0.0"


def test_rate_csv_marks_the_rows_whose_ihat_is_a_bound(tmp_path):
    # no trial is within 1/10 of the target, so that row's Ihat is the bound
    # -log(hi) / n^d; every trial is within 2, so that row's Ihat is -log(phat) / n^d
    from latflow.estimate import wilson_interval

    out = tmp_path / "out"
    cfg = {"rate": {"d": 2, "n": 2, "s": "1/2", "v": ["1", "0"], "eps": ["1/10", "2"], "trials": 4,
                    "dist": {"kind": "bernoulli", "a": "0", "b": "1", "p": "1/2"}}}
    assert run_cli(tmp_path, "rate", cfg, "--out-dir", str(out)) == 0
    header, none, every = (out / "rate.csv").read_text().splitlines()
    assert header.endswith(",Ihat,Ihat_is_bound")
    none, every = (dict(zip(header.split(","), r.split(","))) for r in (none, every))
    assert none["successes"] == "0" and none["Ihat_is_bound"] == "1"
    assert none["Ihat"] == repr(-math.log(wilson_interval(0, 4)[1]) / 2**2)
    assert every["successes"] == "4" and every["Ihat_is_bound"] == "0"
    assert every["Ihat"] == "0.0"


def test_config_error_exit_code(tmp_path):
    cfg = {"seed": "not-an-int", "maxflow": {}}
    assert run_cli(tmp_path, "maxflow__bad", cfg) == 2
    cfg2 = {"maxflow": {"domain": "unit_square", "n": 2}}  # missing dist
    assert run_cli(tmp_path, "maxflow__bad2", cfg2) == 2
    cfg3 = {"maxflow": {"domain": "nope", "n": 2, "dist": {"kind": "constant", "c": "1"}}}
    assert run_cli(tmp_path, "maxflow__bad3", cfg3) == 2


def test_outputs_reparse_under_schema(tmp_path):
    # round-trip: stream file reloads bit-exactly, manifest and csv reparse
    from latflow.stream import load_stream

    out = tmp_path / "out"
    cfg = {
        "seed": 4,
        "out_dir": str(out),
        "maxflow": {
            "domain": "unit_square",
            "n": 2,
            "dist": {"kind": "uniform", "a": "0", "b": "2"},
        },
    }
    assert run_cli(tmp_path, "maxflow__rt", cfg) == 0
    f = load_stream((out / "stream.txt").read_text())
    assert f.n == 2 and f.d == 2
    json.loads((out / "manifest.json").read_text())
    import csv as csvmod

    out2 = tmp_path / "nu2"
    cfg2 = {
        "seed": 4,
        "out_dir": str(out2),
        "flow_constant": {
            "d": 2,
            "n_list": [2],
            "h": 2,
            "trials": 2,
            "dist": {"kind": "constant", "c": "1"},
        },
    }
    assert run_cli(tmp_path, "flow-constant__rt", cfg2) == 0
    with open(out2 / "nu.csv") as fh:
        rows = list(csvmod.DictReader(fh))
    assert rows and float(rows[0]["mean"]) == 1.0


def test_bad_thread_counts_exit_2(tmp_path):
    cfg = {
        "out_dir": str(tmp_path / "out"),
        "tail": {
            "domain": "unit_square",
            "n": 2,
            "lam": ["1/2"],
            "trials": 2,
            "dist": {"kind": "constant", "c": "1"},
        },
    }
    assert run_cli(tmp_path, "tail__flag", cfg, "--threads", "0") == 2
    for i, threads in enumerate((0, -3, 1.5, "two", "2")):
        assert run_cli(tmp_path, f"tail__cfg{i}", dict(cfg, threads=threads)) == 2
    assert not (tmp_path / "out" / "tail.csv").exists()


def test_a_thread_count_runs_the_trials_in_one_thread(tmp_path):
    # a fresh process, whose modules the test process has not loaded: the
    # flag and the config ask for 8 threads, and the trials run one after
    # another all the same, with no thread pool loaded
    out = tmp_path / "out"
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"threads": 8, "out_dir": str(out), "tail": TINY["tail"]}))
    rc, *loaded = _latflow_modules_after(
        "import sys; from latflow.cli import main; print(main(sys.argv[1:]))",
        "tail", "--config", str(path), "--threads", "8", also=("concurrent.futures",))
    assert rc == "0"
    assert "concurrent.futures" not in loaded
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["threads"] == 1 and manifest["config"]["threads"] == 8


def test_boolean_seed_exits_2(tmp_path):
    # a fresh process, as the console script runs: YAML true is no integer,
    # though Python would take it for the seed 1
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"seed": True, "out_dir": str(tmp_path / "out"), "tail": TINY["tail"]}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "latflow.cli", "tail", "--config", str(path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: seed: expected an integer")
    assert not (tmp_path / "out" / "tail.csv").exists()


def test_unreadable_or_malformed_input_files_exit_2(tmp_path, capsys):
    from fractions import Fraction

    from latflow.geometry import unit_cube
    from latflow.measure import VectorMeasure, to_json

    good = tmp_path / "good.json"
    good.write_text(to_json(VectorMeasure.from_density(unit_cube(2), (Fraction(1), Fraction(0)))))
    bad = {
        "truncated.json": '{"d": 2, "atoms": [',
        "no_atoms.json": '{"d": 2, "densities": []}',
        "bad_point.json": '{"d": 2, "atoms": [{"point": ["1/0", "0"], "weight": ["1", "0"]}], "densities": []}',
        "bad_stream.txt": "2 2\n0 0\n",
        "empty.txt": "",
        # an Infinity point would overflow the distance's integer cube
        # placement, and a NaN weight would make every bound NaN
        "inf_point.json": '{"d": 2, "atoms": [{"point": [Infinity, "0"], "weight": ["1", "0"]}], "densities": []}',
        "nan_weight.json": '{"d": 2, "atoms": [{"point": ["0", "0"], "weight": [NaN, "0"]}], "densities": []}',
        "neg_inf_weight.json": '{"d": 2, "atoms": [{"point": ["0", "0"], "weight": [-Infinity, "0"]}], "densities": []}',
    }
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
    cases = [
        ("distance", "measure_a", str(tmp_path / "missing.json")),
        ("distance", "measure_b", str(tmp_path / "truncated.json")),
        ("distance", "measure_a", str(tmp_path / "no_atoms.json")),
        ("distance", "measure_b", str(tmp_path / "bad_point.json")),
        ("distance", "measure_b", str(tmp_path / "inf_point.json")),
        ("distance", "measure_a", str(tmp_path / "nan_weight.json")),
        ("distance", "measure_b", str(tmp_path / "neg_inf_weight.json")),
        ("distance", "measure_a", str(tmp_path)),
        ("distance", "measure_a", 5),
        ("decompose", "stream", str(tmp_path / "missing.txt")),
        ("decompose", "stream", str(tmp_path / "bad_stream.txt")),
        ("decompose", "stream", str(tmp_path / "empty.txt")),
    ]
    for i, (cmd, key, value) in enumerate(cases):
        if cmd == "distance":
            sub = {"measure_a": str(good), "measure_b": str(good), key: value}
        else:
            sub = {"domain": "unit_square", key: value}
        cfg = {"out_dir": str(tmp_path / "out"), cmd: sub}
        assert run_cli(tmp_path, f"{cmd}__{i}", cfg) == 2, (key, value)
        assert f"config error: {cmd}.{key}:" in capsys.readouterr().err


def test_decompose_stream_file_holding_inf_exits_2(tmp_path):
    # a fresh process, as the console script runs, where an exception that
    # escapes main exits 1: a value is read as the exact number written, and
    # inf is none
    (tmp_path / "inf.txt").write_text("2 2\n0 0 0 inf\n")
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"out_dir": str(tmp_path / "out"), "decompose": {
        "domain": "unit_square", "stream": str(tmp_path / "inf.txt")}}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "latflow.cli", "decompose", "--config", str(path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: decompose.stream: malformed file")
    assert not (tmp_path / "out" / "paths.json").exists()


def test_distance_measure_file_holding_a_boolean_exits_2(tmp_path):
    # a fresh process, as the console script runs: JSON true is no number,
    # though Python would add it up as 1
    (tmp_path / "a.json").write_text('{"d": 2, "atoms": [], "densities": []}')
    (tmp_path / "b.json").write_text('{"d": 2, "atoms": [{"point": [true, "0"], "weight": [true, "0"]}], "densities": []}')
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"out_dir": str(tmp_path / "out"), "distance": {
        "measure_a": str(tmp_path / "a.json"), "measure_b": str(tmp_path / "b.json")}}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "latflow.cli", "distance", "--config", str(path)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error: distance.measure_b: malformed file")
    assert "boolean true" in proc.stderr
    assert not (tmp_path / "out" / "distance.json").exists()


def test_inexact_yaml_floats_in_rational_fields_exit_2(tmp_path, capsys):
    # 0.3 parses as the double nearest 3/10, which limit_denominator(10**12)
    # used to round to 3/10 without a word
    from fractions import Fraction

    assert Fraction(0.3).limit_denominator(10**12) != Fraction(0.3)
    bern = {"kind": "bernoulli", "a": "0", "b": "1", "p": "1/2"}
    rate = {"d": 2, "n": 2, "s": "1/2", "v": ["1", "0"], "eps": ["1/2"], "trials": 2, "dist": bern}
    domain = {"d": 2, "boxes": [[["0", "1"], ["0", "1"]]],
              "source": [[["0", "0"], ["0", "1"]]], "sink": [[["1", "1"], ["0", "1"]]]}
    bad_domain = dict(domain, boxes=[[["0", 0.3], ["0", "1"]]])
    cases = [
        ("maxflow", {"domain": "unit_square", "n": 2, "dist": dict(bern, p=0.3)}, "maxflow.dist.p"),
        ("maxflow", {"domain": bad_domain, "n": 2, "dist": bern}, "maxflow.domain.boxes[0]"),
        ("rate", dict(rate, s=0.3), "rate.s"),
        ("rate", dict(rate, v=[0.3, "0"]), "rate.v"),
        ("rate", dict(rate, eps=["1/2", 0.3]), "rate.eps"),
        ("tail", {"domain": "unit_square", "n": 2, "lam": [0.3], "trials": 2, "dist": bern}, "tail.lam"),
        ("mix-demo", {"kind": "mix2d", "M": "1", "inputs": [0.3, "-3/10"]}, "mix_demo.inputs"),
    ]
    for i, (cmd, sub, field) in enumerate(cases):
        cfg = {"out_dir": str(tmp_path / "out"), cmd.replace("-", "_"): sub}
        assert run_cli(tmp_path, f"{cmd}__{i}", cfg) == 2, field
        assert f"config error: {field}: the float 0.3 is not exactly 3/10; " \
               f"write it as the quoted rational '3/10'" in capsys.readouterr().err
    # an exact binary float stays a rational, in eps too
    out = tmp_path / "ok"
    cfg = {"out_dir": str(out),
           "maxflow": {"domain": domain, "n": 2, "dist": dict(bern, p=0.5)}}
    assert run_cli(tmp_path, "maxflow__ok", cfg) == 0
    rows = {}
    for eps in ("1/2", 0.5):
        out = tmp_path / f"rate_{eps!r}"
        cfg = {"out_dir": str(out), "rate": dict(rate, eps=[eps], s="0")}
        assert run_cli(tmp_path, f"rate__{len(rows)}", cfg) == 0
        rows[eps] = (out / "rate.csv").read_bytes()
    assert rows["1/2"] == rows[0.5]


def test_yaml_booleans_in_rational_fields_exit_2(tmp_path, capsys):
    # a YAML boolean is an int subclass, so `p: true` used to read as 1
    bern = {"kind": "bernoulli", "a": "0", "b": "1", "p": "1/2"}
    rate = {"d": 2, "n": 2, "s": "1/2", "v": ["1", "0"], "eps": ["1/2"], "trials": 2, "dist": bern}
    cases = [
        ("maxflow", {"domain": "unit_square", "n": 2, "dist": dict(bern, p=True)}, "maxflow.dist.p", True),
        ("maxflow", {"domain": "unit_square", "n": 2, "dist": dict(bern, b=False)}, "maxflow.dist.b", False),
        ("rate", dict(rate, s=True), "rate.s", True),
        ("rate", dict(rate, v=[True, "0"]), "rate.v", True),
    ]
    for i, (cmd, sub, field, value) in enumerate(cases):
        cfg = {"out_dir": str(tmp_path / "out"), cmd: sub}
        assert run_cli(tmp_path, f"{cmd}__{i}", cfg) == 2, field
        assert f"config error: {field}: expected a rational like '1/2', got {value!r}" \
            in capsys.readouterr().err


CONST = {"kind": "constant", "c": "1"}
# one tiny valid config per subcommand; the files they name are written by
# write_inputs
TINY = {
    "maxflow": {"domain": "unit_square", "n": 2, "dist": CONST},
    "tau": {"d": 2, "side": 2, "h": 2, "dist": CONST},
    "decompose": {"domain": "unit_square", "stream": "stream.txt"},
    "mix-demo": {"kind": "mix2d", "M": "1", "inputs": ["1", "-1", "1/2"]},
    "distance": {"measure_a": "a.json", "measure_b": "b.json", "k_max": 4},
    "rate": {"d": 2, "n": 2, "s": "1/2", "v": ["1", "0"], "eps": ["1/2"], "trials": 1,
             "dist": CONST},
    "flow-constant": {"d": 2, "n_list": [2], "h": "n", "trials": 1, "dist": CONST},
    "tail": {"domain": "unit_square", "n": 2, "lam": ["1/2"], "trials": 1, "dist": CONST},
}


def write_inputs(tmp_path):
    from fractions import Fraction

    from latflow.geometry import unit_cube
    from latflow.measure import VectorMeasure, to_json

    (tmp_path / "stream.txt").write_text("2 2\n0 1 0 1\n1 1 0 1\n")
    for name, c in (("a.json", 1), ("b.json", Fraction(1, 2))):
        mu = VectorMeasure.from_density(unit_cube(2), (Fraction(c), Fraction(0)))
        (tmp_path / name).write_text(to_json(mu))


def tiny_config(tmp_path, cmd, **changes):
    sub = dict(TINY[cmd], **changes)
    for key in ("stream", "measure_a", "measure_b"):
        if key in sub:
            sub[key] = str(tmp_path / sub[key])
    return {"seed": 1, "out_dir": str(tmp_path / "out"), cmd.replace("-", "_"): sub}


@pytest.mark.parametrize(
    "cmd, field, value",
    [
        ("flow-constant", "axis", 5),
        ("tau", "axis", 7),
        ("tau", "axis", -1),
        ("flow-constant", "h", 0),
        ("flow-constant", "h", -3),
        ("flow-constant", "h", True),
        ("rate", "eps", []),
        ("rate", "eps", 0.5),
        ("flow-constant", "n_list", 4),
        ("rate", "v", "10"),
        ("tail", "lam", "1/2"),
    ],
)
def test_bad_config_values_exit_2(tmp_path, capsys, cmd, field, value):
    # each used to raise a traceback (exit 1), to be read silently (h: true
    # as 1, v: "10" as ["1", "0"]) or to name one character (lam: got '/')
    cfg = tiny_config(tmp_path, cmd, **{field: value})
    assert run_cli(tmp_path, cmd, cfg) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cmd.replace('-', '_')}.{field}: ")
    assert err.endswith(f", got {value!r}\n")


@pytest.mark.parametrize(
    "key, value",
    [("boxes", 5), ("boxes", [[["0", "1", "2"], ["0", "1"]]]), ("source", []),
     ("sink", [5])],
)
def test_malformed_domain_boxes_exit_2(tmp_path, capsys, key, value):
    domain = {"d": 2, "boxes": [[["0", "1"], ["0", "1"]]],
              "source": [[["0", "0"], ["0", "1"]]], "sink": [[["1", "1"], ["0", "1"]]]}
    cfg = tiny_config(tmp_path, "maxflow", domain=dict(domain, **{key: value}))
    assert run_cli(tmp_path, "maxflow", cfg) == 2
    assert capsys.readouterr().err.startswith(f"config error: maxflow.domain.{key}")


@pytest.mark.parametrize("cmd", sorted(TINY))
def test_only_the_rate_solver_loads_numpy(tmp_path, cmd):
    # a fresh process per subcommand, since the test process has numpy loaded
    # already; the manifest names the numpy version only where the run loaded it
    write_inputs(tmp_path)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(tiny_config(tmp_path, cmd)))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; from latflow.cli import main; "
            "rc = main(sys.argv[1:]); print(rc, 'numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, cmd, "--config", str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = cmd == "rate"
    assert proc.stdout.split() == ["0", str(loaded)]
    versions = json.loads((tmp_path / "out" / "manifest.json").read_text())["versions"]
    assert versions == {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "pyyaml": yaml.__version__,
        "numpy": numpy.__version__ if loaded else None,
    }


# the modules each subcommand's process must not load: a process compiles
# every module it loads, since no bytecode cache need be written
NOT_LOADED = {
    "distance": ("capacities", "maxflow", "stream", "estimate", "reconnect"),
    "tail": ("reconnect",),
    "tau": ("reconnect",),
    "flow-constant": ("reconnect",),
    "maxflow": ("reconnect",),
    "rate": ("reconnect",),
}


# modules a `distance` process has no use for: geometry's dataclasses (and
# the inspect it loads), the CSV writer and the rate solver's numpy
DISTANCE_UNUSED = ("csv", "dataclasses", "numpy")


def _latflow_modules_after(code, *argv, also=()):
    """The latflow modules, and those named in ``also``, that a fresh process
    has loaded after running code."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code += f"; print(*sorted(m for m in sys.modules if m.startswith('latflow') or m in {also!r}))"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.parametrize("cmd", sorted(NOT_LOADED))
def test_a_subcommand_loads_only_the_modules_it_runs(tmp_path, cmd):
    write_inputs(tmp_path)
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(tiny_config(tmp_path, cmd)))
    rc, *loaded = _latflow_modules_after(
        "import sys; from latflow.cli import main; print(main(sys.argv[1:]))",
        cmd, "--config", str(path), also=DISTANCE_UNUSED if cmd == "distance" else ())
    assert rc == "0"
    assert not set(loaded) & {f"latflow.{m}" for m in NOT_LOADED[cmd]}
    if cmd == "distance":
        assert loaded == ["latflow", "latflow.cli", "latflow.measure"]


def test_importing_the_package_loads_no_submodule():
    assert _latflow_modules_after("import sys, latflow") == ["latflow"]
    # a submodule, or a name of one, loads that module and what it imports
    assert _latflow_modules_after("import sys, latflow; latflow.measure",
                                  also=DISTANCE_UNUSED) == ["latflow", "latflow.measure"]
    assert _latflow_modules_after("import sys, latflow; latflow.max_flow") == [
        "latflow", "latflow.geometry", "latflow.maxflow", "latflow.stream"]


# the names latflow/__init__.py imported eagerly, by module
PACKAGE_NAMES = {
    "geometry": ["DomainSpec", "EdgeId", "LatticeDomain", "Region", "boundary_edge_set",
                 "cylinder_sets", "discretize_domain", "face_partition", "frac",
                 "unit_box_domain", "unit_cube", "unit_square_domain"],
    "capacities": ["CapacityDistribution", "derive_seed", "sample_capacities"],
    "stream": ["Stream", "admissibility_region_report", "admissibility_report",
               "constant_stream", "divergence_at", "dump_stream", "face_flux", "flow_value",
               "load_stream", "vector_measure"],
    "maxflow": ["MaxFlowResult", "cylinder_flow_tau", "max_flow"],
    "reconnect": ["balance_faces", "decompose", "glue_adjacent", "mix", "mix2d", "mix_precise",
                  "mix_sparse"],
    "measure": ["DistanceBracket", "DistanceOptions", "VectorMeasure", "distance", "restrict"],
    "estimate": ["RateEstimate", "estimate_flow_constant", "estimate_rate", "min_distance",
                 "rate_upper_bound", "tail_probability", "wilson_interval"],
}


def test_every_package_name_is_its_modules_object():
    import importlib

    import latflow

    for module, names in PACKAGE_NAMES.items():
        mod = importlib.import_module(f"latflow.{module}")
        for name in names:
            assert getattr(latflow, name) is getattr(mod, name), name
            assert name in dir(latflow), name
    assert sorted(latflow.__all__) == sorted(n for names in PACKAGE_NAMES.values() for n in names)
    with pytest.raises(AttributeError):
        latflow.no_such_name
