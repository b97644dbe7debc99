"""scripts/bench.py on stubbed benchmark runs: run order and record schema."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


# verify's four focus cones, then the two fibers without a spectrum
LAYER_CONES = ["P2", "P3", "pfold32", "pucci", "det3_branch2", "lagrangian4"]
# the two routes of the timed shift
SHIFT_ROUTES = ["P3_eigenvalue", "P3_fan"]
# the timed discrete-operator sweeps and jet_field grids
SWEEPS = ["P_33", "P_65", "pucci_65", "pfold_9x9x9", "P_block16_17"]
JET_FIELDS = ["33x33", "11x11x11"]


def _fake_run(calls, layer_calls=None):
    """A subprocess.run that answers git with a fixed revision, the layer
    timing with len(layer_calls) us per value on each cone, 10 times
    that per jet on each shift route, 100 times per sweep and 1000 times
    per jet_field (noting each call's checkout and PYTHONPATH), and the
    benchmark with a detail line
    and a result line whose focus_s is the seed in seconds. The detail
    line carries five set-up samples and, for solve, one refinement row."""

    def run(cmd, cwd=None, capture_output=False, text=False, timeout=None, env=None):
        if cmd[0] == "git":
            out = "0123abc\n" if "rev-parse" in cmd else ""
            return subprocess.CompletedProcess(cmd, 0, out, "")
        if cmd[1] == "-c":
            assert cmd[2] == bench.LAYER_CODE
            assert cmd[3:] == [str(bench.LAYER_VALUES), str(bench.LAYER_REPEATS),
                               str(bench.SHIFT_JETS)]
            layer_calls.append((Path(cwd).name, env["PYTHONPATH"]))
            k = float(len(layer_calls))
            us = {"canonical_us_per_value": {cone: k for cone in LAYER_CONES},
                  "shift_us_per_jet": {route: 10 * k for route in SHIFT_ROUTES},
                  "sweep_us": {case: 100 * k for case in SWEEPS},
                  "jet_field_us": {grid: 1000 * k for grid in JET_FIELDS}}
            return subprocess.CompletedProcess(cmd, 0, json.dumps(us) + "\n", "")
        seed = int(cmd[cmd.index("--seed") + 1])
        workload = cmd[cmd.index("--workload") + 1]
        calls.append((Path(cwd).name, workload, seed))
        metrics = {k: {"value": 1.0, "unit": "s"} for k in bench.end_to_end()}
        metrics["focus_s"]["value"] = float(seed)
        detail = {"detail": {"clock": {"ticks": seed, "kernel_q50_s": 5e-4},
                             "setup_samples_s": [0.1 * seed] * 5, "ops": []}}
        if workload == "solve":
            detail["detail"]["refinement"] = {"rows": [{"problem": "P_33", "iterations": seed}],
                                              "iter_growth": None, "known_gap": "x"}
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
        return subprocess.CompletedProcess(cmd, 0, "log line\n" + json.dumps(detail) + "\n"
                                           + json.dumps(result) + "\n", "")

    return run


def test_bench_alternates_checkouts_and_writes_one_record_each(tmp_path, monkeypatch):
    for side in ("old", "new"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    calls, layer_calls = [], []
    monkeypatch.setattr(bench.subprocess, "run", _fake_run(calls, layer_calls))
    assert bench.main(["--seeds", "4", "1", "2", "--workloads", "verify", "grid-checks",
                       "--seconds", "2", "--out", str(tmp_path),
                       f"parent={tmp_path / 'old'}", f"change={tmp_path / 'new'}"]) == 0
    # each seed runs both checkouts, the first one alternating
    assert calls == [("old", "verify", 4), ("new", "verify", 4), ("new", "verify", 1),
                     ("old", "verify", 1), ("old", "verify", 2), ("new", "verify", 2),
                     ("old", "grid-checks", 4), ("new", "grid-checks", 4),
                     ("new", "grid-checks", 1), ("old", "grid-checks", 1),
                     ("old", "grid-checks", 2), ("new", "grid-checks", 2)]
    # one layer timing per checkout, on its own src
    assert layer_calls == [("old", str(tmp_path / "old" / "src")),
                           ("new", str(tmp_path / "new" / "src"))]
    for i, label in enumerate(("parent", "change")):
        rec = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
        assert set(rec) == {"label", "revision", "seconds", "command", "workloads", "layers"}
        assert rec["layers"] == {"canonical_us_per_value": {c: i + 1.0 for c in LAYER_CONES},
                                 "shift_us_per_jet": {r: 10 * (i + 1.0) for r in SHIFT_ROUTES},
                                 "sweep_us": {c: 100 * (i + 1.0) for c in SWEEPS},
                                 "jet_field_us": {g: 1000 * (i + 1.0) for g in JET_FIELDS},
                                 "values": bench.LAYER_VALUES, "repeats": bench.LAYER_REPEATS,
                                 "shift_jets": bench.SHIFT_JETS}
        assert rec["label"] == label and rec["revision"] == "0123abc"
        assert rec["seconds"] == 2.0 and rec["command"] == bench.benchmark()["command"]
        assert set(rec["workloads"]) == {"verify", "grid-checks"}
        for w in rec["workloads"].values():
            assert w["runs"] == 3 and w["attempted"] == 9 and w["failed"] == 0
            assert list(w["metrics"]) == bench.end_to_end()
            assert len(w["metrics"]) == 6
            assert w["metrics"]["focus_s"] == {"median": 2.0, "q1": 1.5, "q3": 3.0}
            assert w["metrics"]["setup_s"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
            assert [r["seed"] for r in w["per_run"]] == [4, 1, 2]
            assert [r["clock"]["ticks"] for r in w["per_run"]] == [4, 1, 2]
            assert [r["detail"]["setup_samples_s"] for r in w["per_run"]] == [
                [0.1 * seed] * 5 for seed in (4, 1, 2)]
            assert all(set(r["detail"]) == {"setup_samples_s"} for r in w["per_run"])


def test_bench_keeps_the_refinement_rows_of_solve(tmp_path, monkeypatch):
    (tmp_path / "co" / "perfbench").mkdir(parents=True)
    (tmp_path / "co" / "perfbench" / "run.py").write_text("")
    monkeypatch.setattr(bench.subprocess, "run", _fake_run([], []))
    assert bench.main(["--seeds", "3", "5", "--workloads", "solve", "--seconds", "1",
                       "--out", str(tmp_path), f"one={tmp_path / 'co'}"]) == 0
    rec = json.loads((tmp_path / "BENCH_one.json").read_text())
    for r, seed in zip(rec["workloads"]["solve"]["per_run"], (3, 5)):
        assert r["detail"] == {"setup_samples_s": [0.1 * seed] * 5,
                               "refinement": {"rows": [{"problem": "P_33",
                                                        "iterations": seed}]}}


def test_layer_code_times_every_focus_cone(tmp_path):
    # the child the layer timing starts, on this checkout's src with one
    # value, one pass per cone and a shift of five jets: one positive
    # median per focus cone, per fiber without a spectrum, per route, per
    # sweep and per jet_field grid
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", bench.LAYER_CODE, "1", "1", "5"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert list(out) == ["canonical_us_per_value", "shift_us_per_jet", "sweep_us",
                         "jet_field_us"]
    for key, names in (("canonical_us_per_value", LAYER_CONES),
                       ("shift_us_per_jet", SHIFT_ROUTES), ("sweep_us", SWEEPS),
                       ("jet_field_us", JET_FIELDS)):
        assert list(out[key]) == names and all(v > 0.0 for v in out[key].values())


def test_bench_summary_of_one_run():
    assert bench.summary([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}


def test_bench_rejects_a_checkout_without_the_benchmark(tmp_path):
    with pytest.raises(SystemExit):
        bench.parse_args(["--seeds", "1", f"x={tmp_path}"])
