"""Run the benchmark over seeds and write one BENCH_<label>.json record per checkout.

Usage:
    python scripts/bench.py --seeds 1 2 3 [--workloads grid-checks ...]
        [--seconds 30] [--out DIR] LABEL=CHECKOUT [LABEL=CHECKOUT ...]

Each run is the command BENCHMARK.json declares (`python3 perfbench/run.py`)
with --workload, --seed and --seconds, started from the checkout's root, so
it measures that checkout's src/. For each workload and seed every checkout
runs once; with two checkouts the order alternates from seed to seed, so
the runs form alternating pairs.

BENCH_<label>.json holds the checkout's git revision and, per workload:
the median and quartiles of each end-to-end metric BENCHMARK.json declares,
the run count, and each run's seed, metrics, operation counts,
calibration-clock statistics (run.py's detail.clock) and detail: the
fresh-process set-up samples whose median is setup_s
(detail.setup_samples_s) and, for solve, the per-problem refinement rows
(detail.refinement.rows: iterations, time, error and residual).

It also holds a layers block: the in-process cost of one oracle
evaluation layer, the median microseconds per canonical_operator value
on each of verify's four focus cones (layers.canonical_us_per_value),
timed once per checkout in a child process that imports the checkout's
src.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run.py's own set-up samples and first full pass come on top of --seconds
RUN_TIMEOUT_S = 600
# The layer timing: LAYER_REPEATS passes over LAYER_VALUES seeded matrices
# per cone, the cones, sizes and scales of verify's canonical operations;
# the child prints {cone: median us per value} as one JSON line
LAYER_VALUES, LAYER_REPEATS = 250, 21
LAYER_CODE = """
import json, statistics, sys, time
import numpy as np
from jetcones import catalog, jets
from jetcones.canonical import canonical_operator
values, repeats = int(sys.argv[1]), int(sys.argv[2])
rng = np.random.default_rng(0)
cones = {}
for name, F, scale in (("P2", catalog.cone_P(2), 2.0), ("P3", catalog.cone_P(3), 2.0),
                       ("pfold32", catalog.cone_pfold(3, 2), 1.5),
                       ("pucci", catalog.cone_pucci(2, 1.0, 2.0), 1.5)):
    cones[name] = F, [jets.random_symmetric(rng, F.n, scale) for _ in range(values)]
passes = {name: [] for name in cones}
# the passes of the four cones interleave, so a slow spell of the host
# lands on all of them
for _ in range(repeats):
    for name, (F, mats) in cones.items():
        start = time.perf_counter()
        for A in mats:
            canonical_operator(F, A)
        passes[name].append((time.perf_counter() - start) / values * 1e6)
print(json.dumps({name: statistics.median(us) for name, us in passes.items()}))
"""


@functools.cache
def benchmark() -> dict:
    """BENCHMARK.json: the command, the workloads and the end-to-end metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def end_to_end() -> list:
    return [m["name"] for m in benchmark()["end_to_end"]]


def parse_args(argv=None):
    workloads = [w["name"] for w in benchmark()["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="LABEL=CHECKOUT")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=workloads, default=workloads)
    ap.add_argument("--seconds", type=float, default=float(benchmark()["run_seconds"]))
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    args.checkouts = [_label_and_path(c, ap) for c in args.checkouts]
    return args


def _label_and_path(spec: str, ap) -> tuple:
    label, sep, path = spec.partition("=")
    if not sep or not label or not Path(path, "perfbench", "run.py").is_file():
        ap.error(f"expected LABEL=CHECKOUT with perfbench/run.py under CHECKOUT, got {spec!r}")
    return label, Path(path).resolve()


def revision(checkout: Path):
    """HEAD of the checkout, suffixed -dirty when tracked files differ from
    it; None outside a git checkout."""
    head = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    if head.returncode != 0:
        return None
    dirty = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain",
                            "--untracked-files=no"], capture_output=True, text=True).stdout
    return head.stdout.strip() + ("-dirty" if dirty.strip() else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its seed, end-to-end metrics, counts, clock, set-up
    samples and, for solve, refinement rows."""
    cmd = benchmark()["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S + 2 * seconds)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr}")
    detail_line, result_line = done.stdout.strip().splitlines()[-2:]
    detail, result = json.loads(detail_line)["detail"], json.loads(result_line)
    kept = {"setup_samples_s": detail["setup_samples_s"]}
    if "refinement" in detail:
        kept["refinement"] = {"rows": detail["refinement"]["rows"]}
    return {"seed": seed,
            "metrics": {k: result["metrics"][k]["value"] for k in end_to_end()},
            "attempted": result["attempted"], "failed": result["failed"],
            "clock": detail["clock"], "detail": kept}


def layers(checkout: Path) -> dict:
    """The layers block: median us per canonical_operator value on each
    verify focus cone, timed in a child process on the checkout's src."""
    cmd = [sys.executable, "-c", LAYER_CODE, str(LAYER_VALUES), str(LAYER_REPEATS)]
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"the layer timing in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return {"canonical_us_per_value": json.loads(done.stdout.strip().splitlines()[-1]),
            "values": LAYER_VALUES, "repeats": LAYER_REPEATS}


def summary(values: list) -> dict:
    """Median and quartiles (inclusive method) of a metric over runs."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3}


def record(label: str, checkout: Path, seconds: float, runs: dict, layer: dict) -> dict:
    workloads = {}
    for w, rs in runs.items():
        workloads[w] = {
            "runs": len(rs),
            "metrics": {k: summary([r["metrics"][k] for r in rs]) for k in end_to_end()},
            "attempted": sum(r["attempted"] for r in rs),
            "failed": sum(r["failed"] for r in rs),
            "per_run": rs,
        }
    return {"label": label, "revision": revision(checkout), "seconds": seconds,
            "command": benchmark()["command"], "workloads": workloads, "layers": layer}


def main(argv=None) -> int:
    args = parse_args(argv)
    runs = {label: {w: [] for w in args.workloads} for label, _ in args.checkouts}
    for w in args.workloads:
        for i, seed in enumerate(args.seeds):
            turn = i % len(args.checkouts)
            for label, checkout in args.checkouts[turn:] + args.checkouts[:turn]:
                r = run_once(checkout, w, seed, args.seconds)
                runs[label][w].append(r)
                print(json.dumps({"label": label, "workload": w, **r["metrics"],
                                  "seed": seed, "failed": r["failed"]}), flush=True)
    for label, checkout in args.checkouts:
        path = args.out / f"BENCH_{label}.json"
        rec = record(label, checkout, args.seconds, runs[label], layers(checkout))
        path.write_text(json.dumps(rec, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
