"""jetcones benchmark runner.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Runs one workload (solve, verify or grid-checks) from the root of a
checkout, against the package under src/. One process, one thread, and
BLAS pinned to one thread. The workload is closed loop: one caller, and
each call starts after the previous one returned.

--trace 0 measures for --seconds seconds: one full pass over the
workload's operations, then more rounds while time remains, skipping an
operation whose last duration would overrun. It prints the end-to-end
metrics. Their times are taken on a CalibratedClock (hostclock.py):
seconds at a fixed host speed, measured by a calibration kernel that runs
between the workload's bytecodes. setup_s is the median of several fresh
processes that each import the package, generate the inputs and build the
oracles and grids, timed on the same clock.

--trace 1 runs an untraced pass, a traced pass and another untraced
pass, and prints the per-layer metrics computed from the traced pass's
spans; the tracing overhead is the traced pass's wall time minus the mean
of the two untraced passes. The spans are written to .perfbench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it carries
details: the metrics under their per-workload names, per-operation
medians, the solver refinement table and the BLAS setting.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import metrics  # noqa: E402
import tracing  # noqa: E402
from hostclock import CalibratedClock, WallClock  # noqa: E402
from metrics import Record, op_medians  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "verify", "grid-checks"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, generate inputs, print the seconds taken and exit "
                         "(one setup_s sample)")
    return ap.parse_args(argv)


def import_program():
    """Import jetcones from the checkout's src/, never from elsewhere."""
    if not (SRC / "jetcones" / "__init__.py").is_file():
        raise FileNotFoundError(f"no jetcones package under {SRC}")
    sys.path.insert(0, str(SRC))
    import jetcones

    if Path(jetcones.__file__).resolve().parent != (SRC / "jetcones").resolve():
        raise ImportError(f"jetcones imported from {jetcones.__file__}, not {SRC}")
    import workloads

    return workloads


def setup_once(workload: str, seed: int) -> float:
    with CalibratedClock() as clock:
        mark = clock.mark()
        workloads = import_program()
        workdir = make_workdir(workload)
        try:
            workloads.build(workload, seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return clock.since(mark)


def make_workdir(workload: str) -> Path:
    path = OUT / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def setup_samples(workload: str, seed: int) -> list:
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def execute(op, clock, tracer=None) -> Record:
    """Time one call into jetcones, then check its output untimed. A call
    or check that raises counts all the operation's checks as failed."""
    from workloads import Outcome

    t0 = time.perf_counter()
    mark = clock.mark()
    try:
        raw = op.call() if tracer is None else traced_call(tracer, op)
    except Exception:  # a failed operation is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        return Record(op.name, clock.since(mark), Outcome(op.checks, op.checks),
                      op.focus, time.perf_counter() - t0)
    took, wall = clock.since(mark), time.perf_counter() - t0
    try:
        outcome = op.check(raw)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(op.checks, op.checks)
    return Record(op.name, took, outcome, op.focus, wall)


def traced_call(tracer, op):
    tracer.active = True
    try:
        return tracer.call(f"bench.{op.name}", op.call)
    finally:
        tracer.active = False


def one_pass(ops, clock, tracer=None) -> tuple:
    t0 = time.perf_counter()
    records = [execute(op, clock, tracer) for op in ops]
    return records, time.perf_counter() - t0


def measure(ops, seconds: float, clock) -> list:
    """One full pass, then further rounds while each next call still fits
    in `seconds` of wall time."""
    t0 = time.perf_counter()
    records, _ = one_pass(ops, clock)
    last = {r.op: r.wall_s for r in records}
    progressed = True
    while progressed:
        progressed = False
        for op in ops:
            if time.perf_counter() - t0 + last[op.name] > seconds:
                continue
            rec = execute(op, clock)
            last[op.name] = rec.wall_s
            records.append(rec)
            progressed = True
    return records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    return {"library": name, "env": {k: os.environ.get(k) for k in BLAS_ENV}}


def result_line(records, values: dict) -> dict:
    attempted, failed = metrics.tally(records)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def op_table(records) -> list:
    return [{"op": op, "median_s": m.time_s, "median_wall_s": m.wall_s,
             "samples": m.samples,
             "checks": m.outcome.checks, "failed": m.outcome.failed}
            for op, m in op_medians(records).items()]


def run(args) -> int:
    workload = args.workload
    workloads = import_program()
    samples = setup_samples(workload, args.seed) if args.trace == 0 else []
    clock = CalibratedClock() if args.trace == 0 else WallClock()
    workdir = make_workdir(workload)
    try:
        wl = workloads.build(workload, args.seed, workdir, clock)
        detail = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "blas": blas_info(), "threads": 1,
                  "loop": "closed, one caller"}
        summary = None
        if args.trace == 0:
            with clock:
                records = measure(wl.ops, args.seconds, clock)
            detail["clock"] = clock.stats()
            e2e = metrics.end_to_end(records, samples, peak_rss_mb())
            detail["named"] = metrics.named_metrics(workload, e2e, records)
            detail["setup_samples_s"] = samples
            out_metrics = e2e
        else:
            # untraced, traced, untraced: the mean of the untraced passes
            # brackets the traced one, so warm-up and slow drift cancel
            _, before_s = one_pass(wl.ops, clock)
            tracer = tracing.Tracer()
            replaced = tracing.install(tracer)
            records, traced_s = one_pass(wl.ops, clock, tracer)
            tracing.uninstall(replaced)
            _, after_s = one_pass(wl.ops, clock)
            overhead_s = traced_s - 0.5 * (before_s + after_s)
            summary = tracing.summarize(tracer, under=metrics.UNDER)
            out_metrics = metrics.per_layer(summary, records, overhead_s, len(tracer))
            detail.update(untraced_pass_s=[before_s, after_s], traced_pass_s=traced_s,
                          trace_file=str(save_trace(tracer, workload, args.seed)))
        detail["ops"] = op_table(records)
        if workload == "solve":
            detail["refinement"] = metrics.refinement_table(records, summary)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result_line(records, out_metrics)))
    return 0


def save_trace(tracer, workload: str, seed: int) -> Path:
    import numpy as np

    path = OUT / f"trace-{workload}-seed{seed}.npz"
    np.savez(path, **tracer.to_arrays())
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_only:
            print(setup_once(args.workload, args.seed))
            return 0
        return run(args)
    except (FileNotFoundError, ImportError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
