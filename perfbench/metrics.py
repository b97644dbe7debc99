"""Metric assembly: end-to-end metrics from untraced runs, per-layer
metrics from a traced run. Names and units match BENCHMARK.json."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple

from tracing import LAYERS, Summary

SOLVE_PROBLEMS = ("P_33", "pfold_33", "slag_33", "pucci_33", "P_rot_33", "P_65")


@dataclass
class Record:
    """One execution of one operation."""

    op: str
    time_s: float           # duration on the run's clock
    outcome: object         # workloads.Outcome
    focus: bool = False
    wall_s: float = 0.0     # plain wall time, timer handler included


class OpSummary(NamedTuple):
    time_s: float       # median duration
    inside_s: float     # median time spent on the operation's items
    outcome: object     # outcome of the first execution
    focus: bool
    samples: int
    wall_s: float       # median plain wall time


def tally(records) -> tuple:
    """(checks attempted, checks failed) over all executions."""
    return (sum(r.outcome.checks for r in records),
            sum(r.outcome.failed for r in records))


def op_medians(records) -> dict:
    """op name -> OpSummary over its executions."""
    by_op = defaultdict(list)
    for r in records:
        by_op[r.op].append(r)
    out = {}
    for op, recs in by_op.items():
        times = [r.time_s for r in recs]
        inside = [r.outcome.inside_s if r.outcome.inside_s is not None else r.time_s
                  for r in recs]
        out[op] = OpSummary(statistics.median(times), statistics.median(inside),
                            recs[0].outcome, recs[0].focus, len(recs),
                            statistics.median(r.wall_s for r in recs))
    return out


def end_to_end(records, setup_samples, peak_rss_mb: float) -> dict:
    """The end-to-end metrics of one untraced run.

    batch_s sums the per-operation median times over the whole workload;
    focus_s does the same over the workload's focus part; items_per_s
    divides the workload's work units by the median time spent on them.
    """
    med = op_medians(records).values()
    batch = sum(m.time_s for m in med)
    focus = sum(m.time_s for m in med if m.focus)
    items = sum(m.outcome.items for m in med)
    items_time = sum(m.inside_s for m in med if m.outcome.items)
    attempted, failed = tally(records)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "batch_s": (batch, "s"),
        "focus_s": (focus, "s"),
        "items_per_s": (items / items_time if items_time > 0 else 0.0, "1/s"),
        "pass_frac": (1.0 - failed / attempted if attempted else 0.0, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def named_metrics(workload: str, e2e: dict, records) -> dict:
    """The workload's metrics under their per-workload names (solve_s, ...)."""
    v = {k: val for k, (val, _) in e2e.items()}
    attempted, failed = tally(records)
    out = {"setup_s": v["setup_s"], "peak_rss_mb": v["peak_rss_mb"],
           "fail_frac": failed / attempted if attempted else 1.0}
    if workload == "solve":
        out.update(solve_s=v["batch_s"], solve_p65_s=v["focus_s"])
    elif workload == "verify":
        values = sum(m.outcome.checks for m in op_medians(records).values() if m.focus)
        out.update(verify_s=v["batch_s"], involution_jets_per_s=v["items_per_s"],
                   canonical_per_s=values / v["focus_s"] if v["focus_s"] else 0.0)
    else:
        out.update(gridcheck_s=v["batch_s"], subharmonic_nodes_per_s=v["items_per_s"])
    return out


def iter_growth(stats_by_op: dict) -> float:
    it33 = stats_by_op.get("P_33", {}).get("iterations")
    it65 = stats_by_op.get("P_65", {}).get("iterations")
    return math.log2(it65 / it33) if it33 and it65 else 0.0


def refinement_table(records, summary: Summary | None = None) -> dict:
    """Per (operator, grid): iterations, time, error and residual, and
    from a traced pass the mean duration of one discrete-operator sweep."""
    rows = []
    stats = {}
    for op, m in op_medians(records).items():
        st = m.outcome.stats
        stats[op] = st
        if summary is not None:
            sweeps, sweep_s = summary.under.get((SWEEP, f"bench.{op}"), (0, 0.0))
            st = {**st, "sweep_us": sweep_s / sweeps * 1e6 if sweeps else None}
        rows.append({
            "problem": op,
            "iterations": st.get("iterations"),
            "time_s": m.time_s,
            "wall_s": m.wall_s,
            "samples": m.samples,
            "us_per_iteration": (m.time_s / st["iterations"] * 1e6
                                 if st.get("iterations") else None),
            "max_err": st.get("max_err"),
            "residual": st.get("residual"),
            **({"sweep_us": st["sweep_us"]} if "sweep_us" in st else {}),
        })
    return {"rows": rows, "iter_growth": iter_growth(stats),
            "known_gap": "129x129 not run: damped Jacobi needs about 140k iterations, "
                         "past max_iter = 100k"}


PER_LAYER_UNITS = {
    "jets.symmat_builds": "count", "jets.eig_calls": "count", "jets.self_s": "s",
    "catalog.oracle_evals": "count", "catalog.us_per_eval": "us", "catalog.self_s": "s",
    "duality.jets_sampled": "count", "duality.excluded_frac": "ratio", "duality.self_s": "s",
    "canonical.calls": "count", "canonical.evals_per_value": "count", "canonical.self_s": "s",
    "garding.eig_calls": "count", "garding.self_s": "s",
    "boundary.calls": "count", "boundary.self_s": "s",
    "grids.discrete_jets": "count", "grids.self_s": "s",
    **{f"solver.iterations.{p}": "count" for p in SOLVE_PROBLEMS},
    "solver.iter_growth": "ratio", "solver.sweeps": "count", "solver.sweep_us": "us",
    "solver.self_s": "s", "solver.nonconverged": "count",
    "experiments.pairs": "count", "experiments.self_s": "s",
    "cli.self_s": "s", "exprs.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}

VALUE = "catalog.FiberOracle.value"
CANONICAL = "canonical.canonical_operator"
SWEEP = "solver.sweep"
UNDER = ((VALUE, CANONICAL),) + tuple((SWEEP, f"bench.{p}") for p in SOLVE_PROBLEMS)


def per_layer(summary: Summary, records, overhead_s: float, spans: int) -> dict:
    """Per-layer metrics of one traced pass. Layers the workload does not
    reach report zero counts and zero self time."""
    c = summary.count
    incl = summary.inclusive_s

    def ratio(a, b):
        return a / b if b else 0.0

    stats = {op: m.outcome.stats for op, m in op_medians(records).items()}
    sampled = sum(st.get("jets_sampled", 0) for st in stats.values())
    excluded = sum(st.get("excluded", 0) for st in stats.values())
    m = {
        "jets.symmat_builds": c.get("jets.SymMat.__init__", 0),
        "jets.eig_calls": c.get("jets.eigenvalues", 0) + c.get("jets.spectrum", 0),
        "catalog.oracle_evals": c.get(VALUE, 0),
        "catalog.us_per_eval": ratio(incl.get(VALUE, 0.0), c.get(VALUE, 0)) * 1e6,
        "duality.jets_sampled": sampled,
        "duality.excluded_frac": ratio(excluded, sampled),
        "canonical.calls": c.get(CANONICAL, 0),
        "canonical.evals_per_value": ratio(summary.under[(VALUE, CANONICAL)][0],
                                           c.get(CANONICAL, 0)),
        "garding.eig_calls": c.get("garding.garding_eigenvalues", 0),
        "boundary.calls": summary.entries.get("boundary", 0),
        "grids.discrete_jets": c.get("grids.GridFunction.discrete_jet", 0),
        "solver.iter_growth": iter_growth(stats),
        "solver.sweeps": c.get(SWEEP, 0),
        "solver.sweep_us": ratio(incl.get(SWEEP, 0.0), c.get(SWEEP, 0)) * 1e6,
        "solver.nonconverged": sum(st.get("nonconverged", 0) for st in stats.values()),
        "experiments.pairs": c.get("experiments.sub_super_pair", 0),
        "trace.overhead_s": overhead_s,
        "trace.spans": spans,
    }
    for p in SOLVE_PROBLEMS:
        m[f"solver.iterations.{p}"] = stats.get(p, {}).get("iterations", 0)
    for layer in LAYERS:
        exclude = (SWEEP,) if layer == "solver" else ()
        m[f"{layer}.self_s"] = summary.layer_self_s(layer, exclude)
    return {k: (m[k], PER_LAYER_UNITS[k]) for k in PER_LAYER_UNITS}
