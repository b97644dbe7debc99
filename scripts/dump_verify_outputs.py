"""Print every output of one benchmark workload as exact JSON.

Usage: PYTHONPATH=src python scripts/dump_verify_outputs.py [--seed N]
           [--workload {verify,grid-checks,solve}] [--distances K] > outputs.json

Builds the workload's inputs for the seed (perfbench/workloads.py), runs
each operation once and prints its output, floats as float.hex:

- verify (the default): check reports as to_json_dict, canonical values,
  Garding residuals and pseudoconvexity verdicts, plus the signed
  distances of the first K canonical-operator matrices of each cone and
  the canonical values of the spectral cones that read r or p (Q, M0, an
  M cone and the dual of another) on BISECTED_JETS seeded random jets
  each, two in three with gradient 0 and value -|r| or |r| so that
  values exist, a failure given as the exception's name; the Garding
  eigenvalues of each garding operator on its inputs, and the canonical
  values of each of its branch oracles on GARDING_BRANCH_MATRICES seeded
  random matrices; and the canonical values of the FALLBACK fibers
  (sigma:k=2 in 3-D, M(0, full, 1) in 2-D) on FALLBACK_JETS seeded random
  jets each with value 0, most of which the ladder's bisection fallback
  solves; and the canonical values of the FORMROUTE fibers, which have no
  spectrum (lagrangian in 4-D and its dual, failure:alpha=2 with which=min
  and which=max in 2-D, the trace induced on P in 3-D), on FORMROUTE_JETS
  seeded random matrices, or jets for the full failure fibers, each; the
  strict M-monotonicity reports (canonical.check_strict_M_monotone) of
  the STRICT fibers, each with its own functional as the operator and
  M = M(0, full, inf), and the fiber-continuity reports
  (catalog.check_fiberegularity) of the four demo fiber maps, each with
  its own monotonicity cone; these reports run in every check that moves
  jets into their fibers (catalog.into_fibers,
  catalog.shift_stack_to_boundary) outside the benchmark's operations;
- grid-checks: every comparison and zero-maximum verdict (ok, witness
  node, margin, note), the strict approximator of the oversized box,
  the TranslationReport fields, the discrete jets classified per
  operation, and the probe verdicts. The seconds the workload's node
  counter measures are left out;
- solve: each problem's exit code and the sha256 of the solution.csv
  and solve.json that `jetcones solve` writes (in a temporary
  directory), so the files are compared byte for byte.

Run it against two checkouts (PYTHONPATH=<checkout>/src) and diff the
files to show that a change keeps every verdict, margin and value bit
for bit.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from jetcones import canonical, catalog, garding  # noqa: E402
from jetcones.duality import CheckReport, dual_oracle  # noqa: E402
from jetcones.errors import BracketingFailure  # noqa: E402
from jetcones.jets import Jet2, random_jet, random_symmetric  # noqa: E402

CONES = {"P2": catalog.cone_P(2), "P3": catalog.cone_P(3),
         "pfold32": catalog.cone_pfold(3, 2), "pucci": catalog.cone_pucci(2, 1.0, 2.0)}
# spectral cones that read r or p. canonical_operator bisected them before
# every spectral fiber took the eigenvalue ladder; the canonical_bisected_*
# keys keep that name, so dumps of either route line up
BISECTED = {"Q": catalog.cone_Q(2), "M0": catalog.cone_M0(2),
            "M_half": catalog.make_oracle("M:gamma=1,D=half:e1,R=1", 2),
            "M_full_dual": dual_oracle(catalog.make_oracle("M:gamma=0,D=full,R=inf", 2))}
BISECTED_JETS = 50
# spectral fibers whose secant step on the ladder's bracket mostly fails its
# certificate, so that the value comes from the bisection fallback: sigma's
# g is curved, and M(0, full, 1)'s g = min(-r, lambda_min - t - |p|)
# vanishes on an interval at r = 0
FALLBACK = {"sigma3": catalog.make_oracle("sigma:k=2", 3),
            "M_full_R1": catalog.make_oracle("M:gamma=0,D=full,R=1", 2)}
FALLBACK_JETS = 50
# fibers without a spectrum, whose ladder evaluates the form on the stack
# of jets A - tI
FORMROUTE = {"lagrangian4": catalog.cone_lagrangian(4),
             "lagrangian4_dual": dual_oracle(catalog.cone_lagrangian(4)),
             "failure_min": catalog.make_oracle("failure:alpha=2,which=min", 2),
             "failure_max": catalog.make_oracle("failure:alpha=2,which=max", 2),
             "trace_on_P3": canonical.induced_fiber(
                 lambda r, p, A: np.trace(A, axis1=-2, axis2=-1), catalog.cone_P(3), 3,
                 catalog.Arity.PURE_SECOND_ORDER, "trace on P")}
FORMROUTE_JETS = 50
# fibers of the strict M-monotonicity reports, by (key, dimension)
STRICT = {"P3": ("P", 3), "Q": ("Q", 2), "pucci": ("pucci:1,2", 2)}
STRICT_M = catalog.MonotonicityCone(0.0, catalog.DirectionalCone.full(), float("inf"))
FIBER_MAPS = ("pma", "slag", "affine-sphere", "ot")
GARDING_BRANCH_MATRICES = 10


def exact(x):
    if isinstance(x, CheckReport):
        return exact(x.to_json_dict())
    if dataclasses.is_dataclass(x):
        return {f.name: exact(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (np.ndarray, np.generic)):
        return exact(x.tolist())
    if isinstance(x, dict):
        return {k: exact(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [exact(v) for v in x]
    if isinstance(x, float):
        return float.hex(x)
    return x


def bisected_query(rng, n: int, k: int) -> Jet2:
    """A random jet J, for k % 3 = 1 or 2 with gradient 0 and value -|r|
    or |r|: the cones of BISECTED reach their Hessian constraint from
    such jets (the duals from value |r|)."""
    J = random_jet(rng, n, 1.5)
    return J if k % 3 == 0 else Jet2((-1.0) ** k * abs(J.r), np.zeros(n), J.A)


def fallback_query(rng, n: int) -> Jet2:
    """A random jet with value 0."""
    J = random_jet(rng, n, 1.5)
    return Jet2(0.0, J.p, J.A)


def canonical_or_failure(F, J):
    try:
        return exact(canonical.canonical_operator(F, J))
    except BracketingFailure as e:
        return type(e).__name__


def verify_outputs(seed: int, distances: int) -> dict:
    wl = workloads.build("verify", seed, Path("."))
    out = {op.name: exact(op.call()) for op in wl.ops}
    for name, F in CONES.items():
        mats = wl.inputs[name][:distances]
        out[f"signed_distance_{name}"] = exact(
            [canonical.signed_distance(F, A) for A in mats])
    rng = np.random.default_rng(seed)
    for name, F in BISECTED.items():
        out[f"canonical_bisected_{name}"] = [
            canonical_or_failure(F, bisected_query(rng, F.n, k)) for k in range(BISECTED_JETS)]
    # the garding operation's (operator, matrices) pairs
    g_in = next(op for op in wl.ops if op.name == "garding").call.args[0]
    out["garding_eigenvalues"] = {
        op.key: exact([garding.garding_eigenvalues(op, A) for A in mats]) for op, mats in g_in}
    branches = out["canonical_garding_branches"] = {}
    for op, _ in g_in:
        mats = [random_symmetric(rng, op.n, 1.5) for _ in range(GARDING_BRANCH_MATRICES)]
        for k in range(1, op.degree + 1):
            F = garding.branch_oracle(op, k)
            branches[F.key] = [canonical_or_failure(F, A) for A in mats]
    for name, F in FALLBACK.items():
        out[f"canonical_fallback_{name}"] = [
            canonical_or_failure(F, fallback_query(rng, F.n)) for _ in range(FALLBACK_JETS)]
    for name, F in FORMROUTE.items():
        queries = [random_jet(rng, F.n, 1.5) for _ in range(FORMROUTE_JETS)]
        out[f"canonical_formroute_{name}"] = [
            canonical_or_failure(F, J if F.arity is catalog.Arity.FULL else J.A)
            for J in queries]
    for name, (key, n) in STRICT.items():
        F = catalog.make_oracle(key, n)
        out[f"strict_M_monotone_{name}"] = exact(
            canonical.check_strict_M_monotone(F.values, F, STRICT_M))
    for key in FIBER_MAPS:
        theta = catalog.make_oracle(key, 2)
        out[f"fiberegularity_{key}"] = exact(
            catalog.check_fiberegularity(theta, theta.monotonicity))
    return out


def grid_check_outputs(seed: int) -> dict:
    wl = workloads.build("grid-checks", seed, Path("."))
    out = {}
    for op in wl.ops:
        result = op.call()
        if op.call.func is workloads._counted:
            result, nodes, _seconds = result
            result = {"output": result, "nodes": nodes}
        out[op.name] = exact(result)
    return out


def solve_outputs(seed: int) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.build("solve", seed, Path(tmp))
        for op in wl.ops:
            rc, _stdout = op.call()  # stdout names the temporary directory
            files = Path(tmp) / op.name
            out[op.name] = {"exit": rc, **{
                name: hashlib.sha256((files / name).read_bytes()).hexdigest()
                for name in ("solution.csv", "solve.json")}}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", choices=("verify", "grid-checks", "solve"), default="verify")
    ap.add_argument("--distances", type=int, default=10,
                    help="signed distances per cone (verify only)")
    args = ap.parse_args()
    if args.workload == "verify":
        out = verify_outputs(args.seed, args.distances)
    elif args.workload == "grid-checks":
        out = grid_check_outputs(args.seed)
    else:
        out = solve_outputs(args.seed)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
