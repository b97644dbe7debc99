"""Command-line front end.

Subcommands: catalog, membership, dual, canonical, garding, distance,
pseudoconvex, solve, check. Outputs are JSON (to stdout) or CSV files;
every JSON payload carries the seed so runs are reproducible bit for
bit at a fixed seed.

Exit codes: 0 success, 1 negative verdict, 2 usage/parse error,
3 domain error, 4 non-convergence, 5 hypothesis violation, 6 internal
error (a bug: the message is followed by the traceback).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from . import catalog as cat
from . import garding as gar
from .boundary import (
    boundary_point,
    domain_from_spec,
    project_to_boundary,
    strict_ellipticity_check,
    strict_pseudoconvex_at,
)
from .canonical import MIN_TOL, canonical_operator, signed_distance
from .errors import (
    BracketingFailure,
    HypothesisViolation,
    NotConverged,
    ParseError,
    UnknownKey,
    UnstableStep,
)
from .exprs import compile_expression
from .grids import GridFunction, square_grid
from .jets import Jet2, SymMat
from .solver import solve_dirichlet
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_NOCONV = 4
EXIT_HYPOTHESIS = 5
EXIT_INTERNAL = 6


def _load_matrix(text: str) -> SymMat:
    try:
        data = json.loads(text)
        return SymMat(np.asarray(data, dtype=float))
    except (json.JSONDecodeError, ValueError) as e:
        raise ParseError(f"bad matrix payload: {e}") from e


def _load_jet(text: str) -> Jet2:
    try:
        return Jet2.from_json_dict(json.loads(text))
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        raise ParseError(f"bad jet payload: {e}") from e


def _emit(payload: dict, seed) -> None:
    """Write payload as strict JSON. A non-finite number has no JSON form:
    it is a ValueError (exit 3), raised before any byte is written."""
    payload.setdefault("seed", seed)
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise ValueError(f"the result is not finite: {e}") from e
    sys.stdout.write(text + "\n")


def _jet_from_args(args) -> Jet2:
    if getattr(args, "jet", None):
        return _load_jet(args.jet)
    if getattr(args, "matrix", None):
        return Jet2.from_matrix(_load_matrix(args.matrix))
    raise ParseError("provide --matrix or --jet")


def cmd_catalog(args) -> int:
    if args.action == "list":
        rows = []
        for name in sorted(cat.REGISTRY):
            entry = cat.REGISTRY[name]
            rows.append({
                "key": name,
                "variable": entry.variable,
                "describe": entry.describe,
            })
        for name in sorted(gar.OPERATORS):
            rows.append({
                "key": name,
                "operator": True,
                "describe": gar.OPERATORS[name].describe,
            })
        _emit({"entries": rows, "count": len(rows)}, args.seed)
        return EXIT_OK
    if args.key is None:
        raise ParseError("catalog describe needs a key")
    name, _, _ = cat.parse_key(args.key)
    family = cat.REGISTRY.get(name) or gar.OPERATORS.get(name)
    if family is None:
        raise UnknownKey(f"unknown key {args.key!r}")
    _emit({"key": args.key, "describe": family.describe}, args.seed)
    return EXIT_OK


def _fiber_at(oracle, at):
    """A constant oracle as is; a variable map's fiber at the --at point
    (default: its domain's center)."""
    if not isinstance(oracle, cat.VariableFiberMap):
        return oracle
    if not at:
        return oracle.fiber_at(oracle.domain.center)
    return oracle.fiber_at(_parse_point(at, oracle.domain.dim, "--at"))


def _parse_point(text: str, dim: int, flag: str) -> np.ndarray:
    """A comma-separated point with dim finite coordinates; anything else
    is a ParseError that names the flag it came from."""
    try:
        x = np.asarray([float(v) for v in text.split(",")])
    except ValueError as e:
        raise ParseError(f"bad {flag} point {text!r}: {e}") from e
    if not np.isfinite(x).all():
        raise ParseError(f"bad {flag} point {text!r}: coordinates must be finite")
    if len(x) != dim:
        raise ParseError(f"{flag} {text!r} has {len(x)} coordinates, "
                         f"expected dimension {dim}")
    return x


def _constant_oracle(key: str, n: int, command: str):
    """The constant cone a key names; a variable fiber map is a usage error."""
    oracle = cat.make_oracle(key, n)
    if isinstance(oracle, cat.VariableFiberMap):
        raise ParseError(f"{command} takes a constant cone, and {key!r} is a variable fiber "
                         f"map; classify one of its fibers with membership or dual --at")
    return oracle


def cmd_membership(args) -> int:
    J = _jet_from_args(args)
    oracle = _fiber_at(cat.make_oracle(args.key, J.n), args.at)
    region = oracle.classify(J, args.tol)
    _emit({
        "key": args.key,
        "region": region.kind.value,
        "margin": region.margin,
        "value": oracle.value(J),
    }, args.seed)
    return EXIT_OK if region.is_member else EXIT_NEGATIVE


def cmd_dual(args) -> int:
    from .duality import dual_oracle

    J = _jet_from_args(args)
    oracle = _fiber_at(cat.make_oracle(args.key, J.n), args.at)
    region = dual_oracle(oracle).classify(J, args.tol)
    _emit({
        "key": args.key,
        "dual_region": region.kind.value,
        "margin": region.margin,
    }, args.seed)
    return EXIT_OK if region.is_member else EXIT_NEGATIVE


def cmd_canonical(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= MIN_TOL):
        raise ParseError(f"--tol must be finite and at least {MIN_TOL:.3g}, got {args.tol}")
    J = _jet_from_args(args)
    oracle = _constant_oracle(args.key, J.n, "canonical")
    value = canonical_operator(oracle, J, tol=args.tol)
    if args.out:
        flat = list(J.A.entries.ravel()) + [value]
        Path(args.out).write_text(",".join(repr(float(v)) for v in flat) + "\n")
    _emit({"key": args.key, "canonical": value}, args.seed)
    return EXIT_OK


def cmd_garding(args) -> int:
    A = _load_matrix(args.matrix)
    op = gar.make_operator(args.op, A.n)
    # an overflow shows as a non-finite number, which _emit reports
    with np.errstate(all="ignore"):
        lam = gar.garding_eigenvalues(op, A)
        value = op.eval(A)
    _emit({
        "op": args.op,
        "degree": op.degree,
        "eigenvalues": lam.tolist(),
        "value": value,
    }, args.seed)
    if args.out:
        flat = list(A.entries.ravel()) + list(lam)
        Path(args.out).write_text(",".join(repr(float(v)) for v in flat) + "\n")
    return EXIT_OK


def cmd_distance(args) -> int:
    if args.directions < 1:
        raise ParseError(f"--directions must be at least 1, got {args.directions}")
    J = _jet_from_args(args)
    oracle = _constant_oracle(args.key, J.n, "distance")
    value = signed_distance(oracle, J, directions=args.directions,
                            seed=53 if args.seed is None else args.seed)
    _emit({"key": args.key, "signed_distance": value}, args.seed)
    return EXIT_OK


def cmd_pseudoconvex(args) -> int:
    if not (math.isfinite(args.t_cap) and args.t_cap >= 0.0):
        raise ParseError(f"--t-cap must be finite and at least 0, got {args.t_cap}")
    try:
        text = Path(args.domain).read_text()
    except OSError:  # not a readable file: the spec itself
        text = args.domain
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad --domain JSON: {e}") from e
    dom = domain_from_spec(spec)
    n = len(dom.bbox.lo)
    oracle = _constant_oracle(args.key, n, "pseudoconvex")
    elliptic, worst, _ = strict_ellipticity_check(oracle)
    seeds = []
    if args.points:
        for chunk in args.points.split(";"):
            seeds.append(_parse_point(chunk, n, "--points"))
    else:
        rng = np.random.default_rng(101 if args.seed is None else args.seed)
        for _ in range(args.count):
            seeds.append(dom.bbox.lo + rng.random(n) * (dom.bbox.hi - dom.bbox.lo))
    rows = ["x,e,principal_curvatures,verdict,t0"]
    all_yes = True
    for s in seeds:
        x = project_to_boundary(dom, s)
        bp = boundary_point(dom, x)
        if elliptic:
            verdict, t0 = True, 0.0
        else:
            v = strict_pseudoconvex_at(oracle, bp, t_cap=args.t_cap)
            verdict, t0 = v.convex, v.t0
        all_yes &= verdict
        rows.append(
            ";".join(str(round(c, 9)) for c in x) + ","
            + ";".join(str(round(c, 9)) for c in bp.e) + ","
            + ";".join(str(round(c, 9)) for c in bp.principal_curvatures) + ","
            + ("yes" if verdict else "no") + ","
            + ("" if t0 is None else str(t0))
        )
    text = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all_yes else EXIT_NEGATIVE


SOLVE_KEYS = {"operator", "boundary", "box", "h", "level", "tol", "max_iter", "init", "dim"}
SOLVE_REQUIRED = ("operator", "boundary", "box", "h")


def _read_solve_config(path: str) -> dict:
    """Load a solve config; every defect is a ParseError (exit 2)."""
    try:
        config = json.loads(Path(path).read_text())
    except OSError as e:
        raise ParseError(f"cannot read config {path}: {e.strerror}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(config, dict):
        raise ParseError(f"config {path} must be a JSON object")
    if "dt" in config:
        raise ParseError("config key 'dt' is no longer used: the solver takes "
                         "sparse policy steps, not explicit time steps")
    unknown = sorted(set(config) - SOLVE_KEYS)
    if unknown:
        raise ParseError(f"unknown config keys {unknown}; known: {sorted(SOLVE_KEYS)}")
    missing = [k for k in SOLVE_REQUIRED if k not in config]
    if missing:
        raise ParseError(f"config is missing required keys {missing}")
    try:
        lo, hi = (float(v) for v in config["box"])
        h = float(config["h"])
    except (TypeError, ValueError) as e:
        raise ParseError(f"box must be [lo, hi] and h a number: {e}") from e
    cells = (hi - lo) / h if h > 0 else math.nan
    if not (hi > lo and cells >= 1 and abs(cells - round(cells)) <= 1e-9 * cells):
        raise ParseError(f"h={h!r} does not divide the box [{lo!r}, {hi!r}] "
                         f"into a whole number of cells")
    if config.get("init", "zero") != "zero":
        raise ParseError(f"init must be \"zero\" when given, got {config['init']!r}")
    return dict(config, box=[lo, hi], h=h, n_side=int(round(cells)) + 1)


def solution_csv(u: GridFunction) -> str:
    """u as CSV text: a header x1,...,xd,value, then one row per node in
    C order of the grid's index, each float as its repr."""
    axes = [[repr(c) for c in axis.tolist()] for axis in u.grid.coords()]
    lines = [",".join(f"x{i + 1}" for i in range(u.grid.d)) + ",value"]
    lines += [",".join(pt) + "," + repr(v)
              for pt, v in zip(itertools.product(*axes), u.values.ravel().tolist())]
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    config = _read_solve_config(args.config)
    d = int(config.get("dim", 2))
    grid = square_grid(config["n_side"], config["box"][0], config["box"][1], d=d)
    mesh = grid.meshgrid()

    def on_mesh(text):
        # an expression's node values, one vectorized evaluation on the mesh
        return np.asarray(compile_expression(text)(mesh), dtype=float) * np.ones(grid.dims)

    g = GridFunction(grid, on_mesh(config["boundary"]))
    level = config.get("level", 0.0)
    rhs = on_mesh(level) if isinstance(level, str) else float(level)
    init = np.zeros(grid.dims) if config.get("init") == "zero" else None
    limits = {"max_iter": int(config["max_iter"])} if "max_iter" in config else {}
    u, report = solve_dirichlet(
        config["operator"], rhs, g, tol=config.get("tol", 1e-10), init=init, **limits,
    )
    outdir = Path(args.out_dir or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "solution.csv").write_text(solution_csv(u))
    header = {
        "grid": {"box": config["box"], "h": grid.h, "dims": list(grid.dims)},
        "operator": config["operator"],
        "boundary": config["boundary"],
        "residuals": report.residual_history,
        "iterations": report.iterations,
        "stop_reason": report.stop_reason,
        "residual_floor": report.residual_floor,
        "factorizations": report.factorizations,
        "newton_steps": report.newton_steps,
        "start": report.start,
        "seed": args.seed,
    }
    (outdir / "solve.json").write_text(json.dumps(header, indent=2, sort_keys=True))
    _emit({"iterations": report.iterations, "factorizations": report.factorizations,
           "newton_steps": report.newton_steps, "start": report.start,
           "residual": report.residual, "out_dir": str(outdir)}, args.seed)
    return EXIT_OK


def cmd_check(args) -> int:
    ok, lines = run_suite(args.suite, seed=2024 if args.seed is None else args.seed)
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The jetcones argument parser, built once per process: parse_args
    leaves it unchanged, and building it costs more than a small command."""
    ap = argparse.ArgumentParser(prog="jetcones", description=__doc__)
    ap.add_argument("--seed", type=int, default=None)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list or describe catalog entries")
    p.add_argument("action", choices=["list", "describe"])
    p.add_argument("key", nargs="?")

    for name in ("membership", "dual"):
        p = sub.add_parser(name)
        p.add_argument("--key", required=True)
        p.add_argument("--matrix")
        p.add_argument("--jet")
        p.add_argument("--at", help="evaluation point for variable fibers, e.g. 0.1,0.2")
        p.add_argument("--tol", type=float, default=cat.DEFAULT_TOL)

    p = sub.add_parser("canonical")
    p.add_argument("--key", required=True)
    p.add_argument("--matrix")
    p.add_argument("--jet")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", help="CSV output path (matrix entries flattened, then value)")

    p = sub.add_parser("garding")
    p.add_argument("--op", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", help="CSV output path (inputs flattened, then eigenvalues)")

    p = sub.add_parser("distance")
    p.add_argument("--key", required=True)
    p.add_argument("--matrix")
    p.add_argument("--jet")
    p.add_argument("--directions", type=int, default=256)

    p = sub.add_parser("pseudoconvex")
    p.add_argument("--domain", required=True, help="domain spec JSON (inline or path)")
    p.add_argument("--key", required=True)
    p.add_argument("--points", help="seed points 'x1,x2;x1,x2;...'")
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--t-cap", type=float, default=1e6)
    p.add_argument("--out")

    p = sub.add_parser("solve")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir")

    p = sub.add_parser("check")
    p.add_argument("suite", choices=list(SUITES))
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        # each subcommand runs cmd_<name>, looked up by name when it runs
        return globals()[f"cmd_{args.command}"](args)
    except (ParseError, UnknownKey) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NotConverged as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NOCONV
    except (HypothesisViolation,) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ValueError, UnstableStep, BracketingFailure) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
