import json

import numpy as np
import pytest

from jetcones.boundary import domain_from_spec
from jetcones.canonical import canonical_operator, signed_distance
from jetcones.catalog import make_oracle
from jetcones.cli import build_parser, main, solution_csv
from jetcones.exprs import compile_expression
from jetcones.grids import GridFunction, square_grid
from jetcones.jets import Jet2, random_jet
from jetcones.solver import solve_dirichlet


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text: str):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    # every JSON payload a command prints is strict JSON
    if out.out.startswith("{"):
        strict_json(out.out)
    return code, out.out, out.err


def test_strict_json_rejects_what_json_loads_takes():
    for text in ('{"v": NaN}', '{"v": [1, Infinity]}', '{"v": -Infinity}'):
        json.loads(text)
        with pytest.raises(ValueError, match="is not JSON"):
            strict_json(text)


def test_repeated_main_calls_match_fresh_ones(capsys):
    # main parses with one cached parser; a run of commands in one process
    # (a usage error among them) prints and exits as with a parser built
    # fresh for each
    commands = [
        ("catalog", "describe", "P"),
        ("membership", "--key", "P", "--matrix", "[[-1,0],[0,1]]"),
        ("canonical", "--key", "pucci:1,2", "--matrix", "[[1,0.5],[0.5,-2]]"),
        ("canonical", "--matrix", "[[1,0],[0,1]]"),
        ("canonical", "--key", "P", "--matrix", "oops"),
        ("dual", "--key", "P~", "--matrix", "[[1,0],[0,-3]]"),
        ("membership", "--key", "P", "--matrix", "[[-1,0],[0,1]]"),
    ]
    cached = [run(capsys, *argv) for argv in commands]
    fresh = []
    for argv in commands:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 1, 0, 2, 2, 1, 1]
    assert "the following arguments are required: --key" in cached[3][2]
    assert build_parser() is build_parser()


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    payload = json.loads(out)
    keys = {e["key"] for e in payload["entries"]}
    assert {"P", "P~", "Q", "Q~", "branch", "pfold", "sigma", "pucci",
            "lagrangian", "M", "pma", "slag"} <= keys
    assert {"det", "lagrangian-ma", "delta-elliptic", "pucci-garding"} <= keys
    assert payload["count"] >= 14


def test_catalog_describe_and_unknown(capsys):
    code, out, _ = run(capsys, "catalog", "describe", "pucci:1,2")
    assert code == 0
    assert "tr A" in json.loads(out)["describe"]
    code, out, _ = run(capsys, "catalog", "describe", "P")
    assert code == 0
    assert "lambda_min" in json.loads(out)["describe"]
    code2, _, err = run(capsys, "catalog", "describe", "bogus")
    assert code2 == 2
    assert err == "error: unknown key 'bogus'\n"
    code3, _, err = run(capsys, "membership", "--key", "bogus", "--matrix", "[[1,0],[0,1]]")
    assert code3 == 2
    assert err.startswith("error: unknown catalog key 'bogus'; known: [")


def test_membership_interior(capsys):
    code, out, _ = run(capsys, "membership", "--key", "P",
                       "--matrix", "[[1,0],[0,1]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["region"] == "Interior"
    assert payload["margin"] == pytest.approx(1.0)


def test_membership_negative_verdict_exit_1(capsys):
    code, out, _ = run(capsys, "membership", "--key", "P",
                       "--matrix", "[[-1,0],[0,1]]")
    assert code == 1
    assert json.loads(out)["region"] == "Exterior"


def test_membership_full_jet(capsys):
    jet = json.dumps({"r": -2.0, "p": [1.0, 0.0], "A": [[1.0, 0.0], [0.0, 1.0]]})
    code, out, _ = run(capsys, "membership", "--key",
                       "M:gamma=1,D=half:e1,R=inf", "--jet", jet)
    assert code == 0


def test_membership_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "membership", "--key", "P", "--matrix", "oops")
    assert code == 2


def test_membership_domain_error_exit_3(capsys):
    code, _, err = run(capsys, "membership", "--key", "lagrangian",
                       "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]")
    assert code == 3


def test_dual_command(capsys):
    code, out, _ = run(capsys, "dual", "--key", "P",
                       "--matrix", "[[-1,0],[0,2]]")
    assert code == 0
    assert json.loads(out)["dual_region"] == "Interior"


def test_garding_command(capsys):
    code, out, _ = run(capsys, "garding", "--op", "det",
                       "--matrix", "[[1,0,0],[0,2,0],[0,0,3]]")
    assert code == 0
    payload = json.loads(out)
    assert np.allclose(payload["eigenvalues"], [1, 2, 3], atol=1e-8)


def test_garding_command_rejects_pucci_garding_in_one_dimension(capsys):
    code, _, err = run(capsys, "garding", "--op", "pucci-garding:1,2", "--matrix", "[[1]]")
    assert code == 3
    assert "pucci-garding needs n >= 2, got n = 1" in err
    assert "no extreme vertex" in err


@pytest.mark.parametrize("argv", [
    ("membership", "--key", "P", "--matrix", "[[NaN,0],[0,1]]"),
    ("membership", "--key", "P", "--matrix", "[[1,0],[0,Infinity]]"),
    ("membership", "--key", "Q", "--jet", '{"r": NaN, "p": [0,0], "A": [[1,0],[0,1]]}'),
    ("membership", "--key", "Q", "--jet", '{"r": 0, "p": [0,-Infinity], "A": [[1,0],[0,1]]}'),
    # symmetrizing would overflow to inf
    ("membership", "--key", "P", "--matrix", "[[1e308,0],[0,1e308]]"),
    ("garding", "--op", "det", "--matrix", "[[1e308,0],[0,1e308]]"),
    ("dual", "--key", "slag", "--matrix", "[[1,0],[0,1]]", "--at", "0.1,inf"),
    ("membership", "--key", "slag", "--matrix", "[[1,0],[0,1]]", "--at", "nan,0"),
    ("pseudoconvex", "--domain", '{"kind": "sphere", "n": 2}', "--key", "P",
     "--points", "nan,0"),
])
def test_non_finite_input_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: bad ") and err.count("\n") == 1
    assert "finite" in err


@pytest.mark.parametrize("op, matrix", [
    ("delta-elliptic:1e308", "[[1,0],[0,2]]"),  # 1 + n*delta overflows: NaN eigenvalues
    ("det", "[[1e200,0],[0,1e200]]"),           # F(A) = 1e400 overflows to inf
])
def test_non_finite_result_exit_3(tmp_path, capsys, op, matrix):
    csv = tmp_path / "out.csv"
    code, out, err = run(capsys, "garding", "--op", op, "--matrix", matrix, "--out", str(csv))
    assert code == 3 and out == "" and not csv.exists()
    assert err.startswith("error: the result is not finite") and err.count("\n") == 1


def test_canonical_command(capsys):
    code, out, _ = run(capsys, "canonical", "--key", "pfold:p=2",
                       "--matrix", "[[1,0,0],[0,2,0],[0,0,3]]")
    assert code == 0
    assert json.loads(out)["canonical"] == pytest.approx(1.5, abs=1e-8)


@pytest.mark.parametrize("key, n", [("P", 2), ("P", 3), ("P~", 3), ("branch:k=2", 3),
                                    ("pfold:p=2", 3), ("sigma:k=2", 3), ("pucci:1,2", 2),
                                    ("quasiconvex:shift=0.5", 2)])
def test_canonical_command_on_jets_agrees_with_the_matrix_route(capsys, key, n):
    # a spectral cone ignores r and p; they only move the doubling start
    F = make_oracle(key, n)
    rng = np.random.default_rng(17)
    tol = 1e-10
    for _ in range(5):
        J = random_jet(rng, n, scale=2.0)
        jet = {"r": 5.0 * J.r, "p": (5.0 * J.p).tolist(), "A": J.A.entries.tolist()}
        code, out, _ = run(capsys, "canonical", "--key", key, "--jet", json.dumps(jet),
                           "--tol", str(tol))
        assert code == 0
        t = canonical_operator(F, J.A, tol=tol)
        assert abs(json.loads(out)["canonical"] - t) <= tol * (1 + abs(t)), key


def test_distance_command(capsys):
    code, out, _ = run(capsys, "distance", "--key", "P",
                       "--matrix", "[[1,0],[0,1]]", "--directions", "32")
    assert code == 0
    assert json.loads(out)["signed_distance"] == pytest.approx(1.0, abs=1e-5)


def test_pseudoconvex_sphere_all_yes(capsys):
    code, out, _ = run(capsys, "pseudoconvex", "--domain",
                       '{"kind": "sphere", "n": 3}', "--key", "P",
                       "--count", "4")
    assert code == 0
    assert out.count("yes") == 4


def test_pseudoconvex_slab_no(capsys):
    code, out, _ = run(capsys, "pseudoconvex", "--domain",
                       '{"kind": "slab", "n": 2}', "--key", "P",
                       "--points", "1.0,0.2")
    assert code == 1
    assert ",no," in out


def test_pseudoconvex_subaffine_shortcut(capsys):
    code, out, _ = run(capsys, "pseudoconvex", "--domain",
                       '{"kind": "sphere", "n": 3}', "--key", "P~",
                       "--count", "3")
    assert code == 0
    assert out.count("yes") == 3


def test_solve_command(tmp_path, capsys):
    config = {
        "operator": "pfold:p=2",
        "level": 0.0,
        "box": [0.0, 1.0],
        "h": 1.0 / 16,
        "tol": 1e-8,
        "max_iter": 50_000,
        "boundary": "x1^2 - x2^2",
        "init": "zero",
    }
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    code, out, _ = run(capsys, "solve", "--config", str(cfg),
                       "--out-dir", str(out_dir))
    assert code == 0
    header = json.loads((out_dir / "solve.json").read_text())
    assert header["operator"] == "pfold:p=2"
    assert header["residuals"][-1] <= 1e-8
    assert header["iterations"] > 1  # zero init: a real solve happened
    assert header["factorizations"] == header["iterations"] - 1  # policy steps only
    assert header["newton_steps"] == 0
    assert header["start"] == "init"  # no Poisson start for a piecewise-linear operator
    summary = json.loads(out)
    assert (summary["factorizations"], summary["newton_steps"], summary["start"]) == (
        header["factorizations"], header["newton_steps"], header["start"])
    assert header["stop_reason"] == "tol"
    assert 0 < header["residual_floor"] < 1e-8
    assert "dt" not in header
    rows = np.loadtxt(out_dir / "solution.csv", delimiter=",", skiprows=1)
    assert rows.shape == (17 * 17, 3)
    exact = rows[:, 0] ** 2 - rows[:, 1] ** 2
    assert np.max(np.abs(rows[:, 2] - exact)) < 1e-6


def _without_timing(header: dict) -> dict:
    return {k: v for k, v in header.items()
            if not (k.endswith("_s") or "time" in k or "elapsed" in k)}


@pytest.mark.parametrize("operator", ["pucci:1,2", "slag"])
def test_solve_is_deterministic(tmp_path, capsys, operator):
    # two runs on one config write byte-identical outputs (timing fields,
    # should any appear, are left out of the comparison)
    config = {"operator": operator, "level": 0.0, "box": [0.0, 1.0], "h": 1.0 / 16,
              "tol": 1e-9, "boundary": "x1^2 + 0.3*x1*x2 - 0.5*x2^2 + 0.1*abs(x1 - 0.4)"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    texts, solutions = [], []
    for i in range(2):
        out_dir = tmp_path / f"run{i}"
        code, _, _ = run(capsys, "solve", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0
        header = json.loads((out_dir / "solve.json").read_text())
        # the step counts are deterministic and stay in the comparison
        assert header["factorizations"] >= header["iterations"] - 1
        assert (header["newton_steps"] > 0) == (operator == "slag")
        if header == _without_timing(header):
            texts.append((out_dir / "solve.json").read_bytes())
        else:
            texts.append(json.dumps(_without_timing(header), sort_keys=True).encode())
        solutions.append((out_dir / "solution.csv").read_bytes())
    assert texts[0] == texts[1]
    assert solutions[0] == solutions[1]


def _solve_files(tmp_path, capsys, name, **changes):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(dict(SOLVE_CONFIG, init="zero", tol=1e-9, **changes)))
    out_dir = tmp_path / name
    code, _, _ = run(capsys, "solve", "--config", str(cfg), "--out-dir", str(out_dir))
    assert code == 0
    return [(out_dir / f).read_bytes() for f in ("solution.csv", "solve.json")]


def test_solve_constant_level_expression_is_the_number(tmp_path, capsys):
    assert (_solve_files(tmp_path, capsys, "text", level="1 + 0*x1")
            == _solve_files(tmp_path, capsys, "number", level=1.0))


def test_solve_level_expression_is_evaluated_on_the_mesh(tmp_path, capsys):
    # an x-dependent source psi: the CLI evaluates it on the mesh, as the
    # boundary, and solves with those node values
    level = "1 + 0.5*x1*x2^2 - max(x1, 0.4) + 0.2*abs(x2 - 0.3) + min(x1, x2)"
    csv, _ = _solve_files(tmp_path, capsys, "field", level=level)
    grid = square_grid(17, 0.0, 1.0)
    mesh = grid.meshgrid()
    f = compile_expression(level)
    psi = f(mesh)
    # the whole-mesh evaluation is the per-node one, bit for bit
    per_node = [float(f(list(x))) for x in np.stack(mesh, axis=-1).reshape(-1, 2)]
    assert psi.ravel().tolist() == per_node
    g = GridFunction(grid, compile_expression(SOLVE_CONFIG["boundary"])(mesh))
    u, _ = solve_dirichlet("P", psi, g, tol=1e-9, init=np.zeros(grid.dims))
    assert csv.decode() == solution_csv(u)
    assert csv != _solve_files(tmp_path, capsys, "number", level=1.0)[0]


def test_solve_not_converged_exit_4(tmp_path, capsys):
    config = {
        "operator": "P",
        "level": 1.0,
        "box": [0.0, 1.0],
        "h": 1.0 / 16,
        "tol": 1e-12,
        "max_iter": 3,
        "boundary": "x1^2 + x2^2",
    }
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(config))
    code, _, err = run(capsys, "solve", "--config", str(cfg))
    assert code == 4


SOLVE_CONFIG = {
    "operator": "P",
    "level": 1.0,
    "box": [0.0, 1.0],
    "h": 1.0 / 16,
    "boundary": "0.5*(x1^2 + x2^2)",
}


def solve_usage_error(capsys, tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code, _, err = run(capsys, "solve", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "out"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    return err


def test_solve_config_rejects_dt(tmp_path, capsys):
    err = solve_usage_error(capsys, tmp_path, json.dumps(dict(SOLVE_CONFIG, dt=1e-4)))
    assert "'dt'" in err


def test_solve_config_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "--config", str(tmp_path / "absent.json"))
    assert code == 2
    assert err.startswith("error: cannot read config") and err.count("\n") == 1


def test_solve_config_invalid_json(tmp_path, capsys):
    err = solve_usage_error(capsys, tmp_path, '{"operator": "P",')
    assert "not valid JSON" in err


def test_solve_config_missing_key(tmp_path, capsys):
    config = {k: v for k, v in SOLVE_CONFIG.items() if k != "boundary"}
    err = solve_usage_error(capsys, tmp_path, json.dumps(config))
    assert "boundary" in err


def test_solve_config_h_must_divide_box(tmp_path, capsys):
    err = solve_usage_error(capsys, tmp_path, json.dumps(dict(SOLVE_CONFIG, h=0.07)))
    assert "does not divide" in err


# dim is an integer in 1..3, tol a finite number >= 0, max_iter an integer
# >= 1, level a number or an expression, operator and boundary strings
MALFORMED_SOLVE_FIELDS = [
    {"dim": 4},
    {"dim": 0},
    {"dim": "abc"},
    {"dim": 1.5},
    {"dim": True},
    {"tol": "abc"},
    {"tol": None},
    {"tol": -1},
    {"max_iter": "x"},
    {"max_iter": 0},
    {"max_iter": 2.5},
    {"level": [1]},
    {"level": None},
    {"operator": 5},
    {"boundary": 5},
]


@pytest.mark.parametrize("field", MALFORMED_SOLVE_FIELDS, ids=json.dumps)
def test_solve_config_rejects_a_malformed_field(tmp_path, capsys, field):
    err = solve_usage_error(capsys, tmp_path, json.dumps(dict(SOLVE_CONFIG, **field)))
    key, = field
    assert err.startswith(f"error: config {key} must be ")


def test_check_suites_smoke(capsys):
    code, out, _ = run(capsys, "check", "duality-involution")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_seed_echoed_in_json(capsys):
    code, out, _ = run(capsys, "--seed", "7", "membership", "--key", "P",
                       "--matrix", "[[1,0],[0,1]]")
    assert json.loads(out)["seed"] == 7


def test_reproducible_output(capsys):
    args = ("--seed", "5", "distance", "--key", "P~",
            "--matrix", "[[0.3,0.1],[0.1,-0.2]]", "--directions", "64")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_seed_zero_is_not_the_default_seed(capsys):
    # --seed 0 draws the points of default_rng(0), as if given through
    # --points, not those of the default seed
    dom = domain_from_spec(json.loads(SPHERE_2D))
    rng = np.random.default_rng(0)
    drawn = [dom.bbox.lo + rng.random(2) * (dom.bbox.hi - dom.bbox.lo) for _ in range(2)]
    points = ";".join(",".join(map(repr, x.tolist())) for x in drawn)
    argv = ("pseudoconvex", "--domain", SPHERE_2D, "--key", "P")
    _, zero, _ = run(capsys, "--seed", "0", *argv, "--count", "2")
    _, direct, _ = run(capsys, *argv, "--points", points)
    _, default, _ = run(capsys, *argv, "--count", "2")
    assert zero == direct != default
    # and the distance stream of seed 0
    matrix = "[[0.3,0.1],[0.1,-0.2]]"
    _, out, _ = run(capsys, "--seed", "0", "distance", "--key", "P~", "--matrix", matrix,
                    "--directions", "64")
    J = Jet2.from_matrix(np.array(json.loads(matrix)))
    assert json.loads(out)["signed_distance"] == signed_distance(
        make_oracle("P~", 2), J, directions=64, seed=0)


MATRIX_2D = "[[1,0],[0,1]]"


@pytest.mark.parametrize("argv", [
    ("membership", "--key", "pfold:p=abc", "--matrix", MATRIX_2D),
    ("membership", "--key", "P:k=3", "--matrix", MATRIX_2D),
    ("dual", "--key", "pucci:1,2,3", "--matrix", MATRIX_2D),
    ("membership", "--key", "slag:1", "--matrix", MATRIX_2D),
    ("garding", "--op", "delta-elliptic:inf", "--matrix", MATRIX_2D),
    ("membership", "--key", "M:D=half:e0", "--matrix", MATRIX_2D),
    ("membership", "--key", "M:D=orth:0", "--matrix", MATRIX_2D),
    ("membership", "--key", "M:D=half:e5", "--matrix", MATRIX_2D),
    ("dual", "--key", "M:D=orth:5", "--matrix", MATRIX_2D),
    ("membership", "--key", "M:D=half:ex", "--matrix", MATRIX_2D),
])
def test_malformed_key_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("operator, exit_code", [
    ("slag:1", 2), ("pucci:1,2,3", 2), ("pfold:p=0", 3), ("pucci:2,1", 3),
])
def test_solve_bad_operator_key(tmp_path, capsys, operator, exit_code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SOLVE_CONFIG, operator=operator)))
    code, _, err = run(capsys, "solve", "--config", str(cfg),
                       "--out-dir", str(tmp_path / "out"))
    assert code == exit_code
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["membership", "dual"])
@pytest.mark.parametrize("at", ["a,b", "0.1,0.2,0.3"])
def test_variable_fiber_bad_at_exit_2(capsys, command, at):
    code, _, err = run(capsys, command, "--key", "slag", "--matrix", MATRIX_2D, "--at", at)
    assert code == 2
    assert "--at" in err


def test_variable_fiber_at_point(capsys):
    code, out, _ = run(capsys, "membership", "--key", "slag", "--matrix", MATRIX_2D,
                       "--at", "0.5,-0.5")
    assert code == 0
    # sum arctan(1) = pi/2 against theta = 0.5 + 0.25 * 0.5
    assert json.loads(out)["value"] == pytest.approx(np.pi / 2 - 0.625)


def test_bracketing_failure_exit_3(capsys):
    # Q~ holds every jet with r = 0, so no crossing exists along I
    code, _, err = run(capsys, "canonical", "--key", "Q~", "--matrix", MATRIX_2D)
    assert code == 3
    assert err.startswith("error: no boundary crossing")


def test_internal_error_exit_6(capsys, monkeypatch):
    import jetcones.cli as cli

    def broken(args):
        raise TypeError("unexpected operand")

    monkeypatch.setattr(cli, "cmd_membership", broken)
    code, _, err = run(capsys, "membership", "--key", "P", "--matrix", MATRIX_2D)
    assert code == cli.EXIT_INTERNAL == 6
    assert err.startswith("internal error: TypeError: unexpected operand\n")
    assert "Traceback" in err


VARIABLE_KEYS = ["pma", "slag", "affine-sphere", "ot"]
SPHERE_2D = '{"kind": "sphere", "n": 2}'

EXIT_CODES = [
    (("catalog", "list"), 0),
    (("catalog", "describe"), 2),
    (("membership", "--key", "P", "--matrix", MATRIX_2D), 0),
    (("membership", "--key", "P", "--matrix", "[[-1,0],[0,1]]"), 1),
    (("membership", "--key", "P", "--matrix", "oops"), 2),
    (("membership", "--key", "lagrangian", "--matrix", "[[1,0,0],[0,1,0],[0,0,1]]"), 3),
    # an R whose interior jet rounds onto M's boundary
    (("membership", "--key", "M:gamma=1,D=half:e1,R=1e-20", "--matrix", MATRIX_2D), 3),
    (("dual", "--key", "slag", "--matrix", MATRIX_2D, "--at", "0.1,0.2"), 0),
    (("dual", "--key", "pma", "--matrix", MATRIX_2D, "--at", "a,b"), 2),
    (("canonical", "--key", "P", "--matrix", MATRIX_2D), 0),
    (("canonical", "--key", "Q~", "--matrix", MATRIX_2D), 3),
    (("canonical", "--key", "P", "--matrix", MATRIX_2D, "--tol", "0"), 2),
    (("canonical", "--key", "P", "--matrix", MATRIX_2D, "--tol", "-1"), 2),
    (("canonical", "--key", "P", "--matrix", MATRIX_2D, "--tol", "1e-20"), 2),
    (("canonical", "--key", "P", "--matrix", MATRIX_2D, "--tol", "nan"), 2),
    (("canonical", "--key", "Q", "--matrix", MATRIX_2D, "--tol", "8.9e-16"), 0),
    # the whole jet goes in: Q's fiber at r = 1 is empty, at r = -1 it is not
    (("canonical", "--key", "Q", "--jet", '{"r": 1, "p": [0, 0], "A": [[1, 0], [0, 2]]}'), 3),
    (("canonical", "--key", "Q", "--jet", '{"r": -1, "p": [0, 0], "A": [[1, 0], [0, 2]]}'), 0),
    (("distance", "--key", "P", "--matrix", MATRIX_2D, "--directions", "8"), 0),
    (("distance", "--key", "P", "--matrix", MATRIX_2D, "--directions", "0"), 2),
    (("distance", "--key", "P", "--matrix", MATRIX_2D, "--directions", "-1"), 2),
    (("pseudoconvex", "--domain", SPHERE_2D, "--key", "P", "--count", "2"), 0),
    (("pseudoconvex", "--domain", '{"kind": "slab", "n": 2}', "--key", "P",
      "--points", "1.0,0.2"), 1),
    (("pseudoconvex", "--domain", SPHERE_2D, "--key", "P", "--points", "a,b"), 2),
    (("pseudoconvex", "--domain", SPHERE_2D, "--key", "P", "--t-cap", "inf"), 2),
    (("pseudoconvex", "--domain", SPHERE_2D, "--key", "P", "--t-cap", "nan"), 2),
    (("pseudoconvex", "--domain", SPHERE_2D, "--key", "P", "--t-cap", "-2"), 2),
    (("pseudoconvex", "--domain", SPHERE_2D, "--key", "P", "--count", "0"), 2),
    (("pseudoconvex", "--domain", SPHERE_2D, "--key", "P", "--count", "-3"), 2),
    (("pseudoconvex", "--domain", SPHERE_2D, "--key", "P", "--points", "0.1,0.2,0.3"), 2),
    (("pseudoconvex", "--domain", '{"kind": sphere', "--key", "P"), 2),
    (("pseudoconvex", "--domain", '["sphere"]', "--key", "P"), 2),
    (("pseudoconvex", "--domain", '{"kind": "ellipsoid"}', "--key", "P"), 2),
    (("pseudoconvex", "--domain", '{"kind": "sphere", "n": 2' + " " * 300 + "}", "--key", "P",
      "--count", "1"), 0),
    (("garding", "--op", "det", "--matrix", MATRIX_2D), 0),
    (("garding", "--op", "bogus", "--matrix", MATRIX_2D), 2),
    (("check", "no-such-suite"), 2),
    (("solve", {}), 0),
    (("solve", {"init": "zero", "max_iter": 1}), 4),
    (("solve", {"boundary": "0.5*(x1^2 + x2^2) "}), 0),
    (("solve", {"boundary": "1/0"}), 3),
    (("solve", {"boundary": "abs(1,2)"}), 2),
    (("solve", {"boundary": "-" * 3000 + "x1"}), 2),
    (("solve", {"level": "max(x1)"}), 2),
] + [
    (argv + ("--key", key), 2)
    for key in VARIABLE_KEYS
    for argv in [("canonical", "--matrix", MATRIX_2D), ("distance", "--matrix", MATRIX_2D),
                 ("pseudoconvex", "--domain", SPHERE_2D)]
]


def _exit_case_id(case):
    argv, code = case
    words = [json.dumps(w)[:24] if isinstance(w, dict) else w[:24] for w in argv]
    return " ".join(words) + f" -> {code}"


@pytest.mark.parametrize("argv, code", EXIT_CODES, ids=map(_exit_case_id, EXIT_CODES))
def test_exit_code_contract(tmp_path, capsys, argv, code):
    """Each subcommand's exit code: 0 success, 1 negative verdict, 2 usage
    or parse error, 3 domain error, 4 non-convergence; errors print one
    line and never a traceback."""
    if argv[0] == "solve":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(SOLVE_CONFIG, **argv[1])))
        argv = ("solve", "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    got, _, err = run(capsys, *argv)
    assert got == code
    if code >= 2 and argv[0] not in ("check",):
        assert err.startswith("error: ") and err.count("\n") == 1
    if code == 2 and argv[-2:-1] == ("--key",) and argv[-1] in VARIABLE_KEYS:
        assert "variable fiber map" in err and "membership or dual --at" in err


# a jet payload is a JSON object; a domain spec's n lies in 1..MAX_DIM, its
# axis in 1..n, and its semiaxes are finite and positive
MALFORMED_PAYLOADS = [
    ("membership", "--key", "P", "--jet", "[1]"),
    ("pseudoconvex", "--domain", '{"kind": "sphere", "n": 0}', "--key", "P"),
    ("pseudoconvex", "--domain", '{"kind": "sphere", "n": 9}', "--key", "P"),
    ("pseudoconvex", "--domain", '{"kind": "slab", "n": 2, "axis": 5}', "--key", "P"),
    ("pseudoconvex", "--domain", '{"kind": "ellipsoid", "semiaxes": [0, 1]}', "--key", "P"),
    ("pseudoconvex", "--domain", '{"kind": "ellipsoid", "semiaxes": [1, NaN]}', "--key", "P"),
    ("pseudoconvex", "--domain", '{"kind": "sphere", "radius": 0}', "--key", "P"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", MALFORMED_PAYLOADS, ids=lambda argv: " ".join(argv[:4]))
def test_malformed_payload_is_a_parse_error(capsys, argv):
    # no warning either: the payload is rejected before any arithmetic
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: bad ") and err.count("\n") == 1


def ref_solution_csv(u):
    """The per-row formatter: one row of coordinates per node from the mesh."""
    mesh = u.grid.meshgrid()
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    lines = [",".join(f"x{i + 1}" for i in range(u.grid.d)) + ",value"]
    for pt, v in zip(coords, u.values.ravel()):
        lines.append(",".join(repr(float(c)) for c in pt) + "," + repr(float(v)))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n_side, lo, hi, d", [(7, -1.0, 1.0 / 3.0, 2), (5, 0.0, 1e16, 3)])
def test_solution_csv_matches_the_per_row_formatter(n_side, lo, hi, d):
    grid = square_grid(n_side, lo, hi, d=d)
    rng = np.random.default_rng(d)
    values = rng.standard_normal(grid.dims)
    special = [1e-5, 1e16, -0.0, 1.0 / 3.0, 0.0, -1e-300, 123456789.125]
    values.ravel()[:len(special)] = special
    u = GridFunction(grid, values)
    text = solution_csv(u)
    assert text == ref_solution_csv(u)
    rows = text.splitlines()
    assert len(rows) == 1 + n_side ** d and "-0.0" in rows[3] and "1e-05" in rows[1]
