"""Source hygiene of the package, checked with the standard library's ast,
and the modules that importing it loads, checked in a fresh interpreter."""

import argparse
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

from jetcones import catalog as cat
from jetcones import cli, garding, jets
from jetcones.canonical import canonical_operator
from jetcones.experiments import quadratic_grid_function
from jetcones.grids import square_grid
from jetcones.solver import solve_dirichlet

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "jetcones").glob("*.py"))
# the scripts and the tests, named by their path from the repository root
SCRIPTS_AND_TESTS = sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("tests/*.py"))


class _Uses(ast.NodeVisitor):
    """The names a module, or a function body, reads from its own scope:
    every Name load, less those that read a parameter of an enclosing
    function or lambda inside it."""

    def __init__(self):
        self.used, self.params = set(), []

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and not any(node.id in scope for scope in self.params):
            self.used.add(node.id)

    def _function(self, node):
        self.params.append({x.arg for x in _parameters(node.args)})
        self.generic_visit(node)
        self.params.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _function


def _parameters(a: ast.arguments) -> list:
    """Every parameter of a function or lambda: the positional ones, the
    keyword-only ones, then *args and **kwargs."""
    return [x for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if x is not None]


def _definitions(tree: ast.Module):
    """(class prefix, function) for each module-level function ("") and each
    method of a module-level class ("C.")."""
    for node in tree.body:
        prefix = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
        for f in node.body if prefix else [node]:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix, f


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    uses = _Uses()
    uses.visit(tree)
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in uses.used | exported:
                    out.append(f"line {node.lineno}: {name}")
    return out


# Parameters kept although no body reads them: name -> reason.
UNREAD_PARAMETERS = {
    "zmp_sample(M)": "the benchmark's grid-checks workload passes it",
    "utp_perturbed_ma(seed)": "the benchmark's grid-checks workload passes it",
}


def unread_parameters(source: str) -> list:
    """Parameters of module-level functions and of methods that the body
    never reads. Nested functions are not checked: the form and spectrum
    contracts fix their signatures."""
    out = []
    for _, f in _definitions(ast.parse(source)):
        uses = _Uses()
        for stmt in f.body:
            uses.visit(stmt)
        out += [f"{f.name}({x.arg})" for x in _parameters(f.args) if x.arg not in uses.used]
    return out


def test_the_checker_sees_a_parameter_that_shadows_an_import():
    source = "from dataclasses import field\n\ndef f(field):\n    return field(1)\n"
    assert unused_imports(source) == ["line 1: field"]
    assert unused_imports(source + "\nx = field\n") == []


@pytest.mark.parametrize("path", SOURCES + SCRIPTS_AND_TESTS,
                         ids=[p.name for p in SOURCES]
                         + [p.relative_to(ROOT).as_posix() for p in SCRIPTS_AND_TESTS])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_checker_sees_an_unread_parameter():
    source = ("def f(a, b, *args, c=1, **kw):\n    return a + kw['x']\n\n"
              "class C:\n    def m(self, d):\n        d = 1\n        return self\n\n"
              "def g(e):\n    def inner(e, unread):\n        return e\n    return inner\n")
    assert unread_parameters(source) == ["f(b)", "f(c)", "f(args)", "m(d)", "g(e)"]
    assert unread_parameters("def h(x):\n    return lambda: x\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_parameter_is_read(path):
    assert [name for name in unread_parameters(path.read_text())
            if name not in UNREAD_PARAMETERS] == []


# The files whose calls can set a parameter of the package
CALLERS = (sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
           + sorted(ROOT.glob("tests/*.py")))

# Defaulted parameters kept although no call passes them: name -> reason.
UNSET_PARAMETERS = {
    "fiber_failure_example(which)": "the operator-key parser binds it by name from a "
                                    "failure key (failure:which=max)",
}


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def unset_parameters(sources: list, callers: list) -> list:
    """Defaulted parameters of the module-level functions and methods of
    the modules sources that no call passes, named as function(parameter)
    or Class.method(parameter); the calls are those in sources and in the
    modules callers.

    Calls are matched by name: f(...) and x.f(...) call every f defined,
    C(...) calls C.__init__, and functools.partial(f, ...) binds f's
    parameters. A call passes a parameter by keyword or by position
    (after self, for a method that is not a staticmethod); *args or
    **kwargs passes every parameter it can reach. An argument written as
    the parameter's default (the same literal, or the module constant the
    default names) passes nothing, and neither does a forward of a
    parameter of the enclosing function that is itself unset.
    """
    trees = [ast.parse(src) for src in sources]
    defs, keys = {}, {}
    for tree in trees:
        consts = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
                  for t in node.targets if isinstance(t, ast.Name)}
        for prefix, f in _definitions(tree):
            keys[f] = prefix + f.name
            a = f.args
            pos = a.posonlyargs + a.args
            defaults = dict(zip([x.arg for x in pos[len(pos) - len(a.defaults):]], a.defaults))
            defaults.update((x.arg, d) for x, d in zip(a.kwonlyargs, a.kw_defaults)
                            if d is not None)
            if prefix and "staticmethod" not in map(_name, f.decorator_list):
                pos = pos[1:]
            called = prefix[:-1] if f.name == "__init__" else f.name
            defs.setdefault(called, []).append(
                (prefix + f.name, [x.arg for x in pos],
                 {p: ast.dump(consts.get(_name(d), d)) for p, d in defaults.items()}))
    passes = []   # (function(parameter), argument, enclosing scopes)

    def visit(node, scopes):
        if isinstance(node, ast.Call):
            func, args = node.func, node.args
            if _name(func) == "partial" and args:
                func, args = args[0], args[1:]
            for key, pos, defaults in defs.get(_name(func), []):
                given = []
                for i, arg in enumerate(args):
                    if isinstance(arg, ast.Starred):
                        given += [(p, arg.value) for p in pos[i:]]
                        break
                    given += [(pos[i], arg)] if i < len(pos) else []
                for k in node.keywords:
                    given += [(p, k.value) for p in (defaults if k.arg is None else [k.arg])]
                passes.extend((f"{key}({p})", arg, scopes) for p, arg in given
                              if p in defaults and ast.dump(arg) != defaults[p])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            scopes = scopes + [(keys.get(node), {x.arg for x in _parameters(node.args)})]
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    for tree in trees + [ast.parse(src) for src in callers]:
        visit(tree, [])

    def forwarded(arg, scopes):
        # the parameter arg names, when it names one of a checked function
        for key, params in reversed(scopes) if isinstance(arg, ast.Name) else []:
            if arg.id in params:
                return key and f"{key}({arg.id})"

    # every parameter starts unset; a pass that forwards no unset parameter
    # sets it, until none is left to set
    unset = {f"{key}({p})" for ds in defs.values() for key, _, d in ds for p in d}
    while True:
        passed = {name for name, arg, scopes in passes if forwarded(arg, scopes) not in unset}
        if not unset & passed:
            return sorted(unset)
        unset -= passed


def test_the_checker_sees_an_unset_parameter():
    source = ("T = 0.5\n\n"
              "def f(a, b=1, *, c=2, d=T, e=3, g=4, h=5):\n    return k(a, s=b)\n\n"
              "def k(a, s=0, u=None):\n    return k(a, s, u)\n\n"
              "class C:\n    def __init__(self, x, y=0):\n        pass\n\n"
              "    def m(self, z=1, w=2):\n        return f(z, c=w)\n\n"
              "    @staticmethod\n    def st(v=0):\n        pass\n\n"
              "def fwd(*args, **kwargs):\n    return C.st(*args), C(1, **kwargs)\n")
    calls = ("import functools\n"
             "f(1, 2, d=0.5, e=3, g=T)\nC(1).m(5)\nfunctools.partial(f, h=6)\n")
    # b and g are set (T is not g's default); c only by m's unset w; d and e
    # only at their defaults; s by forwards of f's b, set, and of k's own s;
    # u only by k's own recursion
    assert unset_parameters([source], [calls]) == [
        "C.m(w)", "f(c)", "f(d)", "f(e)", "k(u)"]
    # a forward from an unset parameter counts once that one is set
    assert unset_parameters([source], [calls + "C(1).m(1, 3)\nk(0, u=1)\n"]) == [
        "f(d)", "f(e)"]
    assert unset_parameters(["def f(a, b=1):\n    pass\n"], []) == ["f(b)"]
    assert unset_parameters(["def f(a, b=1):\n    pass\n"], ["f(*x)\n"]) == []


def test_every_defaulted_parameter_is_set():
    unset = unset_parameters([p.read_text() for p in SOURCES], [p.read_text() for p in CALLERS])
    assert [name for name in unset if name not in UNSET_PARAMETERS] == []
    # no stale entry: each one is still a parameter no call passes
    assert sorted(UNSET_PARAMETERS) == [name for name in unset if name in UNSET_PARAMETERS]


def references(source: str, name: str) -> list:
    """Lines that name name: as an attribute, a bare name or an import."""
    out = []
    for node in ast.walk(ast.parse(source)):
        named = ((isinstance(node, ast.Attribute) and node.attr == name)
                 or (isinstance(node, ast.Name) and node.id == name)
                 or (isinstance(node, (ast.Import, ast.ImportFrom))
                     and any(a.name.split(".")[-1] == name for a in node.names)))
        if named:
            out.append(node.lineno)
    return [f"line {n}" for n in sorted(out)]


def eigvalsh_references(source: str) -> list:
    """Lines that name eigvalsh: as an attribute, a bare name or an import."""
    return references(source, "eigvalsh")


def test_the_checker_sees_every_eigvalsh_reference():
    source = ("import numpy as np\nfrom numpy.linalg import eigvalsh\n"
              "x = np.linalg.eigvalsh(a)\ny = eigvalsh\nz = np.linalg.eigh(a)\n")
    assert eigvalsh_references(source) == ["line 2", "line 3", "line 4"]


def test_the_checker_sees_every_umath_linalg_reference():
    source = ("import numpy as np\nfrom numpy.linalg import _umath_linalg\n"
              "import numpy.linalg._umath_linalg as u\n"
              "x = np.linalg._umath_linalg.eigvalsh_lo(a)\ny = _umath_linalg\n"
              "z = np.linalg.eigvalsh(a)\nw = u.eigvalsh_lo(a)\n")
    assert references(source, "_umath_linalg") == ["line 2", "line 3", "line 4", "line 5"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_eigen_solves_go_through_jets_eigenvalues(path):
    # jets.eigenvalues chooses between LAPACK and the stacked 2 x 2 kernel;
    # a direct eigvalsh call elsewhere would bypass that one entry point,
    # and eigvalsh's private gufunc module, which jets.eigenvalues calls
    # for one finite matrix, stays behind it
    if path.name != "jets.py":
        assert eigvalsh_references(path.read_text()) == []
        assert references(path.read_text(), "_umath_linalg") == []


# The functions that may import scipy: the sparse Dirichlet solve's, so
# that no other path pays for loading it (see the cold-start test below)
SCIPY_HOMES = {"solver._assembler", "solver._sparse_solver", "solver._newton_step"}


def scipy_imports(source: str, module: str) -> list:
    """(home, line) for each import of scipy or a scipy module, its home
    the module-level function or class that holds it (module.name), or
    the module itself at its top level."""
    out = []
    for top in ast.parse(source).body:
        named = isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        home = f"{module}.{top.name}" if named else module
        for node in ast.walk(top):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                out.append((home, node.lineno))
    return sorted(out, key=lambda found: found[1])


def test_the_checker_sees_every_scipy_import():
    source = ("import numpy, scipy.sparse\nfrom . import scipy_like\n"
              "def f():\n    def g():\n        from scipy.optimize import brentq\n"
              "    import scipy\nclass C:\n    def h(self):\n        import scipy_like\n"
              "if True:\n    from scipy import linalg\n")
    assert scipy_imports(source, "m") == [("m", 1), ("m.f", 5), ("m.f", 6), ("m", 11)]


def test_scipy_loads_only_in_the_sparse_solve():
    found = [(home, line) for p in SOURCES for home, line in scipy_imports(p.read_text(), p.stem)]
    assert [f for f in found if f[0] not in SCIPY_HOMES] == []


# Oracle calls that classify one jet: in a loop they make a per-sample route
ONE_JET_METHODS = {"value", "classify", "contains"}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def one_jet_calls_in_loops(source: str) -> list:
    """Lines of .value(, .classify(, .contains( and classify_value( calls
    that run once per pass of a loop: in a for or while body (not its
    else), a while test, or a comprehension past its first iterable."""
    out = []

    def visit(node, looped):
        if looped and isinstance(node, ast.Call):
            f = node.func
            if ((isinstance(f, ast.Attribute) and f.attr in ONE_JET_METHODS)
                    or (isinstance(f, ast.Name) and f.id == "classify_value")):
                out.append(node.lineno)
        once = getattr(node, "orelse", []) if isinstance(node, LOOPS[:3]) else []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            once = once + [node.iter]
        elif isinstance(node, LOOPS[3:]):
            once = [node.generators[0].iter]
        for child in ast.iter_child_nodes(node):
            visit(child, looped or (isinstance(node, LOOPS) and child not in once))

    visit(ast.parse(source), False)
    return [f"line {n}" for n in sorted(out)]


def test_the_checker_sees_one_jet_calls_in_loops():
    source = ("for J in F.classify(K):\n    F.value(J)\nelse:\n    F.contains(J)\n"
              "while F.contains(J):\n    pass\n"
              "x = [classify_value(g) for g in F.values(r, p, A)]\n"
              "y = {F.value(J) for J in jets if F.contains(J)}\n"
              "z = F.classify(J)\nw = [g for g in F.values(r, p, A)]\n"
              "v = [1 for a in b for c in F.value(a)]\n")
    assert one_jet_calls_in_loops(source) == ["line 2", "line 5", "line 7", "line 8",
                                              "line 8", "line 11"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_oracle_classifies_one_jet_per_loop_pass(path):
    # every sampled check classifies its whole sample with one values call
    # per stage; a one-jet call in a loop is a per-sample route
    assert one_jet_calls_in_loops(path.read_text()) == []


# The trees whose code runs outside the tests: a public function of the
# package that no name in them reaches is dead or test-only code.
REACHING = (sorted((ROOT / "src").rglob("*.py")) + sorted(ROOT.glob("scripts/*.py"))
            + sorted(ROOT.glob("perfbench/*.py")))

# Public functions and methods that nothing in REACHING reaches, kept as
# paper-level API: qualified name -> reason.
UNREACHED_API = {
    "boundary.tangential_planes": "sampled tangential planes of the geometric pseudoconvexity test",
    "boundary.geometric_pseudoconvex_at": "the geometric pseudoconvexity test, "
                                          "checked against strict_pseudoconvex_at",
    "canonical.induced_fiber": "the constraint set of an operator; criterion 3",
    "canonical.check_proper_elliptic": "the correspondence's proper-ellipticity check",
    "canonical.check_compatibility": "the correspondence's compatibility check; criterion 3",
    "canonical.check_topological_tameness": "the correspondence's tameness check",
    "canonical.check_strict_M_monotone": "the correspondence's strict M-monotonicity check",
    "canonical.admissible_subsolution_test": "the admissible viscosity subsolution test at a node",
    "canonical.admissible_supersolution_test": "the admissible viscosity supersolution test "
                                               "at a node",
    "catalog.check_fiberegularity": "the fiber-regularity probe of variable fibers; criterion 2",
    "catalog.check_positivity": "the sampled positivity property (P) of a cone",
    "catalog.check_negativity": "the sampled negativity property (N) of a cone",
    "duality.check_dual_pair": "Dirichlet duality against an independent closed form; "
                               "criterion 2",
    "duality.check_inclusion": "sampled inclusion of one cone in another",
    "garding.verify_hyperbolic": "attaches a hyperbolicity certificate to an operator",
    "garding.garding_cone_oracle": "the closed Garding cone as a catalog oracle",
    "garding.garding_dirichlet_check": "the Garding cone contains the convex cone",
    "grids.perron_envelope": "the discrete Perron upper envelope",
    "grids.sup_convolution": "the discrete sup-convolution; criterion 9",
    "grids.quasiconvexity_defect": "discrete quasiconvexity of a sup-convolution; criterion 9",
    "solver.stencil_bias": "the measured bias of a discrete operator off the stencil",
}


def public_definitions(source: str, module: str) -> list:
    """(qualified name, name) of each public module-level function and each
    public method of a module-level class; dunders are not public."""
    return [(f"{module}.{prefix}{f.name}", f.name) for prefix, f in _definitions(ast.parse(source))
            if not f.name.startswith("_")]


def names_read(source: str) -> set:
    """Every name a module reads, loads and attribute names alike, and
    every name a from-import binds."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_the_checker_sees_an_unreached_definition():
    source = ("def used():\n    pass\n\ndef dead():\n    pass\n\ndef _private():\n    pass\n\n"
              "class C:\n    def m(self):\n        return used()\n\n"
              "    def __init__(self):\n        self.m()\n\n"
              "    def gone(self):\n        pass\n")
    defined = public_definitions(source, "mod")
    assert defined == [("mod.used", "used"), ("mod.dead", "dead"),
                       ("mod.C.m", "m"), ("mod.C.gone", "gone")]
    reached = names_read(source) | names_read("from mod import gone\n")
    assert [q for q, name in defined if name not in reached] == ["mod.dead"]


def test_every_public_function_is_reached():
    """Each public function or method of the package is reached by a name
    in src/, scripts/ or perfbench/, or is allowlisted API; cli.cmd_<name>
    is reached through the parser's subcommand <name>.

    The check goes by name alone. A definition counts as reached when any
    Name, attribute or from-import of that name appears in those trees,
    its own body and module included. So it cannot see a dead function or
    method whose name another object also uses (GridFunction.copy, shadowed
    by every ndarray.copy, and jets.spectrum, shadowed by
    FiberOracle.spectrum, were found by reading), nor a function that only
    other unreached code calls.
    """
    reached = set().union(*(names_read(p.read_text()) for p in REACHING))
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    reached |= {f"cmd_{name}" for name in commands.choices}
    unreached = [q for p in SOURCES for q, name in public_definitions(p.read_text(), p.stem)
                 if name not in reached]
    assert [q for q in unreached if q not in UNREACHED_API] == []
    # no stale entry: each one is still defined and still unreached
    assert sorted(UNREACHED_API) == sorted(unreached)


# A fresh interpreter: importing every module of the package loads no
# scipy, and neither do the grid checks (a comparison pair, the scheme
# probe, a zero-maximum check) nor a CLI command. The first Dirichlet
# solve loads scipy.sparse; nothing loads scipy.optimize, neither building
# the Pucci Garding operator nor a canonical value that bisects.
IMPORT_PROBE = """
import contextlib, importlib, io, json, math, sys
from numpy.random import default_rng


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


for name in sys.argv[1:]:
    importlib.import_module(name)
out = {"after_imports": scipy_modules()}
from jetcones import canonical, catalog as cat, cli, experiments, garding, jets, solver
from jetcones.grids import square_grid
experiments.comparison_battery(["P"], pairs=1, n_side=9, seed=117)
grid = square_grid(9, 0.0, 1.0)
out["probe"] = solver.scheme_monotonicity_probe("slag", grid, states=4)
M = cat.MonotonicityCone(0.0, cat.DirectionalCone.full(), math.inf)
z = experiments.zmp_sample(M, grid, default_rng(3))
out["zmp"] = solver.zmp_experiment(M, z, arity=cat.Arity.FULL).ok
with contextlib.redirect_stdout(io.StringIO()):
    out["canonical"] = cli.main(["canonical", "--key", "Q", "--matrix", "[[1,0.5],[0.5,-2]]"])
out["after_checks"] = scipy_modules()
g = experiments.quadratic_grid_function(grid, jets.SymMat.identity(2))
u, _ = solver.solve_dirichlet("slag", 1.0, g, tol=1e-10)
out["solution"] = u.values.ravel().view("int64").tolist()
out["sparse_after_solve"] = "scipy.sparse" in sys.modules
out["optimize_after_solve"] = "scipy.optimize" in sys.modules
out["degree"] = garding.pucci_garding_operator(1.0, 2.0, 3).degree
out["optimize_after_pucci_garding"] = "scipy.optimize" in sys.modules
A = jets.random_symmetric(default_rng(0), 3, 1.5)
out["fallback_value"] = canonical.canonical_operator(cat.cone_sigma_k(3, 2), A).hex()
out["optimize_after_fallback"] = "scipy.optimize" in sys.modules
out["vertices"] = [v.tolist() for v in garding.pucci_vertex_set(3, 1.0, 2.0)]
print(json.dumps(out))
"""


def test_cold_start_loads_no_scipy_until_a_solve():
    modules = ["jetcones" if p.stem == "__init__" else f"jetcones.{p.stem}" for p in SOURCES]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *modules], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(done.stdout)
    assert out["after_imports"] == []
    assert out["probe"] is True and out["zmp"] is True and out["canonical"] == 0
    assert out["after_checks"] == []
    # the solve loads SuperLU and gives the bits it gives in this process
    grid = square_grid(9, 0.0, 1.0)
    g = quadratic_grid_function(grid, jets.SymMat.identity(2))
    u, _ = solve_dirichlet("slag", 1.0, g, tol=1e-10)
    assert out["solution"] == u.values.ravel().view(np.int64).tolist()
    assert out["sparse_after_solve"] is True and out["optimize_after_solve"] is False
    assert out["degree"] == 6 and out["optimize_after_pucci_garding"] is False
    # sigma_2's curved g fails the ladder's certificate, so its bracket
    # is bisected, with no scipy
    A = jets.random_symmetric(default_rng(0), 3, 1.5)
    assert out["optimize_after_fallback"] is False
    assert out["fallback_value"] == canonical_operator(cat.cone_sigma_k(3, 2), A).hex()
    assert out["vertices"] == [v.tolist() for v in garding.pucci_vertex_set(3, 1.0, 2.0)]
    assert len(out["vertices"]) == 6
