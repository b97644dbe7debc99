"""Source hygiene of the package, checked with the standard library's ast."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "jetcones").glob("*.py"))


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
        a = node.args
        self.params.append({x.arg for x in a.posonlyargs + a.args + a.kwonlyargs
                            + [a.vararg, a.kwarg] if x is not None})
        self.generic_visit(node)
        self.params.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = _function


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
    for node in ast.parse(source).body:
        for f in node.body if isinstance(node, ast.ClassDef) else [node]:
            if not isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            uses = _Uses()
            for stmt in f.body:
                uses.visit(stmt)
            a = f.args
            out += [f"{f.name}({x.arg})" for x in a.posonlyargs + a.args + a.kwonlyargs
                    + [a.vararg, a.kwarg] if x is not None and x.arg not in uses.used]
    return out


def test_the_checker_sees_a_parameter_that_shadows_an_import():
    source = "from dataclasses import field\n\ndef f(field):\n    return field(1)\n"
    assert unused_imports(source) == ["line 1: field"]
    assert unused_imports(source + "\nx = field\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
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
