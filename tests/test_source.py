"""Source hygiene of the package, checked with the standard library's ast."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "jetcones").glob("*.py"))


class _Uses(ast.NodeVisitor):
    """The names a module reads from its own scope: every Name load, less
    those that read a parameter of an enclosing function or lambda."""

    def __init__(self):
        self.used, self.params = set(), []

    def visit_Name(self, node):
        if not any(node.id in scope for scope in self.params):
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


def test_the_checker_sees_a_parameter_that_shadows_an_import():
    source = "from dataclasses import field\n\ndef f(field):\n    return field(1)\n"
    assert unused_imports(source) == ["line 1: field"]
    assert unused_imports(source + "\nx = field\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
