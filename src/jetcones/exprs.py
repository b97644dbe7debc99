"""Minimal arithmetic expression grammar for self-contained text configs.

    expr   := term { ("+" | "-") term }
    term   := unary { ("*" | "/") unary }
    unary  := "-" unary | power
    power  := atom [ "^" unary ]
    atom   := NUMBER | VAR | FUNC "(" expr { "," expr } ")" | "(" expr ")"
    VAR    := "x1" | "x2" | ... | "xn"
    FUNC   := "abs" (one argument) | "min" | "max" (two or more)

Numbers are floats; evaluation is vectorized over numpy arrays so
boundary expressions apply to whole grids at once. Arithmetic follows
IEEE rules without warnings (1/0 is inf, 0/0 is nan); callers that need
finite values check them. Parentheses, minus signs and exponents nest at
most MAX_NESTING deep. Anything malformed is a ParseError.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Sequence

import numpy as np

from .errors import ParseError

MAX_NESTING = 32

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)

# name -> (fewest arguments, most arguments or None, evaluation)
_FUNCS = {
    "abs": (1, 1, lambda args: np.abs(args[0])),
    "min": (2, None, lambda args: functools.reduce(np.minimum, args)),
    "max": (2, None, lambda args: functools.reduce(np.maximum, args)),
}

_BINARY = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power}


def _tokenize(text: str) -> list:
    text = text.rstrip()
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character at {text[pos:pos + 8]!r}")
        if m.lastgroup == "num":
            out.append(("num", float(m.group("num"))))
        elif m.lastgroup == "name":
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None):
        k, v = self.toks[self.i]
        if kind is not None and k != kind:
            raise ParseError(f"expected {kind}, got {k} {v!r}")
        if value is not None and v != value:
            raise ParseError(f"expected {value!r}, got {v!r}")
        self.i += 1
        return v

    def chain(self, ops, operand):
        """operand { op operand }, kept flat and evaluated left to right."""
        node = operand()
        rest = []
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            op = self.take("op")
            rest.append((op, operand()))
        return ("chain", node, rest) if rest else node

    def expr(self):
        return self.chain(("+", "-"), self.term)

    def term(self):
        return self.chain(("*", "/"), self.unary)

    def unary(self):
        # every nested construct recurses through here
        if self.depth == MAX_NESTING:
            raise ParseError(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        if self.peek() == ("op", "-"):
            self.take("op")
            node = ("neg", self.unary())
        else:
            node = self.power()
        self.depth -= 1
        return node

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take("op")
            return ("chain", base, [("^", self.unary())])
        return base

    def atom(self):
        k, v = self.peek()
        if k == "num":
            self.take()
            return ("num", v)
        if k == "name":
            self.take()
            if self.peek() == ("op", "("):
                if v not in _FUNCS:
                    raise ParseError(f"unknown function {v!r}")
                self.take("op", "(")
                args = [self.expr()]
                while self.peek() == ("op", ","):
                    self.take("op", ",")
                    args.append(self.expr())
                self.take("op", ")")
                fewest, most, _ = _FUNCS[v]
                if len(args) < fewest or (most is not None and len(args) > most):
                    takes = f"{fewest}" if most == fewest else f"at least {fewest}"
                    raise ParseError(f"{v} takes {takes} argument(s), got {len(args)}")
                return ("call", v, args)
            if not re.fullmatch(r"x[1-9]\d*", v):
                raise ParseError(f"unknown identifier {v!r} (variables are x1..xn)")
            return ("var", int(v[1:]) - 1)
        if (k, v) == ("op", "("):
            self.take("op", "(")
            node = self.expr()
            self.take("op", ")")
            return node
        raise ParseError(f"unexpected token {v!r}")


def _eval(node, coords):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        idx = node[1]
        if idx >= len(coords):
            raise ParseError(f"variable x{idx + 1} beyond dimension {len(coords)}")
        return coords[idx]
    if kind == "neg":
        return -_eval(node[1], coords)
    if kind == "call":
        return _FUNCS[node[1]][2]([_eval(a, coords) for a in node[2]])
    value = _eval(node[1], coords)
    for op, rhs in node[2]:
        value = _BINARY[op](value, _eval(rhs, coords))
    return value


def compile_expression(text: str) -> Callable:
    """Compile an expression into f(coords) over per-axis arrays or scalars."""
    parser = _Parser(_tokenize(text))
    tree = parser.expr()
    if parser.peek()[0] != "end":
        raise ParseError(f"trailing input after expression: {text!r}")

    def f(coords: Sequence):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _eval(tree, list(coords))

    return f
