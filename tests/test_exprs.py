import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetcones.errors import ParseError
from jetcones.exprs import compile_expression


def test_arithmetic_and_precedence():
    f = compile_expression("1 + 2 * 3 - 4 / 2")
    assert f([]) == pytest.approx(5.0)
    assert compile_expression("2 ^ 3 ^ 2")([]) == pytest.approx(512.0)  # right assoc
    assert compile_expression("-2 ^ 2")([]) == pytest.approx(-4.0)
    assert compile_expression("(1 + 2) * 3")([]) == pytest.approx(9.0)


def test_variables_and_functions():
    f = compile_expression("x1 ^ 2 / 2 + abs(x2)")
    assert f([3.0, -4.0]) == pytest.approx(4.5 + 4.0)
    g = compile_expression("max(x1, x2, 0) + min(x1, x2)")
    assert g([2.0, -1.0]) == pytest.approx(1.0)


def test_vectorized_evaluation():
    f = compile_expression("x1 * x1 - x2 ^ 2")
    xs = np.linspace(-1, 1, 5)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    out = f([X, Y])
    assert out.shape == X.shape
    assert np.allclose(out, X**2 - Y**2)
    # functions mix grid arrays and constants
    g = compile_expression("max(x1, 0) + min(x2, x1, 0.5)")([X, Y])
    assert np.array_equal(g, np.maximum(X, 0) + np.minimum(np.minimum(Y, X), 0.5))


def test_ieee_arithmetic_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert compile_expression("1/0")([]) == np.inf
        assert np.isnan(compile_expression("0/0")([]))
        assert compile_expression("10^400")([]) == np.inf
        assert np.isinf(compile_expression("1/x1")([np.zeros(3)])).all()


def test_long_flat_chains_evaluate():
    assert compile_expression("+".join(["1"] * 3000))([]) == 3000.0
    assert compile_expression("*".join(["x1"] * 3000))([1.0]) == 1.0


def test_scientific_numbers():
    assert compile_expression("1e-2 + .5")([]) == pytest.approx(0.51)


@pytest.mark.parametrize("text", ["x1 ", " x1\t"])
def test_surrounding_whitespace_is_skipped(text):
    assert compile_expression(text)([3.0]) == 3.0


@pytest.mark.parametrize("bad", [
    "", " \t", "x0", "y1", "1 +", "foo(2)", "(1", "1 $ 2", "abs 2", "x1 x2",
    "abs(1,2)", "min(1)", "max(x1)", "min()",
    pytest.param("-" * 3000 + "1", id="3000 minus signs"),
    pytest.param("(" * 3000 + "1" + ")" * 3000, id="3000 parentheses"),
    pytest.param("2^" * 3000 + "2", id="3000 exponents"),
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        compile_expression(bad)([1.0, 1.0])


def test_dimension_guard():
    f = compile_expression("x3")
    with pytest.raises(ParseError):
        f([1.0, 2.0])


TOKENS = ["1", "2.5", "0", ".5", "1e308", "x1", "x2", "x3", "abs", "min", "max", "sin",
          "+", "-", "*", "/", "^", "(", ")", ",", " ", "$"]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(TOKENS), max_size=24))
def test_any_token_string_evaluates_or_is_a_parse_error(tokens):
    text = "".join(tokens)
    xs = np.linspace(-1.0, 1.0, 3)
    grid = np.meshgrid(xs, xs, indexing="ij")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = compile_expression(text)(grid)
        except ParseError:
            return
    assert np.shape(value) in ((), (3, 3))
