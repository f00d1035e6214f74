import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqmzoo.expr import Const, Coord, ExprError, parse, to_text
from sqmzoo.fields import fexpr


def value(text, coords, point):
    return fexpr(parse(text, coords), len(coords)).eval_jet(point)[0, 0, 0]


def test_cubic_at_two():
    assert value("x^3 - x", ["x"], (2.0,)) == pytest.approx(6.0)


def test_exp_at_origin_product():
    assert value("exp(x*y)", ["x", "y"], (1.0, 0.0)) == pytest.approx(1.0)


def test_rational_derivative():
    # oracle: d/dx (x^2+1)^-1 = -2x/(x^2+1)^2 -> -0.5 at x = 1
    f = fexpr(parse("1/(x^2+1)", ["x"]), 1)
    jet = f.eval_jet((1.0,), order=1)
    assert jet[0, 0, 1] == pytest.approx(-0.5, rel=1e-12)


def test_precedence_and_unary():
    assert value("-x^2", ["x"], (3.0,)) == pytest.approx(-9.0)
    assert value("2*x + 3*x^2", ["x"], (2.0,)) == pytest.approx(16.0)
    assert value("(2+x)*(x-1)", ["x"], (4.0,)) == pytest.approx(18.0)


def test_rational_power():
    assert value("x^(1/2)", ["x"], (4.0,)) == pytest.approx(2.0)
    assert value("x^(3/2)", ["x"], (4.0,)) == pytest.approx(8.0)
    assert value("x^-2", ["x"], (2.0,)) == pytest.approx(0.25)


def test_imaginary_unit_and_pi():
    assert value("i*x", ["x"], (2.0,)) == pytest.approx(2j)
    assert value("cos(pi)", ["x"], (0.0,)) == pytest.approx(-1.0)


def test_functions():
    assert value("sin(x)^2 + cos(x)^2", ["x"], (0.7,)) == pytest.approx(1.0)
    assert value("log(exp(x))", ["x"], (0.37,)) == pytest.approx(0.37)
    assert value("sqrt(x^2)", ["x"], (1.3,)) == pytest.approx(1.3)


def test_syntax_error_position():
    with pytest.raises(ExprError) as err:
        parse("x + * 2", ["x"])
    assert err.value.pos == 4


def test_unknown_identifier():
    with pytest.raises(ExprError, match="unknown identifier"):
        parse("x + q", ["x"])
    with pytest.raises(ExprError, match="unknown function"):
        parse("sinh(x)", ["x"])


def test_trailing_garbage():
    with pytest.raises(ExprError, match="trailing"):
        parse("x 2", ["x"])


def test_float_exponent_rejected():
    with pytest.raises(ExprError, match="exponent"):
        parse("x^1.5", ["x"])


# -- round-trip property ----------------------------------------------------

_LEAVES = st.sampled_from(["x", "y", "2", "0.5", "3"])


def _expr_text(depth):
    if depth == 0:
        return _LEAVES
    sub = _expr_text(depth - 1)
    return st.one_of(
        _LEAVES,
        st.tuples(sub, st.sampled_from("+-*"), sub).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        sub.map(lambda s: f"sin({s})"),
        sub.map(lambda s: f"exp({s})"),
        sub.map(lambda s: f"(-{s})"),
        sub.map(lambda s: f"{s}^2"),
    )


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_expr_text(3), st.floats(-1.5, 1.5), st.floats(-1.5, 1.5))
def test_parse_print_roundtrip(text, x, y):
    coords = ["x", "y"]
    e1 = parse(text, coords)
    e2 = parse(to_text(e1), coords)
    f1 = fexpr(e1, 2)
    f2 = fexpr(e2, 2)
    j1 = f1.eval_jet((x, y), order=2)
    j2 = f2.eval_jet((x, y), order=2)
    assert np.allclose(j1, j2, rtol=0, atol=1e-12)


def test_operator_sugar_matches_parser():
    x, y = Coord(0, "x"), Coord(1, "y")
    built = (x + Const(2)) * y - x / y + x ** 3 + x ** (1, 2)
    parsed = parse("(x+2)*y - x/y + x^3 + x^(1/2)", ["x", "y"])
    p = (0.8, 1.7)
    a = fexpr(built, 2).eval_jet(p, order=1)
    b = fexpr(parsed, 2).eval_jet(p, order=1)
    assert np.allclose(a, b, atol=1e-14)
