import numpy as np
import pytest

from sqmzoo import verify, zoo
from sqmzoo.diffop import Residual, SampleSpec, compose, momentum_op, mult_op
from sqmzoo.clifford import complex_fermions
from sqmzoo.expr import parse
from sqmzoo.fields import fconst, fexpr
from sqmzoo.report import (EXPLORATORY, FAIL, PASS, VIOLATED, classify,
                           make_report, render_report)


def res(max_abs, scale=1.0):
    return Residual(max_abs, (0.0,), scale)


def test_classify_pass_fail():
    assert classify(res(1e-12), "pass")[0] == PASS
    assert classify(res(1e-6), "pass")[0] == FAIL
    assert classify(res(0.5), "violated")[0] == VIOLATED
    assert classify(res(1e-12), "violated")[0] == FAIL
    assert classify(res(1.0), "exploratory")[0] == EXPLORATORY


def test_classify_gray_zone_fails_both_ways():
    gray = res(1e-6)
    assert classify(gray, "pass")[0] == FAIL
    assert classify(gray, "violated")[0] == FAIL
    assert classify(gray, "any")[0] == FAIL
    assert classify(res(1e-12), "any")[0] == PASS
    assert classify(res(0.7), "any")[0] == VIOLATED


def test_scale_relative_thresholds():
    # max_abs 1e-8 passes when the scale is large enough
    assert classify(res(1e-8, scale=1e2), "pass")[0] == PASS
    assert classify(res(1e-8, scale=1e-3), "pass")[0] == FAIL


@pytest.mark.parametrize("max_abs, scale", [
    (0.0, np.inf), (np.nan, 1.0), (np.inf, 1.0), (np.inf, np.inf),
    (0.0, np.nan)], ids=["inf-scale", "nan", "inf", "inf-both", "nan-scale"])
def test_classify_non_finite_fails(max_abs, scale):
    # an infinite scale would open every gate, and an infinite residual
    # would clear the violation gate, so neither may decide a verdict
    for expected in ("pass", "violated", "any"):
        assert classify(res(max_abs, scale), expected)[0] == FAIL
    assert classify(res(max_abs, scale), "exploratory")[0] == EXPLORATORY


def test_report_line_stable():
    spec = SampleSpec(box=((-1, 1),), n_points=2, seed=1)
    r = make_report("demo", Residual(1.5e-12, (0.25,), 2.0), spec)
    line = r.line()
    assert "demo" in line and "1.500000e-12" in line and "pass" in line
    text1 = render_report([r], header="h")
    text2 = render_report([r], header="h")
    assert text1 == text2


def test_suite_dispatch_matches_algebra():
    m = zoo.witten()
    reports = verify.run_check("suite", m, m.sample_spec(n_points=6, seed=2))
    assert {r.name for r in reports} == {"Q^2", "Qbar^2", "{Qbar,Q} - 2H"}
    m4 = zoo.free_complex(2)
    reports4 = verify.run_check("suite", m4,
                                m4.sample_spec(n_points=4, seed=3))
    assert any("{Q,Sbar}" in r.name for r in reports4)


def test_suites_deterministic_given_seed():
    m = zoo.dolbeault([["0.2*(x1^2 + y1^2)"]], d=1)
    spec = m.sample_spec(n_points=6, seed=11)
    r1 = render_report(verify.run_check("suite", m, spec))
    r2 = render_report(verify.run_check("suite", m, spec))
    assert r1 == r2
    r3 = render_report(verify.run_check(
        "suite", m, m.sample_spec(n_points=6, seed=12)))
    assert r1 != r3   # different seed samples different points


def test_okt_suite():
    m = zoo.okt_flat()
    reports = verify.run_check("suite", m, m.sample_spec(n_points=2, seed=4))
    assert len(reports) == 36
    assert all(r.verdict == PASS for r in reports)


def test_jacobi_identity_random_low_order_ops():
    rep = complex_fermions(1)
    coords = ("x",)
    spec = SampleSpec(box=((-1, 1),), n_points=6, seed=5)
    p = momentum_op(coords, rep, "x")
    ops = [
        compose(mult_op(fexpr(parse("sin(x)", coords), 1), coords, rep), p),
        mult_op(fexpr(parse("x^2 + 1", coords), 1), coords, rep),
        compose(mult_op(fconst(rep.psi[0], 1), coords, rep), p),
        mult_op(fconst(rep.psi[0] @ rep.psibar[0], 1), coords, rep),
        compose(mult_op(fconst(rep.psibar[0], 1), coords, rep),
                mult_op(fexpr(parse("exp(x)", coords), 1), coords, rep)),
    ]
    import itertools
    for a, b, c in itertools.combinations(ops, 3):
        r = verify.jacobi_residual(a, b, c, spec)
        assert r.max_abs < 1e-9 * (1 + r.scale), r


def test_op_parity():
    rep = complex_fermions(1)
    coords = ("x",)
    point = (0.3,)
    odd = mult_op(fconst(rep.psi[0], 1), coords, rep)
    even = mult_op(fconst(rep.psi[0] @ rep.psibar[0], 1), coords, rep)
    assert verify.op_parity(odd, point) == -1
    assert verify.op_parity(even, point) == 1
    mixed = odd + even
    with pytest.raises(ValueError):
        verify.op_parity(mixed, point)
