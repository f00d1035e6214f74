import numpy as np
import pytest

from sqmzoo import verify, zoo
from sqmzoo.diffop import OpError, Residual, SampleSpec
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


def test_structure_names_the_broken_hypothesis():
    """The non-Kahler warping keeps I a pointwise complex structure
    compatible with the metric, but not a covariantly constant one."""
    m = zoo.kahler_warped(u="0.3*sin(x1) + 0.2*x3^2")
    reports = verify.run_check("structure", m,
                               m.sample_spec(n_points=10, seed=7),
                               expect="any")
    assert [(r.name, r.verdict) for r in reports] == [
        ("I^2 = -1", PASS), ("I_MN antisymmetric", PASS),
        ("cov-const I", VIOLATED)]
    assert reports[2].residual.relative > 0.1


def test_run_check_rejects_a_box_of_the_wrong_length():
    m = zoo.kahler_warped()
    spec = SampleSpec(box=((-0.9, 0.9),) * 3, n_points=2, seed=1)
    for name in ("theorem1", "structure"):
        with pytest.raises(OpError, match="sample box"):
            verify.run_check(name, m, spec)
