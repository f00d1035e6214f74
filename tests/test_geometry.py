import numpy as np
import pytest

from sqmzoo import geometry, zoo
from sqmzoo.diffop import SampleSpec, sampled_residual
from sqmzoo.expr import Const, Coord, parse
from sqmzoo.fields import (EvalContext, ZeroField, evaluate, fexpr, fgrid,
                           fmatmul, fpow, fscale)


def _scalar_grid(texts, coords):
    n = len(coords)
    rows = []
    for row in texts:
        rows.append([fexpr(parse(t, coords), n) for t in row])
    return fgrid(rows)


def warped_omega(u_text, coords=("x1", "x2", "x3", "x4")):
    uf = fexpr(parse(u_text, coords), 4)
    z = ZeroField((1, 1), 4)
    mu = fscale(-1.0, uf)
    return fgrid([[mu, z, z, z], [z, mu, z, z],
                  [z, z, z, z], [z, z, z, z]])


SPEC4 = SampleSpec(box=((-0.9, 0.9),) * 4, n_points=8, seed=1)


def test_flat_geometry():
    z = ZeroField((1, 1), 2)
    geo = geometry.from_omega(fgrid([[z, z], [z, z]]))
    spec = SampleSpec(box=((-1, 1), (-1, 1)), n_points=3, seed=2)
    p = spec.points()[0]
    assert np.allclose(evaluate(geo.metric, p)[:, :, 0], np.eye(2))
    for n in range(2):
        assert np.abs(evaluate(geo.christoffel[n], p)).max() == 0.0
        assert np.abs(evaluate(geo.spin_connection[n], p)).max() == 0.0


def test_one_dimensional_closed_forms():
    om = _scalar_grid([["0.4*x^2"]], ["x"])
    geo = geometry.from_omega(om)
    x = 0.6
    w, wp = 0.4 * x * x, 0.8 * x
    assert evaluate(geo.metric, (x,))[0, 0, 0] == pytest.approx(np.exp(-2 * w))
    assert evaluate(geo.christoffel[0], (x,))[0, 0, 0] == pytest.approx(-wp)
    spec = SampleSpec(box=((-1.1, 1.1),), n_points=10, seed=3)
    r, = sampled_residual([geometry.metric_compatibility_fields(geo)], spec)
    assert r.max_abs < 1e-10 * (1 + r.scale)


def test_conformally_flat_metric():
    coords = ("x1", "x2", "x3", "x4")
    g = fexpr(parse("0.2*(x1^2+x3^2)", coords), 4)
    om = fgrid([[g if i == j else ZeroField((1, 1), 4) for j in range(4)]
                for i in range(4)])
    geo = geometry.from_omega(om)
    p = (0.5, -0.3, 0.8, 0.1)
    gval = 0.2 * (0.25 + 0.64)
    assert np.allclose(evaluate(geo.metric, p)[:, :, 0],
                       np.exp(-2 * gval) * np.eye(4), rtol=1e-12)


def test_christoffels_match_finite_difference_oracle():
    """Independent oracle: Gamma from centred differences of the metric."""
    om = _scalar_grid([["0.3*sin(x1)", "0.1*x1*x2"],
                       ["0.1*x1*x2", "0.2*x2^2"]], ["x1", "x2"])
    geo = geometry.from_omega(om)
    h = 1e-5
    spec = SampleSpec(box=((-0.8, 0.8), (-0.8, 0.8)), n_points=5, seed=4)
    for p in spec.points():
        gval = evaluate(geo.metric, p)[:, :, 0]
        ginv = np.linalg.inv(gval)
        dg = np.empty((2, 2, 2), dtype=complex)
        for m in range(2):
            pp, pm = list(p), list(p)
            pp[m] += h
            pm[m] -= h
            dg[m] = (evaluate(geo.metric, tuple(pp))[:, :, 0]
                     - evaluate(geo.metric, tuple(pm))[:, :, 0]) / (2 * h)
        for n in range(2):
            got = evaluate(geo.christoffel[n], p)[:, :, 0]
            for mm in range(2):
                for k in range(2):
                    want = 0.5 * sum(
                        ginv[n, s] * (dg[mm][s, k] + dg[k][s, mm] - dg[s][mm, k])
                        for s in range(2))
                    assert abs(got[mm, k] - want) < 1e-6 * max(1.0, abs(want))


def test_christoffel_symmetric_and_metric_compatible():
    om = warped_omega("0.3*sin(x1) + 0.2*x2^2")
    geo = geometry.from_omega(om)
    p = SPEC4.points()[0]
    for n in range(4):
        g = evaluate(geo.christoffel[n], p)[:, :, 0]
        assert np.abs(g - g.T).max() == 0.0
    r, = sampled_residual([geometry.metric_compatibility_fields(geo)],
                          SPEC4)
    assert r.max_abs <= 1e-9 * (1 + r.scale)


def test_spin_connection_antisymmetry():
    om = _scalar_grid([["0.3*sin(x1)", "0.1*x1*x2"],
                       ["0.1*x1*x2", "0.2*x2^2"]], ["x1", "x2"])
    geo = geometry.from_omega(om)
    spec = SampleSpec(box=((-0.8, 0.8), (-0.8, 0.8)), n_points=6, seed=5)
    for p in spec.points():
        for m in range(2):
            om_val = evaluate(geo.spin_connection[m], p)[:, :, 0]
            assert np.abs(om_val + om_val.T).max() < 1e-10


# -- complex structures --------------------------------------------------------


def test_flat_canonical_structure_all_residuals_zero():
    z = ZeroField((1, 1), 4)
    geo = geometry.from_omega(fgrid([[z] * 4] * 4))
    I = geometry.constant_structure(geometry.kahler_block_structure(4), 4)
    reports = geometry.check_complex_structure(I, geo, SPEC4)
    for r in reports:
        assert r.verdict == "pass"
        assert r.residual.max_abs < 1e-14


def test_warped_kahler_covariantly_constant():
    geo = geometry.from_omega(warped_omega("0.3*sin(x1) + 0.2*x2^2"))
    I = geometry.constant_structure(geometry.kahler_block_structure(4), 4)
    reports = geometry.check_complex_structure(I, geo, SPEC4)
    assert all(r.verdict == "pass" for r in reports)
    cov = [r for r in reports if r.name.startswith("cov-const")][0]
    assert cov.residual.max_abs < 1e-9 * (1 + cov.residual.scale)


def test_warping_third_coordinate_breaks_constancy():
    geo = geometry.from_omega(warped_omega("0.3*sin(x1) + 0.2*x3^2"))
    I = geometry.constant_structure(geometry.kahler_block_structure(4), 4)
    reports = geometry.check_complex_structure(I, geo, SPEC4, expected="violated")
    cov = [r for r in reports if r.name.startswith("cov-const")][0]
    assert cov.verdict == "violated-as-expected"
    assert cov.residual.max_abs > 1e-3 * (1 + cov.residual.scale)


def test_quaternion_check_variants():
    z = ZeroField((1, 1), 4)
    geo = geometry.from_omega(fgrid([[z] * 4] * 4))
    canon = [geometry.constant_structure(c, 4, label=a + 1)
             for a, c in enumerate(geometry.canonical_triple(4))]
    assert geometry.check_quaternion(*canon, SPEC4).verdict == "pass"
    canon_bar = [geometry.constant_structure(c, 4, label=a + 1)
                 for a, c in enumerate(geometry.canonical_triple(4, "eta_bar"))]
    assert geometry.check_quaternion(*canon_bar, SPEC4).verdict == "pass"
    mixed = [canon[0], canon[1], canon_bar[2]]
    rep = geometry.check_quaternion(*mixed, SPEC4, expected="violated")
    assert rep.verdict == "violated-as-expected"


# -- Gibbons-Hawking -------------------------------------------------------------


GH_SPEC = SampleSpec(box=((0.6, 1.4), (0.6, 1.4), (0.6, 1.4), (-1.0, 1.0)),
                     n_points=6, seed=6)


def test_gh_flat_limit_both_orientations():
    geo, v, a = geometry.gibbons_hawking([], [], eps=1.0)
    spec = SampleSpec(box=((-1, 1),) * 4, n_points=4, seed=7)
    for variant in ("eta", "eta_bar"):
        trio = [geometry.frame_structure(geo, c, label=i + 1)
                for i, c in enumerate(geometry.canonical_triple(4, variant))]
        for s in trio:
            r, = sampled_residual(
                [geometry.covariant_derivative_fields(s, geo)], spec)
            assert r.max_abs < 1e-12


def test_gh_gauge_satisfies_curl_condition():
    _geo, v, a = geometry.gibbons_hawking([(0.1, -0.2, 0.05)], [0.7], eps=1.0)
    vf = fexpr(v, 4)
    afs = [fexpr(ax, 4) for ax in a]
    for p in GH_SPEC.points():
        ctx = EvalContext(p)
        jv = vf.eval_jet(ctx, 1)
        ja = [x.eval_jet(ctx, 1) for x in afs]

        def d(j, i):
            return j[0, 0, 1 + i]

        curl = np.array([d(ja[2], 1) - d(ja[1], 2),
                         d(ja[0], 2) - d(ja[2], 0),
                         d(ja[1], 0) - d(ja[0], 1)])
        grad = np.array([d(jv, 0), d(jv, 1), d(jv, 2)])
        assert np.abs(curl - grad).max() < 1e-12


def test_gh_one_center_selects_orientation():
    geo, _v, _a = geometry.gibbons_hawking([(0.0, 0.0, 0.0)], [0.5], eps=1.0)
    trio, variant = geometry.select_orientation(geo, GH_SPEC)
    q = geometry.check_quaternion(*trio, GH_SPEC)
    assert q.verdict == "pass"
    for s in trio:
        r, = sampled_residual(
            [geometry.covariant_derivative_fields(s, geo)], GH_SPEC)
        assert r.max_abs < 1e-8 * (1 + r.scale)


def test_selected_orientation_must_pass_the_quaternion_algebra(monkeypatch):
    """A covariantly constant triple that is not quaternionic is rejected
    when it is selected, with the message hyperkahler gives."""
    z = ZeroField((1, 1), 4)
    geo = geometry.from_omega(fgrid([[z] * 4] * 4))
    first = geometry.canonical_triple(4)[0]
    monkeypatch.setattr(geometry, "canonical_triple",
                        lambda D, variant="eta": [first] * 3)
    with pytest.raises(ValueError, match="triple fails the quaternion"):
        geometry.select_orientation(geo, SPEC4)


def _overflowing_geometry():
    """diag(u, u, 0, 0) with u = 0.001 exp(800 x1): on [0.5, 1]^4 the
    metric overflows, so every covariant derivative is NaN."""
    coords = ("x1", "x2", "x3", "x4")
    u = fexpr(parse("0.001*exp(800*x1)", coords), 4)
    z = ZeroField((1, 1), 4)
    return geometry.from_omega(fgrid([[u, z, z, z], [z, u, z, z],
                                      [z, z, z, z], [z, z, z, z]]))


NAN_SPEC = SampleSpec(box=((0.5, 1.0),) * 4, n_points=6, seed=3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_covariant_derivative_is_not_a_structure():
    geo = _overflowing_geometry()
    trio = [geometry.constant_structure(c, 4, label=a + 1)
            for a, c in enumerate(geometry.canonical_triple(4))]
    m = zoo.hyperkahler(geo, trio, spec=NAN_SPEC)
    assert not m.meta["structure_ok"]
    cov = geometry.check_complex_structure(trio[0], geo, NAN_SPEC)[2]
    assert cov.verdict == "fail"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_covariant_derivative_selects_no_orientation():
    with pytest.raises(ValueError,
                       match="no covariantly constant orientation"):
        geometry.select_orientation(_overflowing_geometry(), NAN_SPEC)


def test_gh_two_centers():
    geo, _v, _a = geometry.gibbons_hawking(
        [(0.0, 0.0, 0.0), (2.5, 0.0, 0.0)], [0.4, 0.3], eps=1.0)
    trio, _variant = geometry.select_orientation(geo, GH_SPEC)
    for s in trio:
        r, = sampled_residual(
            [geometry.covariant_derivative_fields(s, geo)], GH_SPEC)
        assert r.max_abs < 1e-8 * (1 + r.scale)


def test_gh_deformed_potential_fails_both_orientations():
    x = [Coord(i) for i in range(4)]
    r2 = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    v = Const(1.0) + Const(0.5) / (r2 ** (1, 2)) + Const(0.2) * x[0] * x[0]
    _geo0, _v0, a = geometry.gibbons_hawking([(0.0, 0.0, 0.0)], [0.5], eps=1.0)
    vf = fexpr(v, 4)
    z = ZeroField((1, 1), 4)
    rows = []
    for m in range(3):
        row = [fpow(vf, 1, 2) if k == m else z for k in range(3)]
        row.append(fmatmul(fexpr(a[m], 4), fpow(vf, -1, 2)))
        rows.append(row)
    rows.append([z, z, z, fpow(vf, -1, 2)])
    geo = geometry.from_vielbein(fgrid(rows))
    with pytest.raises(ValueError, match="orientation"):
        geometry.select_orientation(geo, GH_SPEC)


def test_gh_nonpositive_weight_guard():
    geo, v, _a = geometry.gibbons_hawking([(0.0, 0.0, 0.0)], [-2.0], eps=0.0)
    # V < 0 on the sample box: the vielbein sqrt must fail there
    with pytest.raises(Exception):
        evaluate(geo.metric, (1.0, 1.0, 1.0, 0.0))


def test_pointwise_polar_extraction():
    om = _scalar_grid([["0.3*sin(x1)", "0.1*x1*x2"],
                       ["0.1*x1*x2", "0.2*x2^2"]], ["x1", "x2"])
    geo = geometry.from_omega(om)
    p = (0.4, -0.7)
    got = geometry.pointwise_symmetric_omega(geo.einv, p)
    want = evaluate(om, p)[:, :, 0]
    assert np.abs(got - want).max() < 1e-10
