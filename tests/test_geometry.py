import numpy as np
import pytest

from sqmzoo import geometry, verify, zoo
from sqmzoo.diffop import TOL_PASS, SampleSpec, sampled_residual
from sqmzoo.expr import Const, Coord, parse
from sqmzoo.fields import ZeroField, fexpr, fgrid, fmatmul, fpow, fscale


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
    assert np.allclose(geo.metric.eval_jet(p)[:, :, 0], np.eye(2))
    for n in range(2):
        assert np.abs(geo.christoffel[n].eval_jet(p)).max() == 0.0
        assert np.abs(geo.spin_connection[n].eval_jet(p)).max() == 0.0


def test_one_dimensional_closed_forms():
    om = _scalar_grid([["0.4*x^2"]], ["x"])
    geo = geometry.from_omega(om)
    x = 0.6
    w, wp = 0.4 * x * x, 0.8 * x
    assert geo.metric.eval_jet((x,))[0, 0, 0] == pytest.approx(np.exp(-2 * w))
    assert geo.christoffel[0].eval_jet((x,))[0, 0, 0] == pytest.approx(-wp)
    spec = SampleSpec(box=((-1.1, 1.1),), n_points=10, seed=3)
    r, = sampled_residual([geometry._covariant_derivative(geo.metric, geo)],
                          spec)
    assert r.max_abs < 1e-10 * (1 + r.scale)


def test_conformally_flat_metric():
    coords = ("x1", "x2", "x3", "x4")
    g = fexpr(parse("0.2*(x1^2+x3^2)", coords), 4)
    om = fgrid([[g if i == j else ZeroField((1, 1), 4) for j in range(4)]
                for i in range(4)])
    geo = geometry.from_omega(om)
    p = (0.5, -0.3, 0.8, 0.1)
    gval = 0.2 * (0.25 + 0.64)
    assert np.allclose(geo.metric.eval_jet(p)[:, :, 0],
                       np.exp(-2 * gval) * np.eye(4), rtol=1e-12)


def test_christoffels_match_finite_difference_oracle():
    """Independent oracle: Gamma from centred differences of the metric."""
    om = _scalar_grid([["0.3*sin(x1)", "0.1*x1*x2"],
                       ["0.1*x1*x2", "0.2*x2^2"]], ["x1", "x2"])
    geo = geometry.from_omega(om)
    h = 1e-5
    spec = SampleSpec(box=((-0.8, 0.8), (-0.8, 0.8)), n_points=5, seed=4)
    for p in spec.points():
        gval = geo.metric.eval_jet(p)[:, :, 0]
        ginv = np.linalg.inv(gval)
        dg = np.empty((2, 2, 2), dtype=complex)
        for m in range(2):
            pp, pm = list(p), list(p)
            pp[m] += h
            pm[m] -= h
            dg[m] = (geo.metric.eval_jet(tuple(pp))[:, :, 0]
                     - geo.metric.eval_jet(tuple(pm))[:, :, 0]) / (2 * h)
        for n in range(2):
            got = geo.christoffel[n].eval_jet(p)[:, :, 0]
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
        g = geo.christoffel[n].eval_jet(p)[:, :, 0]
        assert np.abs(g - g.T).max() == 0.0
    r, = sampled_residual([geometry._covariant_derivative(geo.metric, geo)],
                          SPEC4)
    assert r.max_abs <= 1e-9 * (1 + r.scale)


def test_spin_connection_antisymmetry():
    om = _scalar_grid([["0.3*sin(x1)", "0.1*x1*x2"],
                       ["0.1*x1*x2", "0.2*x2^2"]], ["x1", "x2"])
    geo = geometry.from_omega(om)
    spec = SampleSpec(box=((-0.8, 0.8), (-0.8, 0.8)), n_points=6, seed=5)
    for p in spec.points():
        for m in range(2):
            om_val = geo.spin_connection[m].eval_jet(p)[:, :, 0]
            assert np.abs(om_val + om_val.T).max() < 1e-10


# -- complex structures --------------------------------------------------------


def _structure(model, spec, expect=None):
    """The ``structure`` check's reports on ``model``, by label."""
    return {r.name: r for r in verify.run_check("structure", model, spec,
                                                expect=expect)}


def _kahler_block(geo):
    I = geometry.constant_structure(geometry.kahler_block_structure(4), 4)
    return zoo.kahler(geo, I)


def test_flat_canonical_structure_all_residuals_zero():
    z = ZeroField((1, 1), 4)
    reports = _structure(_kahler_block(geometry.from_omega(
        fgrid([[z] * 4] * 4))), SPEC4)
    assert list(reports) == ["I^2 = -1", "I_MN antisymmetric", "cov-const I"]
    for r in reports.values():
        assert r.verdict == "pass"
        assert r.residual.max_abs < 1e-14


def test_warped_kahler_covariantly_constant():
    geo = geometry.from_omega(warped_omega("0.3*sin(x1) + 0.2*x2^2"))
    reports = _structure(_kahler_block(geo), SPEC4)
    assert all(r.verdict == "pass" for r in reports.values())
    cov = reports["cov-const I"]
    assert cov.residual.relative < 1e-9


def test_warping_third_coordinate_breaks_constancy():
    geo = geometry.from_omega(warped_omega("0.3*sin(x1) + 0.2*x3^2"))
    reports = _structure(_kahler_block(geo), SPEC4, expect="any")
    cov = reports["cov-const I"]
    assert cov.verdict == "violated-as-expected"
    assert cov.residual.relative > 1e-3


def test_quaternion_check_variants():
    z = ZeroField((1, 1), 4)
    geo = geometry.from_omega(fgrid([[z] * 4] * 4))
    canon = [geometry.constant_structure(c, 4, label=a + 1)
             for a, c in enumerate(geometry.canonical_triple(4))]
    quaternion = "quaternion algebra"
    assert _structure(zoo.hyperkahler(geo, canon),
                      SPEC4)[quaternion].verdict == "pass"
    canon_bar = [geometry.constant_structure(c, 4, label=a + 1)
                 for a, c in enumerate(geometry.canonical_triple(4, "eta_bar"))]
    assert _structure(zoo.hyperkahler(geo, canon_bar),
                      SPEC4)[quaternion].verdict == "pass"
    mixed = [canon[0], canon[1], canon_bar[2]]
    rep = _structure(zoo.hyperkahler(geo, mixed), SPEC4, expect="any")
    assert rep[quaternion].verdict == "violated-as-expected"


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
        jv = vf.eval_jet(p, 1)
        ja = [x.eval_jet(p, 1) for x in afs]

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
    q, = sampled_residual([geometry.quaternion_fields(trio)], GH_SPEC)
    assert q.relative <= TOL_PASS
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
    reports = _structure(zoo.hyperkahler(geo, trio), NAN_SPEC)
    for a in (1, 2, 3):
        assert reports[f"cov-const I{a}"].verdict == "fail"


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
        geo.metric.eval_jet((1.0, 1.0, 1.0, 0.0))
