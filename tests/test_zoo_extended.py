"""Extended supersymmetry: Kahler, hyper-Kahler, HKT, OKT, instanton."""

import numpy as np
import pytest

from sqmzoo import geometry, verify, zoo
from sqmzoo.diffop import SampleSpec, anticommutator, compose, is_zero, mult_op
from sqmzoo.fields import fconst
from sqmzoo.report import VIOLATED


def assert_zero(op, spec, tol=1e-9):
    flag, res = is_zero(op, spec, tol)
    assert flag, f"residual {res}"
    return res


# -- Kahler ---------------------------------------------------------------------


def test_flat_kahler_t_combinations():
    """T_alpha = sqrt2 pi_a chi_a-alpha match (Q + iS)/sqrt2 and
    (Qbar + iSbar)/sqrt2 with the pairwise chi conventions."""
    m = zoo.kahler_warped(u="0")
    spec = SampleSpec(box=((-1, 1),) * 4, n_points=4, seed=1)
    rep = m.rep
    q, qb, s, sb = m.op("Q"), m.op("Qbar"), m.op("S"), m.op("Sbar")
    n = 4
    sq2 = np.sqrt(2.0)
    t1 = zoo.zero_op(m.coords, rep)
    t2 = zoo.zero_op(m.coords, rep)
    for k in range(2):
        i1, i2 = 2 * k, 2 * k + 1
        # chi_1 = (psi_1 + i psi_2)/sqrt2, chi_2 = (psibar_1 + i psibar_2)/sqrt2,
        # pi = (p_1 - i p_2)/sqrt2; both T's pair with the same pi
        chi1 = fconst((rep.psi[i1] + 1j * rep.psi[i2]) / sq2, n)
        chi2 = fconst((rep.psibar[i1] + 1j * rep.psibar[i2]) / sq2, n)
        from sqmzoo.diffop import momentum_op
        pi_k = (1 / sq2) * (momentum_op(m.coords, rep, i1)
                            + (-1j) * momentum_op(m.coords, rep, i2))
        t1 = t1 + sq2 * compose(mult_op(chi1, m.coords, rep), pi_k)
        t2 = t2 + sq2 * compose(mult_op(chi2, m.coords, rep), pi_k)
    assert_zero(t1 - (1 / sq2) * (q + (1j) * s), spec)
    assert_zero(t2 - (1 / sq2) * (qb + (1j) * sb), spec)


def test_warped_kahler_theorem1_passes():
    m = zoo.kahler_warped()
    spec = m.sample_spec(n_points=8, seed=2)
    reports = verify.run_check("theorem1", m, spec)
    assert all(r.verdict == "pass" for r in reports), \
        [r.line() for r in reports if r.verdict != "pass"]


def test_warped_kahler_similarity_paths():
    m = zoo.kahler_warped()
    spec = m.sample_spec(n_points=6, seed=3)
    assert_zero(m.op("Q") - m.op("Q_similarity"), spec)
    assert_zero(m.op("S") - m.op("S_similarity"), spec)


def test_kahler_from_a_geometry_alone():
    """Without an omega, Q and S are the geometric charges, the recipe
    names no similarity step and no comparison operator is built."""
    geo, om = zoo._warped_geometry("0.3*sin(x1) + 0.2*x2^2")
    I = geometry.constant_structure(geometry.kahler_block_structure(4), 4)
    m = zoo.kahler(geo, I)
    assert m.recipe == ("free_real", "geometric_charge applied to Q and S")
    assert "Q_similarity" not in m.ops and "S_similarity" not in m.ops
    spec = m.sample_spec(n_points=3, seed=2)
    reports = verify.run_check("extended", m, spec)
    assert all(r.verdict == "pass" for r in reports), \
        [r.line() for r in reports if r.verdict != "pass"]
    both = zoo.kahler(geo, I, omega=om)
    assert both.recipe[:2] == m.recipe
    assert both.recipe[2].startswith("similarity(")
    assert {"Q_similarity", "S_similarity"} <= set(both.ops)
    for name in ("Q", "S"):
        shared = both.op(name).terms
        assert all(shared[k] is f for k, f in m.op(name).terms.items())


def test_non_kahler_deformation_violates():
    m = zoo.kahler_warped(u="0.3*sin(x1) + 0.2*x3^2")
    spec = m.sample_spec(n_points=8, seed=4)
    flag, res = is_zero(anticommutator(m.op("Q"), m.op("Sbar")), spec)
    assert not flag
    assert res.max_abs >= 1e-3 * (1 + res.scale)
    reports = verify.run_check("theorem1", m, spec, expect="any")
    assert any(r.verdict == VIOLATED for r in reports)
    assert all(r.ok for r in reports)


# -- hyper-Kahler ------------------------------------------------------------------


def test_flat_hyperkahler_n8_and_theorem2():
    m = zoo.hyperkahler_flat()
    spec = m.sample_spec(n_points=4, seed=5)
    reports = verify.run_check("theorem2", m, spec)
    assert all(r.verdict == "pass" for r in reports), \
        [r.line() for r in reports if r.verdict != "pass"]


def test_gibbons_hawking_validates_its_triple_once(monkeypatch):
    """select_orientation validates the triple it returns, so the model
    build samples its covariant constancy once, for one orientation."""
    calls = []
    sample = geometry.covariant_derivative_fields

    def counted(I, geo):
        calls.append(I)
        return sample(I, geo)

    monkeypatch.setattr(geometry, "covariant_derivative_fields", counted)
    m = zoo.hyperkahler_gibbons_hawking()
    assert len(calls) == 3
    assert m.meta["structures"] == tuple(calls)


def test_gibbons_hawking_theorem2():
    m = zoo.hyperkahler_gibbons_hawking()
    assert m.meta["orientation"] in ("eta", "eta_bar")
    spec = m.sample_spec(n_points=3, seed=6)
    hypotheses = verify.run_check("structure", m, spec)
    assert hypotheses[-1].name == "quaternion algebra"
    assert all(r.verdict == "pass" for r in hypotheses)
    reports = verify.run_check("theorem2", m, spec)
    assert all(r.verdict == "pass" for r in reports), \
        [r.line() for r in reports if r.verdict != "pass"]


def test_kahler_but_not_hyperkahler_violates():
    """Negative control: the warped Kahler metric with the flat canonical
    triple; only one structure is covariantly constant, so parts of the
    N=8 algebra must fail."""
    geo, _om = zoo._warped_geometry("0.3*sin(x1) + 0.2*x2^2")
    m = zoo.hyperkahler(geo, [
        geometry.constant_structure(c, 4, label=a + 1)
        for a, c in enumerate(geometry.canonical_triple(4))])
    spec = m.sample_spec(n_points=6, seed=7)
    hypotheses = {r.name: r.verdict for r in verify.run_check(
        "structure", m, spec, expect="any")}
    for a in (1, 2):
        assert hypotheses[f"I{a}_MN antisymmetric"] == VIOLATED
        assert hypotheses[f"cov-const I{a}"] == VIOLATED
    assert hypotheses["I3_MN antisymmetric"] == "pass"
    assert hypotheses["cov-const I3"] == "pass"
    # some cross anticommutator {S^a, Sbar^b}, a != b, must blow up
    worst = 0.0
    for a in range(3):
        for b in range(3):
            if a == b:
                continue
            _f, res = is_zero(anticommutator(m.op(f"S{a + 1}"),
                                             m.op(f"S{b + 1}bar")), spec)
            worst = max(worst, res.max_abs / (1 + res.scale))
    assert worst >= 1e-3
    reports = verify.run_check("theorem2", m, spec, expect="any")
    assert any(r.verdict == VIOLATED for r in reports)


def test_mixed_orientation_triple_rejected():
    from sqmzoo.fields import ZeroField, fgrid
    geo = geometry.from_omega(fgrid([[ZeroField((1, 1), 4)] * 4] * 4))
    canon = geometry.canonical_triple(4)
    canon_bar = geometry.canonical_triple(4, "eta_bar")
    trio = [geometry.constant_structure(canon[0], 4, 1),
            geometry.constant_structure(canon[1], 4, 2),
            geometry.constant_structure(canon_bar[2], 4, 3)]
    spec = SampleSpec(box=((-1, 1),) * 4, n_points=4, seed=8)
    reports = verify.run_check("structure", zoo.hyperkahler(geo, trio), spec)
    assert [(r.name, r.verdict) for r in reports if not r.ok] == \
        [("quaternion algebra", "fail")]


# -- HKT ------------------------------------------------------------------------


def test_hkt_zero_g_is_flat_n4():
    m = zoo.hkt_conformal("0")
    free = zoo.free_complex(2)
    spec = m.sample_spec(n_points=4, seed=9)
    assert_zero(m.op("Q") - free.op("Q"), spec)
    assert_zero(m.op("S") - free.op("S"), spec)


def test_hkt_quadratic_n4():
    m = zoo.hkt_conformal("0.1*(x1^2 + x2^2 + y1^2 + y2^2)")
    spec = m.sample_spec(n_points=8, seed=10)
    q, qb, s, sb, h = (m.op(k) for k in ("Q", "Qbar", "S", "Sbar", "H"))
    for lhs in (compose(q, q), compose(s, s), compose(qb, qb), compose(sb, sb),
                anticommutator(q, s), anticommutator(q, sb),
                anticommutator(s, qb)):
        assert_zero(lhs, spec)
    assert_zero(anticommutator(qb, q) - 2.0 * h, spec)
    assert_zero(anticommutator(sb, s) - 2.0 * h, spec)


def test_hkt_direct_vs_similarity():
    m = zoo.hkt_conformal("0.1*(x1^2 + x2^2 + y1^2 + y2^2)")
    spec = m.sample_spec(n_points=8, seed=11)
    r1 = assert_zero(m.op("Q") - m.op("Q_direct"), spec, tol=1e-10)
    r2 = assert_zero(m.op("S") - m.op("S_direct"), spec, tol=1e-10)
    assert max(r1.max_abs, r2.max_abs) < 1e-10


def test_hkt_cyclic_reduction_keeps_n4():
    """Conformal factor independent of the fourth real coordinate: dropping
    it leaves an N=4 model on the 3d slice."""
    from sqmzoo.diffop import reduce_cyclic
    m = zoo.hkt_conformal("0.1*(x1^2 + x2^2 + y1^2)")
    spec4 = m.sample_spec(n_points=5, seed=20)
    red = {}
    for name in ("Q", "Qbar", "S", "Sbar"):
        red[name] = reduce_cyclic(m.op(name), ["y2"], spec4)
    spec3 = SampleSpec(box=((-0.8, 0.8),) * 3, n_points=5, seed=21)
    h3 = 0.5 * anticommutator(red["Qbar"], red["Q"])
    assert_zero(compose(red["Q"], red["Q"]), spec3)
    assert_zero(compose(red["S"], red["S"]), spec3)
    assert_zero(anticommutator(red["Q"], red["S"]), spec3)
    assert_zero(anticommutator(red["Q"], red["Sbar"]), spec3)
    assert_zero(anticommutator(red["Sbar"], red["S"]) - 2.0 * h3, spec3)
    # the reduction commutes with taking brackets: H reduces to H3
    h_red = reduce_cyclic(m.op("H"), ["y2"], spec4)
    assert_zero(h_red - h3, spec3)


# -- OKT -------------------------------------------------------------------------


def test_okt_flat_pairwise_algebra():
    m = zoo.okt_flat()
    spec = m.sample_spec(n_points=3, seed=12)
    h = m.op("H")
    names = list(m.charges)
    assert len(names) == 8
    for i, a in enumerate(names):
        for b in names[i:]:
            lhs = anticommutator(m.op(a), m.op(b))
            if a == b:
                lhs = lhs - 2.0 * h
            assert_zero(lhs, spec)


def test_okt_gamma_squares_give_hamiltonian():
    m = zoo.okt_flat()
    spec = m.sample_spec(n_points=3, seed=13)
    for a in range(1, 8):
        s = m.op(f"S{a}")
        assert_zero(compose(s, s) - m.op("H"), spec)


# -- instanton ---------------------------------------------------------------------


def test_instanton_n4():
    m = zoo.instanton(rho=1.0)
    spec = m.sample_spec(n_points=6, seed=14)
    h = m.op("H")
    for a in (1, 2):
        for b in (1, 2):
            assert_zero(anticommutator(m.op(f"Q{a}"), m.op(f"Q{b}")), spec)
            lhs = anticommutator(m.op(f"Q{a}"), m.op(f"Q{b}bar"))
            if a == b:
                lhs = lhs - 2.0 * h
            assert_zero(lhs, spec)


def test_instanton_su2_and_invariance():
    m = zoo.instanton(rho=1.0)
    spec = m.sample_spec(n_points=5, seed=15)
    reports = verify.run_check("instanton_su2", m, spec)
    assert all(r.verdict == "pass" for r in reports), \
        [r.line() for r in reports if r.verdict != "pass"]


def test_instanton_large_rho_approaches_free():
    m = zoo.instanton(rho=1.0e6)
    spec = m.sample_spec(n_points=3, seed=16)
    # the gauge field scales like 1/rho^2: the order-0 part of Q vanishes
    zero_coeff = m.op("Q1").terms.get((0, 0, 0, 0))
    val = zero_coeff.eval_jet(spec.points()[0])[:, :, 0]
    assert np.abs(val).max() < 1e-11


def test_instanton_requires_positive_size():
    with pytest.raises(ValueError):
        zoo.instanton(rho=0.0)
