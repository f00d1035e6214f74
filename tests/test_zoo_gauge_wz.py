"""Gauge models and the Wess-Zumino mode truncation."""

import pytest

from sqmzoo import verify, zoo
from sqmzoo.clifford import const_tensor
from sqmzoo.diffop import (anticommutator, commutator, compose, is_zero,
                           mult_op, naive_dagger, pretty, similarity)
from sqmzoo.fields import fexpr
from sqmzoo.expr import parse


def assert_zero(op, spec, tol=1e-9):
    flag, res = is_zero(op, spec, tol)
    assert flag, f"residual {res}"
    return res


def test_sym3_charge_is_not_nilpotent_but_gauge_exact():
    m = zoo.gauge_sym3()
    spec = m.sample_spec(n_points=10, seed=1)
    q = m.op("Q")
    flag, res = is_zero(compose(q, q), spec)
    assert not flag
    assert res.max_abs >= 1e-3 * (1 + res.scale)
    # Q^2 == A_-^a G^a as an operator identity
    rhs = zoo.zero_op(m.coords, m.rep)
    for a in range(3):
        rhs = rhs + compose(mult_op(m.meta["a_minus"][a], m.coords, m.rep),
                            m.op(f"G{a + 1}"))
    res2 = assert_zero(compose(q, q) - rhs, spec, tol=1e-12)
    assert res2.max_abs < 1e-12 * (1 + res2.scale)


def test_sym3_hamiltonian_matches_direct_assembly():
    m = zoo.gauge_sym3()
    spec = m.sample_spec(n_points=8, seed=2)
    assert_zero(anticommutator(m.op("Qbar"), m.op("Q"))
                - 2.0 * m.op("H_direct"), spec)


def test_sym3_constraint_algebra():
    m = zoo.gauge_sym3()
    spec = m.sample_spec(n_points=6, seed=3)
    eps3 = const_tensor("epsilon3")
    g_ops = [m.op(f"G{a + 1}") for a in range(3)]
    for a in range(3):
        assert_zero(commutator(g_ops[a], m.op("H")), spec)
        for b in range(3):
            comm = commutator(g_ops[a], g_ops[b])
            for c in range(3):
                if eps3[a, b, c]:
                    comm = comm - (1j * eps3[a, b, c]) * g_ops[c]
            assert_zero(comm, spec)


def test_sym3_constraints_annihilate_gauge_invariants():
    m = zoo.gauge_sym3()
    spec = m.sample_spec(n_points=6, seed=4)
    inv = parse("A11^2+A12^2+A21^2+A22^2+A31^2+A32^2", m.coords)
    mult = mult_op(fexpr(inv, 6), m.coords, m.rep)
    for a in range(3):
        assert_zero(commutator(m.op(f"G{a + 1}"), mult), spec)


def test_sym3_suite_verdicts():
    m = zoo.gauge_sym3()
    reports = verify.run_check("suite", m, m.sample_spec(n_points=6, seed=5))
    by_name = {r.name: r for r in reports}
    assert by_name["Q^2"].verdict == "violated-as-expected"
    assert by_name["Q^2 - A_-.G"].verdict == "pass"
    assert all(r.ok for r in reports)


# -- resolved gauge model ------------------------------------------------------


def test_resolved_constructs_and_prints():
    m = zoo.gauge_sym3_resolved(g0=1.0)
    txt = pretty(m.op("Qcov"))
    assert "exp" in txt and "alpha" in txt   # the e^{-i alpha} phase
    assert "J3" in txt                       # named fermion bilinears survive
    assert "d_a" in txt and "d_b" in txt and "d_alpha" in txt


def test_resolved_exploratory_reports():
    m = zoo.gauge_sym3_resolved(g0=1.0)
    spec = m.sample_spec(n_points=20, seed=6)
    reports = verify.run_check("exploratory", m, spec)
    assert all(r.verdict == "exploratory" for r in reports)
    by_name = {r.name: r for r in reports}
    # the verbatim charges come out exactly nilpotent at samples
    nil = by_name["Qcov^2 (exploratory)"]
    assert nil.residual.max_abs < 1e-9 * (1 + nil.residual.scale)
    # alpha is NOT cyclic in the verbatim Hamiltonian; reported, not asserted
    cyc = by_name["[p_alpha, H] (exploratory)"]
    assert cyc.residual.max_abs > 1e-3 * (1 + cyc.residual.scale)


def test_resolved_excludes_singular_loci():
    m = zoo.gauge_sym3_resolved()
    spec = m.sample_spec(n_points=30, seed=7)
    for p in spec.points():
        a, b, _ = p
        assert abs(a - b) >= 0.15 and abs(a + b) >= 0.15
        assert abs(a) >= 0.15 and abs(b) >= 0.15


# -- Wess-Zumino modes -----------------------------------------------------------


def test_wz_zero_mode_plain_n4():
    m = zoo.wz_modes([(0, 0, 0)])
    spec = m.sample_spec(n_points=6, seed=8)
    h = m.op("H_direct")
    for a in (1, 2):
        for b in (1, 2):
            lhs = anticommutator(m.op(f"Q{a}"), m.op(f"Q{b}bar"))
            if a == b:
                lhs = lhs - 2.0 * h
            assert_zero(lhs, spec)


def test_wz_single_mode_eigenvalue_machinery():
    m = zoo.wz_modes([(1, 0, 0)])
    spec = m.sample_spec(n_points=8, seed=9)
    qn = m.op("Qcal_m100")
    assert_zero(compose(qn, qn), spec)
    assert_zero(anticommutator(qn, naive_dagger(qn)) - 2.0 * m.op("H_m100"),
                spec)


def test_wz_single_mode_central_algebra():
    m = zoo.wz_modes([(1, 0, 0)])
    reports = verify.run_check("central", m,
                               m.sample_spec(n_points=8, seed=10))
    assert all(r.verdict == "pass" for r in reports), \
        [r.line() for r in reports if r.verdict != "pass"]


def test_wz_three_modes_full_suite():
    m = zoo.wz_modes([(1, 0, 0), (0, 1, 0), (1, 1, 1)])
    spec = m.sample_spec(n_points=4, seed=11)
    reports = (verify.run_check("central", m, spec)
               + verify.run_check("wz_similarity", m, spec))
    assert all(r.verdict == "pass" for r in reports), \
        [r.line() for r in reports if r.verdict != "pass"]


def test_wz_similarity_matches_eigen_charges_exactly():
    m = zoo.wz_modes([(1, 0, 0), (0, 1, 0)])
    spec = m.sample_spec(n_points=6, seed=12)
    wf = fexpr(m.meta["superpotential"], len(m.coords), "W")
    q_sim = similarity(m.op("Qcal0"), wf)
    res = assert_zero(m.op("Qcal") - q_sim, spec, tol=1e-10)
    assert res.max_abs < 1e-10


def test_wz_mode_cap():
    with pytest.raises(ValueError):
        zoo.wz_modes([(1, 0, 0)] * 5)
