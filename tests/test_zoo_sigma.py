"""Dolbeault, de Rham, quasicomplex models and torsion rotations."""

import numpy as np
import pytest

from sqmzoo import zoo
from sqmzoo.clifford import bilinear, complex_fermions
from sqmzoo.diffop import anticommutator, compose, is_zero, similarity
from sqmzoo.fields import fdet, fidentity, flog, fscale, ftranspose

OMEGA_2D = [["0.2*sin(x1)", "0.1*(x2 + y1)"],
            ["0.1*x1*y2", "0.15*(x2^2 - y2)"]]


def number_projectors(rep):
    """Projectors onto fermion-number eigenspaces (diagonal in this basis)."""
    num = np.round(np.diag(rep.number_op()).real).astype(int)
    return {n: np.diag((num == n).astype(np.complex128))
            for n in sorted(set(num))}


def grade_decompose(rep, matrix):
    """Split a Fock matrix by fermion-number transfer g: M = sum_g M_g,
    with M_g mapping number-n states to number-(n+g) states."""
    projs = number_projectors(rep)
    out = {}
    for n_out, p_out in projs.items():
        for n_in, p_in in projs.items():
            block = p_out @ matrix @ p_in
            if np.abs(block).max() > 0:
                out.setdefault(n_out - n_in, np.zeros_like(matrix))
                out[n_out - n_in] += block
    return out


def test_grade_decompose_roundtrip():
    rep = complex_fermions(2)
    m = rep.psi[0] + rep.psi[0] @ rep.psibar[1] + rep.psibar[0] @ rep.psibar[1]
    grades = grade_decompose(rep, m)
    assert set(grades) == {1, 0, -2}
    assert np.abs(sum(grades.values()) - m).max() < 1e-15


def assert_zero(op, spec, tol=1e-9):
    flag, res = is_zero(op, spec, tol)
    assert flag, f"residual {res}"
    return res


def test_dolbeault_zero_omega_is_free():
    m = zoo.dolbeault([["0"]], d=1)
    free = zoo.free_complex(1)
    spec = m.sample_spec(n_points=4, seed=1)
    assert_zero(m.op("Q") - free.op("Q"), spec)
    assert_zero(m.op("Qbar") - free.op("Qbar"), spec)


def test_dolbeault_scalar_metric():
    m = zoo.dolbeault([["0.25*(x1^2 + y1^2)"]], d=1)
    spec = m.sample_spec(n_points=8, seed=2)
    assert_zero(compose(m.op("Q"), m.op("Q")), spec)
    assert_zero(compose(m.op("Qbar"), m.op("Qbar")), spec)
    assert_zero(anticommutator(m.op("Qbar"), m.op("Q")) - 2.0 * m.op("H"), spec)
    # h = e^{2u} for scalar omega = u
    p = spec.points()[0]
    u = 0.25 * (p[0] ** 2 + p[1] ** 2)
    h = m.meta["hermitian_metric"].eval_jet(p)[0, 0, 0]
    assert h == pytest.approx(np.exp(2 * u), rel=1e-12)


def test_geometric_charge_needs_a_spin_connection():
    # one connection per frame column, or there is nothing to build Q from
    m = zoo.free_real(2)
    with pytest.raises(ValueError, match="2 columns but 0 connections"):
        zoo.frame_charge(m.coords, m.rep, fidentity(2, 2), [])


def test_dolbeault_nondiagonal_with_twist():
    m = zoo.dolbeault(OMEGA_2D, d=2, W="0.3*x1*y1 + 0.1*x2^3")
    spec = m.sample_spec(n_points=8, seed=3)
    assert_zero(compose(m.op("Q"), m.op("Q")), spec)
    assert_zero(compose(m.op("Qbar"), m.op("Qbar")), spec)
    assert_zero(anticommutator(m.op("Qbar"), m.op("Q")) - 2.0 * m.op("H"), spec)


def test_dolbeault_antiholomorphic_twist_statement():
    """Twisting with G = -ln(det h)/2 equals rotating the free charge with
    exp(-omega_ab psibar_b psi_a) (for omega with real trace)."""
    om_entries = [["0.3*sin(x1)", "0.15*i"], ["-0.15*i", "0.2*y2^2"]]
    coords = ("x1", "x2", "y1", "y2")
    m = zoo.dolbeault(om_entries, d=2)
    om = zoo._matrix_field(om_entries, coords)
    h = m.meta["hermitian_metric"]
    g_field = fscale(-0.5, flog(fdet(h)))
    q_twisted = similarity(m.op("Q"), g_field)
    free = zoo.free_complex(2)
    r_anti = bilinear(m.rep, fscale(-1.0, ftranspose(om)), "bp")
    q_rot = similarity(free.op("Q"), r_anti)
    spec = m.sample_spec(n_points=6, seed=4)
    assert_zero(q_twisted - q_rot, spec)


@pytest.mark.parametrize("D,omega", [
    (2, [["0.3*sin(x1)", "0.1*x1*x2"], ["0.1*x1*x2", "0.2*x2^2"]]),
    (4, None),
])
def test_de_rham_similarity_equals_spin_connection(D, omega):
    if omega is None:
        omega = [["0.2*sin(x1)" if i == j else "0.05*x%d*x%d" % (i + 1, j + 1)
                  for j in range(D)] for i in range(D)]
        # symmetrise the textual matrix
        for i in range(D):
            for j in range(i):
                omega[i][j] = omega[j][i]
    m = zoo.de_rham(omega, D=D)
    spec = m.sample_spec(n_points=5, seed=5)
    assert_zero(m.op("Q") - m.op("Q_geometric"), spec)
    assert_zero(m.op("Qbar") - m.op("Qbar_geometric"), spec)
    assert_zero(compose(m.op("Q"), m.op("Q")), spec)
    assert_zero(compose(m.op("Qbar"), m.op("Qbar")), spec)
    assert_zero(anticommutator(m.op("Qbar"), m.op("Q")) - 2.0 * m.op("H"), spec)


def test_de_rham_zero_omega_free():
    m = zoo.de_rham([["0", "0"], ["0", "0"]], D=2)
    free = zoo.free_real(2)
    spec = m.sample_spec(n_points=4, seed=6)
    assert_zero(m.op("Q") - free.op("Q"), spec)


def test_de_rham_with_potential_and_torsion_nilpotent():
    m = zoo.de_rham([["0.2*x1", "0"], ["0", "0.1*x2^2"]], D=2,
                    W="0.3*x1*x2", torsion=[["0", "x1"], ["-1*x1", "0"]])
    spec = m.sample_spec(n_points=6, seed=7)
    assert_zero(compose(m.op("Q"), m.op("Q")), spec)
    assert_zero(compose(m.op("Qbar"), m.op("Qbar")), spec)


def test_quasicomplex_real_omega_degenerates_to_de_rham():
    om = [["0.3*sin(x1)", "0.1*x1*x2"], ["0.1*x1*x2", "0.2*x2^2"]]
    mq = zoo.quasicomplex(om, D=2)
    md = zoo.de_rham(om, D=2)
    spec = mq.sample_spec(n_points=5, seed=8)
    assert_zero(mq.op("Q") - md.op("Q"), spec)


def test_quasicomplex_hermitian_n2_and_paths():
    om = [["0.3*sin(x1)", "0.15*i"], ["-0.15*i", "0.2*x2^2"]]
    m = zoo.quasicomplex(om, D=2)
    spec = m.sample_spec(n_points=8, seed=9)
    assert_zero(m.op("Q") - m.op("Q_direct"), spec)
    assert_zero(compose(m.op("Q"), m.op("Q")), spec)
    assert_zero(compose(m.op("Qbar"), m.op("Qbar")), spec)
    assert_zero(anticommutator(m.op("Qbar"), m.op("Q")) - 2.0 * m.op("H"), spec)


def test_rhombus_reduction_commutes_with_similarity():
    """Fig.-1 rhombus: reduce(similarity(free)) == similarity(reduce(free))."""
    om = [["0.3*sin(x1)", "0.15*i"], ["-0.15*i", "0.2*x2^2"]]
    m = zoo.quasicomplex(om, D=2)
    spec = m.sample_spec(n_points=8, seed=10)
    res = assert_zero(m.op("Q") - m.op("Q_reduced"), spec)
    assert res.max_abs < 1e-9 * (1 + res.scale)


def test_torsion_rotate_holomorphic_keeps_n2():
    base = zoo.de_rham([["0.2*x1", "0"], ["0", "0.1*x2^2"]], D=2)
    m = zoo.torsion_rotate(base, [["0", "x1"], ["-1*x1", "0"]], "holomorphic")
    spec = m.sample_spec(n_points=6, seed=11)
    assert_zero(compose(m.op("Q"), m.op("Q")), spec)
    assert_zero(compose(m.op("Qbar"), m.op("Qbar")), spec)
    assert_zero(anticommutator(m.op("Qbar"), m.op("Q")) - 2.0 * m.op("H"), spec)


def test_torsion_rotate_identity_for_zero_b():
    base = zoo.free_complex(2)
    m = zoo.torsion_rotate(base, [["0", "0"], ["0", "0"]], "holomorphic")
    spec = m.sample_spec(n_points=4, seed=12)
    assert_zero(m.op("Q") - base.op("Q"), spec)


def test_antiholomorphic_rotation_structure():
    """The rotated charge keeps N=2 and carries psibar-momentum terms."""
    base = zoo.free_complex(2)
    m = zoo.torsion_rotate(base, [["0", "0.4"], ["-0.4", "0"]],
                           "antiholomorphic")
    spec = m.sample_spec(n_points=4, seed=13)
    assert_zero(compose(m.op("Q"), m.op("Q")), spec)
    assert_zero(anticommutator(m.op("Qbar"), m.op("Q")) - 2.0 * m.op("H"), spec)
    p = spec.points()[0]
    found = False
    for alpha, f in m.op("Q").terms.items():
        if sum(alpha) != 1:
            continue
        val = f.eval_jet(p)[:, :, 0]
        grades = grade_decompose(m.rep, val)
        if -1 in grades and np.abs(grades[-1]).max() > 1e-10:
            found = True
    assert found
