import itertools

import numpy as np
import pytest

from sqmzoo.clifford import (FermionBilinearField, FermionLinearField,
                             bilinear, complex_fermions, const_tensor,
                             grade_decompose, hermitian_fermions, realify)
from sqmzoo.fields import _At, evaluate, fconst, fgrid, fexpr
from sqmzoo.expr import parse


def anticomm(a, b):
    return a @ b + b @ a


def test_one_representation_per_system():
    assert complex_fermions(2) is complex_fermions(2)
    assert complex_fermions(d=2, color_dim=1) is complex_fermions(2)
    assert complex_fermions(2, color_dim=2) is not complex_fermions(2)
    assert hermitian_fermions(D=4) is hermitian_fermions(4)
    assert realify(rep=complex_fermions(2)) is realify(complex_fermions(2))
    rep = complex_fermions(2, color_dim=2)
    for op in (rep.psi[0], rep.psibar[1], rep.color[2]):
        with pytest.raises(ValueError):
            op[0, 0] = 1.0


def test_single_fermion_matrices():
    rep = complex_fermions(1)
    assert np.array_equal(rep.psi[0], np.array([[0, 0], [1, 0]]))
    assert np.array_equal(rep.psibar[0], np.array([[0, 1], [0, 0]]))
    assert np.array_equal(anticomm(rep.psi[0], rep.psibar[0]), np.eye(2))


@pytest.mark.parametrize("d", [2, 3])
def test_car_relations_exact(d):
    rep = complex_fermions(d)
    for a in range(d):
        for b in range(d):
            assert np.abs(anticomm(rep.psi[a], rep.psi[b])).max() == 0.0
            target = np.eye(rep.dim) if a == b else 0.0
            assert np.array_equal(anticomm(rep.psi[a], rep.psibar[b]),
                                  np.eye(rep.dim) * (1.0 if a == b else 0.0))
            assert np.array_equal(rep.psibar[a], rep.psi[a].conj().T)


def test_color_factor_commutes():
    rep = complex_fermions(3, color_dim=2)
    assert rep.dim == 16
    for t in rep.color:
        for psi in rep.psi:
            assert np.abs(t @ psi - psi @ t).max() == 0.0
    # color generators close as su(2)
    t1, t2, t3 = rep.color
    assert np.abs(t1 @ t2 - t2 @ t1 - 1j * t3).max() < 1e-15


def test_dimension_cap():
    with pytest.raises(ValueError):
        complex_fermions(13)
    with pytest.raises(ValueError):
        hermitian_fermions(7)
    with pytest.raises(ValueError):
        hermitian_fermions(18)


def test_hermitian_d2_pauli_basis():
    rep = hermitian_fermions(2)
    s1 = np.array([[0, 1], [1, 0]]) / np.sqrt(2)
    s2 = np.array([[0, -1j], [1j, 0]]) / np.sqrt(2)
    assert np.abs(rep.psi[0] - s1).max() == 0.0
    assert np.abs(rep.psi[1] - s2).max() == 0.0


@pytest.mark.parametrize("D", [4, 8])
def test_hermitian_clifford_relations(D):
    rep = hermitian_fermions(D)
    assert rep.dim == 2 ** (D // 2)
    for a in range(D):
        assert np.abs(rep.psi[a] - rep.psi[a].conj().T).max() == 0.0
        for b in range(D):
            target = np.eye(rep.dim) * (1.0 if a == b else 0.0)
            assert np.abs(anticomm(rep.psi[a], rep.psi[b]) - target).max() < 1e-15


def test_realify_relations():
    rep = realify(complex_fermions(2))
    assert rep.kind == "hermitian"
    assert rep.n == 4
    for a in range(4):
        for b in range(4):
            target = np.eye(rep.dim) * (1.0 if a == b else 0.0)
            assert np.abs(anticomm(rep.psi[a], rep.psi[b]) - target).max() < 1e-14


def test_realify_preserves_parity():
    crep = complex_fermions(2)
    hrep = realify(crep)
    assert np.abs(crep.parity() - hrep.parity()).max() < 1e-12


def test_realify_rejects_hermitian_input():
    with pytest.raises(ValueError):
        realify(hermitian_fermions(2))


# -- constant tensors ---------------------------------------------------------


def test_thooft_entries_and_self_duality():
    eta = const_tensor("eta")
    etab = const_tensor("eta_bar")
    eps4 = const_tensor("epsilon4")
    # entry conventions: eta^1_23 = 1, eta^1_14 = 1, eta^1_41 = -1
    assert eta[0, 1, 2] == 1.0
    assert eta[0, 0, 3] == 1.0
    assert eta[0, 3, 0] == -1.0
    for a in range(3):
        dual = 0.5 * np.einsum("mnrs,rs->mn", eps4, eta[a])
        assert np.abs(dual - eta[a]).max() == 0.0
        dual_bar = 0.5 * np.einsum("mnrs,rs->mn", eps4, etab[a])
        assert np.abs(dual_bar + etab[a]).max() == 0.0


def test_quaternion_algebra_of_canonical_structures():
    """The canonical structures -eta^a satisfy I^a I^b = -d + eps I^c; the
    raw 't Hooft matrices satisfy the same algebra with flipped eps."""
    from sqmzoo.geometry import canonical_triple
    eps3 = const_tensor("epsilon3")
    for variant in ("eta", "eta_bar"):
        canon = canonical_triple(4, variant)
        raw = [-c for c in canon]
        for a in range(3):
            for b in range(3):
                expect = -np.eye(4) * (a == b) + sum(
                    eps3[a, b, c] * canon[c] for c in range(3))
                assert np.abs(canon[a] @ canon[b] - expect).max() == 0.0
                expect_raw = -np.eye(4) * (a == b) - sum(
                    eps3[a, b, c] * raw[c] for c in range(3))
                assert np.abs(raw[a] @ raw[b] - expect_raw).max() == 0.0


def test_gamma7_block_pattern_and_properties():
    gam = const_tensor("gamma7")
    eta = const_tensor("eta")
    etab = const_tensor("eta_bar")
    assert gam.shape == (7, 8, 8)
    # block pattern: diag(-etabar, etabar), offdiag(eta, eta), offdiag(1, -1)
    for a in range(3):
        assert np.array_equal(gam[a][:4, :4], -etab[a])
        assert np.array_equal(gam[a][4:, 4:], etab[a])
        assert np.array_equal(gam[3 + a][:4, 4:], eta[a])
        assert np.array_equal(gam[3 + a][4:, :4], eta[a])
    assert np.array_equal(gam[6][:4, 4:], np.eye(4))
    assert np.array_equal(gam[6][4:, :4], -np.eye(4))
    for a in range(7):
        assert np.abs(gam[a].imag).max() == 0.0
        assert np.array_equal(gam[a].T, -gam[a])
        assert np.array_equal(gam[a] @ gam[a], -np.eye(8))
    for a in range(7):
        for b in range(a + 1, 7):
            assert np.abs(anticomm(gam[a], gam[b])).max() == 0.0


def test_no_gamma_triple_is_quaternionic():
    """All 35 triples, minimised over sign assignments, stay far from the
    quaternion algebra (residual >= 0.5)."""
    gam = const_tensor("gamma7")
    eps3 = const_tensor("epsilon3")
    overall = np.inf
    for trio_idx in itertools.combinations(range(7), 3):
        best = np.inf
        for signs in itertools.product((1, -1), repeat=3):
            tri = [signs[i] * gam[trio_idx[i]] for i in range(3)]
            resid = 0.0
            for a in range(3):
                for b in range(3):
                    m = tri[a] @ tri[b] + (1.0 if a == b else 0.0) * np.eye(8)
                    for c in range(3):
                        m = m - eps3[a, b, c] * tri[c]
                    resid = max(resid, float(np.abs(m).max()))
            best = min(best, resid)
        overall = min(overall, best)
    assert overall >= 0.5


def test_sigma_conventions():
    se = const_tensor("sigma_euclid")
    sd = const_tensor("sigma_euclid_dag")
    sm = const_tensor("sigma_minkowski")
    assert np.array_equal(se[3], 1j * np.eye(2))
    assert np.array_equal(sd[3], -1j * np.eye(2))
    assert np.array_equal(sm[0], np.eye(2))
    for mu in range(3):
        assert np.array_equal(se[mu], se[mu].conj().T)
    # sigma_mu sigma_nu^+ + (mu <-> nu) = 2 delta_mu,nu
    for mu in range(4):
        for nu in range(4):
            s = se[mu] @ sd[nu] + se[nu] @ sd[mu]
            assert np.abs(s - 2 * (mu == nu) * np.eye(2)).max() < 1e-15


def test_epsilon():
    eps = const_tensor("epsilon")
    assert np.array_equal(eps, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    with pytest.raises(KeyError):
        const_tensor("nope")


# -- bilinears ----------------------------------------------------------------


def test_bilinear_identity_is_number_operator():
    rep = complex_fermions(1)
    f = bilinear(rep, fconst(np.eye(1), 1), "pb")
    val = evaluate(f, (0.0,))[:, :, 0]
    assert np.array_equal(val, np.diag([0.0, 1.0]))


def test_bilinear_psi_psi_nilpotent_cube():
    rep = complex_fermions(2)
    m = np.array([[0.0, 1.3], [-1.3, 0.0]])
    b = bilinear(rep, fconst(m, 1), "pp")
    val = evaluate(b, (0.0,))[:, :, 0]
    assert np.abs(val @ val @ val).max() == 0.0   # Grassmann degree count


def test_bilinear_hermiticity():
    rep = complex_fermions(2)
    rng = np.random.default_rng(3)
    h = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    h = h + h.conj().T
    val = evaluate(bilinear(rep, fconst(h, 1), "pb"), (0.0,))[:, :, 0]
    assert np.abs(val - val.conj().T).max() < 1e-14


def test_bilinear_field_coefficients():
    rep = complex_fermions(2)
    coords = ["x", "y"]
    grid = fgrid([[fexpr(parse("x", coords), 2), fexpr(parse("x*y", coords), 2)],
                  [fexpr(parse("0", coords), 2), fexpr(parse("y", coords), 2)]])
    b = bilinear(rep, grid, "pb")
    val = evaluate(b, (0.5, 2.0))[:, :, 0]
    expect = (0.5 * rep.psi[0] @ rep.psibar[0]
              + 1.0 * rep.psi[0] @ rep.psibar[1]
              + 2.0 * rep.psi[1] @ rep.psibar[1])
    assert np.abs(val - expect).max() < 1e-14


def test_bilinear_shape_mismatch():
    rep = complex_fermions(2)
    with pytest.raises(ValueError):
        bilinear(rep, fconst(np.eye(3), 1), "pb")


def test_grade_decompose_roundtrip():
    rep = complex_fermions(2)
    m = rep.psi[0] + rep.psi[0] @ rep.psibar[1] + rep.psibar[0] @ rep.psibar[1]
    grades = grade_decompose(rep, m)
    assert set(grades) == {1, 0, -2}
    assert np.abs(sum(grades.values()) - m).max() < 1e-15


def _same_bits(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("rep, kind", [
    (complex_fermions(2), "pb"), (complex_fermions(4), "pb"),
    (complex_fermions(4), "bb"), (hermitian_fermions(4), "pp"),
    (complex_fermions(6), "pb")],
    ids=["c2-pb", "c4-pb", "c4-bb", "h4-pp", "c6-pb"])
def test_fermion_fields_equal_the_term_last_einsum(rep, kind):
    """The fermion fields' einsums over term-major jets, (T, P*rows,
    cols), equal bit for bit the term-last einsums over (P*rows, cols, T)
    that they replaced, whole jets and prefixes alike: numpy sums each
    entry over the same fermion pairs in the same order."""
    nf = rep.n
    names = ("x", "y")
    x = fexpr(parse("x", names), 2)
    matrix = fgrid([[x] * nf for _ in range(nf)])
    row = fgrid([[x] * nf])
    bil = FermionBilinearField(rep, matrix, kind)
    lin = FermionLinearField(rep, row, "psi")
    rng = np.random.default_rng(nf)
    for T, P in [(1, 1), (6, 2), (15, 3), (35, 2)]:
        at = _At(np.zeros((P, 2)))
        for field, einsum, shape in [
                (bil, "pabt,abrc->prct", (P * nf, nf, T)),
                (lin, "pat,arc->prct", (P, nf, T))]:
            old = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            old[..., 1::3] = 0.0
            for k in sorted({T, max(1, T // 2)}):
                term_last = old[..., :k]
                operand = (term_last.reshape(P, nf, nf, k)
                           if field is bil else term_last)
                want = np.einsum(einsum, operand,
                                 bil._pairs if field is bil else lin._ops)
                want = want.reshape(P * rep.dim, rep.dim, k)
                new = np.ascontiguousarray(np.moveaxis(old, -1, 0))[:k]
                got = field._compute(at, 0, [new])
                assert _same_bits(got, np.moveaxis(want, -1, 0)), (T, P, k)
