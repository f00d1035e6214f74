"""Jet evaluation against central finite differences, and matrix series."""

import numpy as np
import pytest

from sqmzoo.expr import parse
from sqmzoo.fields import (evaluate, fconj_t, fconst, fderiv, fdet, fexp,
                           fexpr, fgrid, finv, fmatmul, fpow, fscale, fsum)
from sqmzoo.jets import jet_space

STEP = 1e-5
REL = 1e-6


def fd_first(field, point, i):
    p_plus = list(point)
    p_minus = list(point)
    p_plus[i] += STEP
    p_minus[i] -= STEP
    a = evaluate(field, tuple(p_plus))[:, :, 0]
    b = evaluate(field, tuple(p_minus))[:, :, 0]
    return (a - b) / (2 * STEP)


def fd_second(field, point, i, j):
    if i == j:
        p_plus, p_0, p_minus = list(point), list(point), list(point)
        p_plus[i] += STEP
        p_minus[i] -= STEP
        a = evaluate(field, tuple(p_plus))[:, :, 0]
        b = evaluate(field, tuple(p_0))[:, :, 0]
        c = evaluate(field, tuple(p_minus))[:, :, 0]
        return (a - 2 * b + c) / STEP ** 2
    acc = 0
    for si in (1, -1):
        for sj in (1, -1):
            p = list(point)
            p[i] += si * STEP
            p[j] += sj * STEP
            acc = acc + si * sj * evaluate(field, tuple(p))[:, :, 0]
    return acc / (4 * STEP ** 2)


def assert_jets_match_fd(field, points, check_second=True):
    n = field.ncoords
    for point in points:
        jet = evaluate(field, point, order=2 if check_second else 1)
        space = jet_space(n, 2 if check_second else 1)
        for i in range(n):
            unit = tuple(1 if k == i else 0 for k in range(n))
            exact = jet[:, :, space.index[unit]]
            approx = fd_first(field, point, i)
            scale = max(1.0, float(np.abs(exact).max()))
            assert np.abs(exact - approx).max() < REL * scale
        if not check_second:
            continue
        for i in range(n):
            for j in range(i, n):
                idx = tuple((1 if k == i else 0) + (1 if k == j else 0)
                            for k in range(n))
                exact = jet[:, :, space.index[idx]]
                approx = fd_second(field, point, i, j)
                scale = max(1.0, float(np.abs(exact).max()))
                # second-order central differences are only good to ~1e-7
                assert np.abs(exact - approx).max() < 200 * REL * scale


def _rng_points(n, count, lo=-0.9, hi=0.9, seed=0):
    rng = np.random.default_rng(seed)
    return [tuple(rng.uniform(lo, hi, n)) for _ in range(count)]


def test_primitive_fields_match_fd():
    coords = ["x", "y"]
    for text in ("x^3 - x", "exp(x*y)", "sin(x)*cos(y)", "1/(x^2+1)",
                 "sqrt(x+2)", "log(x+2)", "(x+y)^(3/2) + 4"):
        f = fexpr(parse(text, coords), 2)
        assert_jets_match_fd(f, _rng_points(2, 20))


def test_composite_matrix_fields_match_fd():
    coords = ["x", "y"]
    a = fexpr(parse("0.3*sin(x)", coords), 2)
    b = fexpr(parse("0.2*x*y", coords), 2)
    c = fexpr(parse("0.1*(x^2 - y)", coords), 2)
    m = fgrid([[a, b], [b, c]])
    exp_m = fexp(m)
    inv_m = finv(fsum([exp_m, fconst(np.eye(2) * 2.0, 2)]))
    det_m = fdet(exp_m)
    prod = fmatmul(exp_m, fconj_t(exp_m))
    for field in (m, exp_m, inv_m, det_m, prod, fpow(det_m, -1, 2)):
        assert_jets_match_fd(field, _rng_points(2, 6, seed=3))


def test_constant_field_all_partials_zero():
    f = fconst(np.diag([1.0, 2.0]), 3)
    jet = evaluate(f, (0.3, -0.2, 0.9), order=3)
    assert np.abs(jet[:, :, 1:]).max() == 0.0


def test_mixed_partial_xy():
    f = fexpr(parse("x*y", ["x", "y"]), 2)
    space = jet_space(2, 2)
    jet = evaluate(f, (1.7, -2.2), order=2)
    assert jet[0, 0, space.index[(1, 1)]] == pytest.approx(1.0)
    assert jet[0, 0, space.index[(2, 0)]] == pytest.approx(0.0)


def test_jet_symmetry_of_mixed_partials():
    # d_x d_y == d_y d_x on a composite: indices are canonical multi-indices
    f = fexpr(parse("exp(x*y) * sin(x)", ["x", "y"]), 2)
    g1 = fderiv(fderiv(f, (1, 0)), (0, 1))
    g2 = fderiv(fderiv(f, (0, 1)), (1, 0))
    p = (0.4, 0.8)
    assert np.allclose(evaluate(g1, p), evaluate(g2, p), atol=1e-13)


# -- matrix exponential ------------------------------------------------------


def test_matexp_zero_is_identity():
    z = fconst(np.zeros((3, 3)), 1)
    # fexp folds the zero field; evaluate through the generic node too
    from sqmzoo.fields import MatExpField
    val = evaluate(MatExpField(z), (0.1,))[:, :, 0]
    assert np.allclose(val, np.eye(3), atol=1e-15)


def test_matexp_diagonal():
    d = fgrid([[fexpr(parse("x", ["x", "y"]), 2), fexpr(parse("0", ["x", "y"]), 2)],
               [fexpr(parse("0", ["x", "y"]), 2), fexpr(parse("y", ["x", "y"]), 2)]])
    val = evaluate(fexp(d), (0.3, -1.2))[:, :, 0]
    assert np.allclose(np.diag(val), [np.exp(0.3), np.exp(-1.2)], rtol=1e-14)


def test_matexp_inverse_identity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        w = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        w *= 2.0 / max(1.0, np.linalg.norm(w))
        om = fconst(w, 1)
        from sqmzoo.fields import MatExpField
        prod = fmatmul(MatExpField(om), MatExpField(fscale(-1.0, om)))
        val = evaluate(prod, (0.0,))[:, :, 0]
        assert np.abs(val - np.eye(3)).max() < 1e-12


def test_matexp_commuting_factorisation():
    # A = a(x) M, B = b(x) M commute pointwise; exp(A+B) = exp(A) exp(B)
    coords = ["x"]
    m = np.array([[0.3, 1.0], [0.2, -0.4]])
    a = fexpr(parse("sin(x)", coords), 1)
    b = fexpr(parse("0.5*x^2", coords), 1)
    from sqmzoo.fields import ScalarMulField
    A = ScalarMulField(a, fconst(m, 1))
    B = ScalarMulField(b, fconst(m, 1))
    lhs = fexp(fsum([A, B]))
    rhs = fmatmul(fexp(A), fexp(B))
    for x in (0.0, 0.7, -1.1):
        va = evaluate(lhs, (x,))[:, :, 0]
        vb = evaluate(rhs, (x,))[:, :, 0]
        assert np.abs(va - vb).max() < 1e-10


def test_matexp_jets_vs_fd_spec_example():
    # M(x) = [[x, 1], [0, -x]]: relative error < 1e-6 against central FD
    coords = ["x"]
    m = fgrid([[fexpr(parse("x", coords), 1), fexpr(parse("1", coords), 1)],
               [fexpr(parse("0", coords), 1), fexpr(parse("-x", coords), 1)]])
    e = fexp(m)
    point = (0.3,)
    jet = evaluate(e, point, order=1)
    approx = fd_first(e, point, 0)
    exact = jet[:, :, 1]
    assert np.abs(exact - approx).max() / np.abs(exact).max() < 1e-6


def test_scipy_expm_oracle():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11)
    w = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    from sqmzoo.fields import MatExpField
    val = evaluate(MatExpField(fconst(w, 1)), (0.0,))[:, :, 0]
    assert np.abs(val - scipy_linalg.expm(w)).max() < 1e-12


def test_inverse_and_det_values():
    rng = np.random.default_rng(7)
    w = rng.uniform(-1, 1, (4, 4)) + np.eye(4) * 3
    inv = evaluate(finv(fconst(w, 1)), (0.5,))[:, :, 0]
    assert np.abs(inv - np.linalg.inv(w)).max() < 1e-12
    det_f = fdet(fconst(w, 1))
    # fdet folds constants; check value
    assert evaluate(det_f, (0.5,))[0, 0, 0] == pytest.approx(np.linalg.det(w))


def test_order_cap_enforced():
    from sqmzoo.fields import OrderOverflow
    f = fexpr(parse("x^5", ["x"]), 1)
    g = fderiv(f, (3,))
    with pytest.raises(OrderOverflow):
        evaluate(g, (0.5,), order=2)


def test_matexp_nonconvergence_raises():
    # a derivative part of 1e15 makes the order-2 terms of the scaled
    # series shrink only like 1e30 / k!, still above 1e-18 at 40 terms
    from sqmzoo.jets import SeriesError
    space = jet_space(1, 2)
    a = space.const([[0.9]])
    a[0, 0, 1] = 1e15
    with pytest.raises(SeriesError, match="40 terms"):
        space.matrix_exp(a)
    a[0, 0, 1] = 1.0
    out = space.matrix_exp(a)
    assert out[0, 0, 0] == pytest.approx(np.exp(0.9), rel=1e-14)
    assert out[0, 0, 1] == pytest.approx(np.exp(0.9), rel=1e-14)


# -- term-sparse products against the per-pair formula ---------------------


def _ref_mul(space, a, b):
    """Pair by pair in table order, added into zeros: the dense formula."""
    out = np.zeros((a.shape[0], b.shape[1], space.nterms), dtype=np.complex128)
    for i, j, k, w in zip(space._ii, space._jj, space._kk, space._ww):
        out[:, :, k] += np.matmul(a[:, :, i], b[:, :, j]) * w
    return out


def _ref_scal_mul(space, s, a):
    out = np.zeros(a.shape, dtype=np.complex128)
    for i, j, k, w in zip(space._ii, space._jj, space._kk, space._ww):
        out[:, :, k] += (s[0, 0, i] * w) * a[:, :, j]
    return out


def _sparse_jets(space, rows, cols, seed):
    """Random jets whose dead terms are exactly zero: all terms live, a
    random half, the value only, one random term, and none."""
    rng = np.random.default_rng(seed)
    masks = [np.ones(space.nterms, bool), rng.random(space.nterms) < 0.5,
             np.arange(space.nterms) == 0,
             np.arange(space.nterms) == rng.integers(space.nterms),
             np.zeros(space.nterms, bool)]
    shape = (rows, cols, space.nterms)
    for live in masks:
        jet = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        jet[:, :, ~live] = 0.0
        yield jet


KERNEL_CASES = pytest.mark.parametrize(
    "order, dim", [(k, d) for k in range(5) for d in (1, 4, 16)],
    ids=[f"K{k}-{d}x{d}" for k in range(5) for d in (1, 4, 16)])


@KERNEL_CASES
def test_mul_bit_identical_to_pair_formula(order, dim):
    space = jet_space(3, order)
    for n, a in enumerate(_sparse_jets(space, dim, dim, seed=order)):
        for b in _sparse_jets(space, dim, dim, seed=10 + n):
            assert np.array_equal(space.mul(a, b), _ref_mul(space, a, b))


@KERNEL_CASES
def test_scal_mul_bit_identical_to_pair_formula(order, dim):
    space = jet_space(3, order)
    for n, s in enumerate(_sparse_jets(space, 1, 1, seed=order)):
        for a in _sparse_jets(space, dim, dim, seed=10 + n):
            assert np.array_equal(space.scal_mul(s, a),
                                  _ref_scal_mul(space, s, a))
