"""Jet evaluation against central finite differences, and matrix series."""

import functools
import math

import numpy as np
import pytest

from sqmzoo.expr import parse
from sqmzoo.fields import (fconst, fdet, fexp, fexpr, fgrid, finv, fmatmul,
                           fpow, fscale, fsum)
from sqmzoo.jets import (MAX_ORDER, jet_space, join_points, monomial,
                         split_points)

STEP = 1e-5
REL = 1e-6


def fd_first(field, point, i):
    p_plus = list(point)
    p_minus = list(point)
    p_plus[i] += STEP
    p_minus[i] -= STEP
    a = field.eval_jet(tuple(p_plus))[:, :, 0]
    b = field.eval_jet(tuple(p_minus))[:, :, 0]
    return (a - b) / (2 * STEP)


def fd_second(field, point, i, j):
    if i == j:
        p_plus, p_0, p_minus = list(point), list(point), list(point)
        p_plus[i] += STEP
        p_minus[i] -= STEP
        a = field.eval_jet(tuple(p_plus))[:, :, 0]
        b = field.eval_jet(tuple(p_0))[:, :, 0]
        c = field.eval_jet(tuple(p_minus))[:, :, 0]
        return (a - 2 * b + c) / STEP ** 2
    acc = 0
    for si in (1, -1):
        for sj in (1, -1):
            p = list(point)
            p[i] += si * STEP
            p[j] += sj * STEP
            acc = acc + si * sj * field.eval_jet(tuple(p))[:, :, 0]
    return acc / (4 * STEP ** 2)


def assert_jets_match_fd(field, points, check_second=True):
    n = field.ncoords
    for point in points:
        jet = field.eval_jet(point, order=2 if check_second else 1)
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
    prod = fmatmul(exp_m, exp_m.conj_t())
    for field in (m, exp_m, inv_m, det_m, prod, fpow(det_m, -1, 2)):
        assert_jets_match_fd(field, _rng_points(2, 6, seed=3))


def test_constant_field_all_partials_zero():
    f = fconst(np.diag([1.0, 2.0]), 3)
    jet = f.eval_jet((0.3, -0.2, 0.9), order=3)
    assert np.abs(jet[:, :, 1:]).max() == 0.0


def test_mixed_partial_xy():
    f = fexpr(parse("x*y", ["x", "y"]), 2)
    space = jet_space(2, 2)
    jet = f.eval_jet((1.7, -2.2), order=2)
    assert jet[0, 0, space.index[(1, 1)]] == pytest.approx(1.0)
    assert jet[0, 0, space.index[(2, 0)]] == pytest.approx(0.0)


def test_jet_symmetry_of_mixed_partials():
    # d_x d_y == d_y d_x on a composite: indices are canonical multi-indices
    f = fexpr(parse("exp(x*y) * sin(x)", ["x", "y"]), 2)
    g1 = f.deriv((1, 0)).deriv((0, 1))
    g2 = f.deriv((0, 1)).deriv((1, 0))
    p = (0.4, 0.8)
    assert np.allclose(g1.eval_jet(p), g2.eval_jet(p), atol=1e-13)


# -- matrix exponential ------------------------------------------------------


def test_matexp_zero_is_identity():
    z = fconst(np.zeros((3, 3)), 1)
    # fexp folds the zero field; eval_jet through the generic node too
    from sqmzoo.fields import MatExpField
    val = MatExpField(z).eval_jet((0.1,))[:, :, 0]
    assert np.allclose(val, np.eye(3), atol=1e-15)


def test_matexp_diagonal():
    d = fgrid([[fexpr(parse("x", ["x", "y"]), 2), fexpr(parse("0", ["x", "y"]), 2)],
               [fexpr(parse("0", ["x", "y"]), 2), fexpr(parse("y", ["x", "y"]), 2)]])
    val = fexp(d).eval_jet((0.3, -1.2))[:, :, 0]
    assert np.allclose(np.diag(val), [np.exp(0.3), np.exp(-1.2)], rtol=1e-14)


def test_matexp_inverse_identity():
    rng = np.random.default_rng(5)
    for _ in range(5):
        w = rng.uniform(-1, 1, (3, 3)) + 1j * rng.uniform(-1, 1, (3, 3))
        w *= 2.0 / max(1.0, np.linalg.norm(w))
        om = fconst(w, 1)
        from sqmzoo.fields import MatExpField
        prod = fmatmul(MatExpField(om), MatExpField(fscale(-1.0, om)))
        val = prod.eval_jet((0.0,))[:, :, 0]
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
        va = lhs.eval_jet((x,))[:, :, 0]
        vb = rhs.eval_jet((x,))[:, :, 0]
        assert np.abs(va - vb).max() < 1e-10


def test_matexp_jets_vs_fd_spec_example():
    # M(x) = [[x, 1], [0, -x]]: relative error < 1e-6 against central FD
    coords = ["x"]
    m = fgrid([[fexpr(parse("x", coords), 1), fexpr(parse("1", coords), 1)],
               [fexpr(parse("0", coords), 1), fexpr(parse("-x", coords), 1)]])
    e = fexp(m)
    point = (0.3,)
    jet = e.eval_jet(point, order=1)
    approx = fd_first(e, point, 0)
    exact = jet[:, :, 1]
    assert np.abs(exact - approx).max() / np.abs(exact).max() < 1e-6


def test_scipy_expm_oracle():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(11)
    w = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    from sqmzoo.fields import MatExpField
    val = MatExpField(fconst(w, 1)).eval_jet((0.0,))[:, :, 0]
    assert np.abs(val - scipy_linalg.expm(w)).max() < 1e-12


def test_inverse_and_det_values():
    rng = np.random.default_rng(7)
    w = rng.uniform(-1, 1, (4, 4)) + np.eye(4) * 3
    inv = finv(fconst(w, 1)).eval_jet((0.5,))[:, :, 0]
    assert np.abs(inv - np.linalg.inv(w)).max() < 1e-12
    det_f = fdet(fconst(w, 1))
    # fdet folds constants; check value
    assert det_f.eval_jet((0.5,))[0, 0, 0] == pytest.approx(np.linalg.det(w))


def test_order_cap_enforced():
    from sqmzoo.fields import OrderOverflow
    f = fexpr(parse("x^5", ["x"]), 1)
    g = f.deriv((3,))
    with pytest.raises(OrderOverflow):
        g.eval_jet((0.5,), order=2)


def test_matexp_nonconvergence_raises():
    # a derivative part of 1e15 makes the order-2 terms of the scaled
    # series shrink only like 1e30 / k!, still above 1e-18 at 40 terms
    from sqmzoo.jets import SeriesError
    space = jet_space(1, 2)
    a = space.const([[0.9]])
    a[1, 0, 0] = 1e15
    with pytest.raises(SeriesError, match="40 terms"):
        space.matrix_exp(a)
    a[1, 0, 0] = 1.0
    out = space.matrix_exp(a)
    assert out[0, 0, 0] == pytest.approx(np.exp(0.9), rel=1e-14)
    assert out[1, 0, 0] == pytest.approx(np.exp(0.9), rel=1e-14)



def test_matexp_lower_order_is_a_prefix_of_a_higher_one():
    # a generator whose grade 2 is large next to its value and grade 1:
    # with one stopping test over every grade, the series at order 2 adds
    # terms below 1e-18 to grades 0 and 1 that the order-1 series does not
    value = [[1.0750168051101204e-04, -3.7911673557041966e-04],
             [-4.0322764814122031e-04, -4.3612674860619857e-04]]
    grade1 = [[2.8556520828843374e-07, -6.2880041112997395e-07],
              [-3.4852919419664743e-07, 1.7539155081943755e-09]]
    grade2 = [[7.2960362385709153e-04, 7.2150994826525577e-03],
              [5.0050870671719859e-03, -1.1367513792835975e-02]]
    a = np.stack([value, grade1, grade2]).astype(np.complex128)
    top = jet_space(1, 2).matrix_exp(a)
    assert np.array_equal(jet_space(1, 1).matrix_exp(a[:2].copy()),
                          top[:2])

# -- term-sparse products against the per-pair formula ---------------------


def _ref_mul(space, a, b):
    """Pair by pair, each target's pairs in table order, added into
    zeros: the dense formula."""
    out = np.zeros((space.nterms, a.shape[1], b.shape[2]), dtype=np.complex128)
    for i, j, k, w in zip(space._ii, space._jj, space._kk, space._ww):
        out[k] += np.matmul(a[i], b[j]) * w
    return out


def _ref_scal_mul(space, s, a):
    out = np.zeros(a.shape, dtype=np.complex128)
    for i, j, k, w in zip(space._ii, space._jj, space._kk, space._ww):
        out[k] += (s[i, 0, 0] * w) * a[j]
    return out


def _sparse_jets(space, rows, cols, seed):
    """Random jets whose dead terms are exactly zero: all terms live, a
    random half, the value only, one random term, and none."""
    rng = np.random.default_rng(seed)
    masks = [np.ones(space.nterms, bool), rng.random(space.nterms) < 0.5,
             np.arange(space.nterms) == 0,
             np.arange(space.nterms) == rng.integers(space.nterms),
             np.zeros(space.nterms, bool)]
    shape = (space.nterms, rows, cols)
    for live in masks:
        jet = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        jet[~live] = 0.0
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


@pytest.mark.parametrize("nvars, dim", [(4, 16), (6, 64)],
                         ids=["n4-K2-16x16", "n6-K2-64x64"])
def test_one_term_operand_equals_its_embedding(nvars, dim):
    """A constant's one term, as either factor of mul or scal_mul, gives
    the product with the constant embedded, all its other terms zero:
    against jets with dead terms, and a zero constant.  Compared with ==,
    as the sign of a zero may differ."""
    space = jet_space(nvars, 2)
    rng = np.random.default_rng(dim)
    shape = (1, dim, dim)
    for k, const in enumerate([rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape),
                               np.zeros(shape, dtype=np.complex128)]):
        embedded = space.zeros(dim, dim)
        embedded[:1] = const
        for jet in _sparse_jets(space, dim, dim, seed=nvars + k):
            assert np.array_equal(space.mul(const, jet),
                                  space.mul(embedded, jet))
            assert np.array_equal(space.mul(jet, const),
                                  space.mul(jet, embedded))
            scalar = jet[:, :1, :1]
            assert np.array_equal(space.scal_mul(scalar, const),
                                  space.scal_mul(scalar, embedded))
            assert np.array_equal(space.scal_mul(const[:, :1, :1], jet),
                                  space.scal_mul(embedded[:, :1, :1], jet))


# -- the product kernels against an independent term-last oracle ------------
#
# The oracle is the term-last product kernel: jets of shape (P*rows, cols,
# T), its own pair table built here from ``space.midx`` in table order,
# dead pairs dropped, and the pair products summed by ``np.add.at``.
# JetSpace.mul and scal_mul must give its floats bit for bit, zero signs
# and infinities included, and a NaN wherever it has one.  Only the sign
# bit of a NaN may differ: where both addends are NaNs, np.add.at keeps
# the first one's and numpy's in-place complex add may keep the second
# one's, and nothing reads that bit.


@functools.cache
def _oracle_table(space):
    position = {alpha: i for i, alpha in enumerate(space.midx)}
    ii, jj, kk, ww = [], [], [], []
    for i, a in enumerate(space.midx):
        for j, b in enumerate(space.midx):
            if sum(a) + sum(b) <= space.order:
                c = tuple(x + y for x, y in zip(a, b))
                ii.append(i)
                jj.append(j)
                kk.append(position[c])
                w = 1
                for cd, ad in zip(c, a):
                    w *= math.comb(cd, ad)
                ww.append(w)
    return (np.array(ii, dtype=np.intp), np.array(jj, dtype=np.intp),
            np.array(kk, dtype=np.intp), np.array(ww, dtype=np.complex128))


def _oracle_live(space, jet):
    live = np.zeros(space.nterms, dtype=bool)
    live[:jet.shape[2]] = jet.any(axis=(0, 1))
    return live


def _oracle_mul(space, a, b):
    """(P*r, m, T) x (P*m, c, T) -> (P*r, c, T), term-last."""
    m, c = a.shape[1], b.shape[1]
    n = b.shape[0] // m
    if space.nterms == 1:
        return np.matmul(np.ascontiguousarray(a[:, :, 0]).reshape(n, -1, m),
                         np.ascontiguousarray(b[:, :, 0]).reshape(n, m, c)
                         ).reshape(-1, c, 1)
    ii, jj, kk, ww = _oracle_table(space)
    live = _oracle_live(space, a)[ii] & _oracle_live(space, b)[jj]
    ta = a.reshape(n, -1, m, a.shape[2])[..., ii[live]].transpose(3, 0, 1, 2)
    tb = b.reshape(n, m, c, b.shape[2])[..., jj[live]].transpose(3, 0, 1, 2)
    prod = np.matmul(ta, tb)
    prod *= ww[live, None, None, None]
    out = np.zeros((space.nterms,) + prod.shape[1:], dtype=np.complex128)
    np.add.at(out, kk[live], prod)
    return out.transpose(1, 2, 3, 0).reshape(-1, c, space.nterms)


def _oracle_scal_mul(space, s, a):
    """(P, 1, T) scalars times (P*r, c, T) matrices, term-last."""
    n, c = s.shape[0], a.shape[1]
    if space.nterms == 1:
        return (s.reshape(n, 1, 1, 1) * a.reshape(n, -1, c, 1)
                ).reshape(-1, c, 1)
    ii, jj, kk, ww = _oracle_table(space)
    live = _oracle_live(space, s)[ii] & _oracle_live(space, a)[jj]
    sp = (s[:, 0][:, ii[live]] * ww[live]).T
    ta = a.reshape(n, -1, c, a.shape[2])[..., jj[live]].transpose(3, 0, 1, 2)
    prod = sp[:, :, None, None] * ta
    out = np.zeros((space.nterms,) + prod.shape[1:], dtype=np.complex128)
    np.add.at(out, kk[live], prod)
    return out.transpose(1, 2, 3, 0).reshape(-1, c, space.nterms)


def _term_major(jet):
    return np.ascontiguousarray(np.moveaxis(jet, -1, 0))


def _same_bits(x, y):
    """Equal float for float by bits, a NaN matching any NaN."""
    x = np.ascontiguousarray(x).view(np.float64)
    y = np.ascontiguousarray(y).view(np.float64)
    if x.shape != y.shape:
        return False
    nan = np.isnan(x)
    return (np.array_equal(nan, np.isnan(y))
            and np.array_equal(x.view(np.uint64)[~nan],
                               y.view(np.uint64)[~nan]))


def _oracle_operands(space, rng, shapes):
    """Term-last jets of ``shapes``: random live masks, one-term
    constants, and entries of -0.0, inf and nan."""
    def jet(rows, cols, nterms, live=None):
        shape = (rows, cols, nterms)
        out = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if live is not None:
            out[:, :, ~live[:nterms]] = 0.0
        return out

    for rows, cols in shapes:
        T = space.nterms
        yield jet(rows, cols, T)
        yield jet(rows, cols, T, rng.random(T) < 0.5)
        yield jet(rows, cols, T, np.arange(T) == rng.integers(T))
        yield jet(rows, cols, 1)                    # a constant's one term
        special = jet(rows, cols, T, rng.random(T) < 0.7)
        flat = special.reshape(-1)
        picks = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        flat[picks[:1]] = -0.0
        flat[picks[1:2]] = complex(-np.inf, 1.0)
        flat[picks[2:]] = complex(0.5, np.nan)
        yield special
        negzero = np.full((rows, cols, T), -0.0 - 0.0j)
        negzero[:, :, 0] = jet(rows, cols, 1)[:, :, 0]
        yield negzero


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("nvars", range(1, 7))
def test_products_bit_identical_to_term_last_oracle(nvars):
    """For every space of 1 to 6 variables and order 0 to MAX_ORDER, at
    blocks of 2 points: mul and scal_mul equal the term-last np.add.at
    oracle bit for bit, over random live masks, one-term constants and
    entries of -0.0, inf and nan."""
    rng = np.random.default_rng(nvars)
    for order in range(MAX_ORDER + 1):
        space = jet_space(nvars, order)
        P, r, m, c = 2, 2, 3, 2
        lefts = list(_oracle_operands(space, rng, [(P * r, m)]))
        rights = list(_oracle_operands(space, rng, [(P * m, c)]))
        scalars = list(_oracle_operands(space, rng, [(P, 1)]))
        for a in lefts:
            for b in rights:
                want = _oracle_mul(space, a, b)
                got = space.mul(_term_major(a), _term_major(b))
                assert _same_bits(got, _term_major(want)), (nvars, order)
        for s in scalars:
            for a in lefts:
                want = _oracle_scal_mul(space, s, a)
                got = space.scal_mul(_term_major(s), _term_major(a))
                assert _same_bits(got, _term_major(want)), (nvars, order)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("nvars, order, dim", [(4, 3, 16), (6, 2, 64)],
                         ids=["n4-K3-16x16", "n6-K2-64x64"])
def test_products_bit_identical_to_oracle_at_model_shapes(nvars, order, dim):
    """The Fock-matrix shapes of the shipped models, two points a block."""
    rng = np.random.default_rng(dim)
    space = jet_space(nvars, order)
    lefts = list(_oracle_operands(space, rng, [(2 * dim, dim)]))[:4]
    scalars = list(_oracle_operands(space, rng, [(2, 1)]))
    for a in lefts:
        for b in lefts[:3]:
            assert _same_bits(space.mul(_term_major(a), _term_major(b)),
                              _term_major(_oracle_mul(space, a, b)))
        for s in scalars:
            assert _same_bits(space.scal_mul(_term_major(s), _term_major(a)),
                              _term_major(_oracle_scal_mul(space, s, a)))


# -- products by a constant monomial, as signed gathers ---------------------

MONOMIAL_VALUES = {"unit": (1.0, -1.0, 1j, -1j),
                   "non-unit": (0.5, -math.sqrt(2), 0.7j)}


def _monomial_matrix(rng, rows, cols, values):
    """A rows x cols matrix with one entry of ``values`` in each of
    ``min(rows, cols) - 1`` rows, in distinct columns, so that a row and
    a column at least are empty."""
    k = min(rows, cols) - 1
    out = np.zeros((rows, cols), dtype=np.complex128)
    out[rng.permutation(rows)[:k], rng.permutation(cols)[:k]] = \
        rng.choice(np.array(values), k)
    return out


@pytest.mark.parametrize("values", sorted(MONOMIAL_VALUES))
@pytest.mark.parametrize("order", [0, 2])
@pytest.mark.parametrize("points", [1, 2, 3])
def test_monomial_gather_equals_dense_product(values, order, points):
    """``M @ B`` and ``A @ M`` by a constant monomial's one term, as
    gathers, equal JetSpace.mul's dense products (by value_product at
    order 0) under ==, with +0 for every zero; at order 2, whose rank
    passes add each product to +0, bit for bit.  Operands have dead
    terms and zero entries; blocks of 1 to 3 points."""
    rng = np.random.default_rng(10 * order + points)
    space = jet_space(2, order)
    first = _monomial_matrix(rng, 4, 5, MONOMIAL_VALUES[values])
    second = _monomial_matrix(rng, 5, 3, MONOMIAL_VALUES[values])
    b = next(_sparse_jets(space, 5 * points, 2, seed=order))
    a = list(_sparse_jets(space, 3 * points, 5, seed=order + 1))[1]
    a[a.real > 1.0] = 0.0
    cases = [(space.mul(space.const(first, points)[:1], b),
              monomial(first).left(split_points(b, points))),
             (space.mul(a, space.const(second, points)[:1]),
              monomial(second).right(split_points(a, points)))]
    for dense, got in cases:
        got = join_points(got)
        assert got.shape == dense.shape
        assert np.array_equal(got, dense)
        zeros = got.view(np.float64) == 0
        assert not np.signbit(got.view(np.float64)[zeros]).any()
        if order:
            assert _same_bits(got, dense)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_monomial_gather_leaves_a_non_finite_operand_to_the_dense_path():
    """An operand with an inf or a NaN, even in a row the monomial never
    picks, gets None from the gather, whose caller then takes the dense
    product with its 0 * inf NaNs."""
    rng = np.random.default_rng(5)
    m = _monomial_matrix(rng, 4, 4, MONOMIAL_VALUES["unit"])
    form = monomial(m)
    skipped = int(np.flatnonzero(~m.any(axis=0))[0])  # a row no row picks
    for bad in (np.inf, np.nan, complex(1.0, -np.inf)):
        b = rng.standard_normal((1, 1, 4, 3)).astype(np.complex128)
        b[0, 0, skipped, 1] = bad
        assert form.left(b) is None
        assert form.right(b.swapaxes(2, 3)) is None
        assert np.isnan(m @ b[0, 0]).any()


def test_monomial_form_is_refused_for_two_nonzeros_or_a_complex_entry():
    eye = np.eye(3, dtype=np.complex128)
    assert monomial(eye) is not None
    row = eye.copy()
    row[0, 2] = 1.0                 # two nonzeros in row 0
    column = eye.copy()
    column[2, 0] = -1j              # two nonzeros in column 0
    mixed = eye.copy()
    mixed[1, 1] = (1 + 1j) / math.sqrt(2)   # unit modulus, both parts
    for m in (row, column, mixed):
        assert monomial(m) is None
    for bad in (np.inf, np.nan):
        m = eye.copy()
        m[2, 2] = bad
        assert monomial(m) is None
    form = monomial(np.array([[0, 2j, 0], [0, 0, 0]]))
    assert form.cols.tolist() == [1, 0] and form.rows.tolist() == [0, 0, 0]
    assert form.row_vals.tolist() == [2j, 0]
    assert form.col_vals.tolist() == [0, 2j, 0]
