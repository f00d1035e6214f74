"""Operator algebra: composition, adjoints, similarity, reduction.

The golden composition oracle expands the same products symbolically
with sympy (an independent code path) and compares coefficient by
coefficient at sample points.
"""

import math

import numpy as np
import pytest
import sympy

from sqmzoo import diffop
from sqmzoo.clifford import bilinear, complex_fermions
from sqmzoo.diffop import (DiffOp, OpError, ReductionError, Residual,
                           SampleSpec, adjoint_with_measure, anticommutator,
                           commutator, compose, is_zero, momentum_op, mult_op,
                           naive_dagger, partial_op, pretty, reduce_cyclic,
                           rename_coords, sampled_residual, similarity,
                           zero_op)
from sqmzoo.expr import parse
from sqmzoo.fields import fconst, fexpr, fidentity, fscale
from sqmzoo.report import TOL_PASS

REP1 = complex_fermions(1)
X = ("x",)
SPEC1 = SampleSpec(box=((-1.2, 1.2),), n_points=12, seed=2)


def scalar_op(text, coords=X, rep=REP1):
    return mult_op(fexpr(parse(text, coords), len(coords)), coords, rep)


def ok(op, spec=SPEC1, tol=1e-9):
    flag, res = is_zero(op, spec, tol)
    return flag, res


def test_leibniz_first_order():
    # d o f = f d + f'
    d = partial_op(X, REP1, "x")
    f = scalar_op("sin(x)*x^2")
    fp = mult_op(fexpr(parse("2*x*sin(x) + x^2*cos(x)", X), 1), X, REP1)
    lhs = compose(d, f)
    rhs = compose(f, d) + fp
    assert ok(lhs - rhs)[0]


def test_p_squared_direct():
    p = momentum_op(X, REP1, "x")
    p2 = compose(p, p)
    assert set(p2.terms) == {(2,)}
    val = p2.terms[(2,)].eval_jet((0.3,))[:, :, 0]
    assert np.allclose(val, -np.eye(2))


# -- golden composition oracle (sympy) ---------------------------------------

_GOLDEN = [
    ("x^2", 1, "sin(x)", 0),
    ("sin(x)", 1, "x^3 - x", 1),
    ("exp(x)", 2, "x^2", 0),
    ("1/(x^2+2)", 0, "cos(x)", 2),
    ("x", 2, "exp(x)", 2),
    ("x^3", 1, "1/(x^2+1)", 1),
    ("cos(x)", 2, "sin(x)", 1),
    ("exp(x)*x", 0, "x^4", 2),
    ("x^2+1", 1, "sqrt(x+3)", 1),
    ("sin(x)*cos(x)", 2, "x^2+x", 0),
]


@pytest.mark.parametrize("ftext,m,gtext,k", _GOLDEN)
def test_compose_matches_sympy(ftext, m, gtext, k):
    """(f d^m) o (g d^k) via the engine vs sympy's symbolic expansion."""
    a = compose(scalar_op(ftext), compose_pow(partial_op(X, REP1, "x"), m))
    b = compose(scalar_op(gtext), compose_pow(partial_op(X, REP1, "x"), k))
    engine = compose(a, b)

    x = sympy.Symbol("x")
    f = sympy.sympify(ftext.replace("^", "**"))
    g = sympy.sympify(gtext.replace("^", "**"))
    # f d^m (g d^k u) = f sum_j C(m,j) g^(m-j) d^(j+k) u
    coeffs = {}
    for j in range(m + 1):
        c = sympy.binomial(m, j) * f * sympy.diff(g, x, m - j)
        coeffs[j + k] = coeffs.get(j + k, 0) + c
    for pt in (0.3, -0.7, 1.1):
        for order, cexpr in coeffs.items():
            want = complex(cexpr.subs(x, pt))
            gotf = engine.terms.get((order,))
            got = gotf.eval_jet((pt,))[0, 0, 0] if gotf is not None else 0.0
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)


def compose_pow(op, n):
    out = mult_op(fidentity(op.rep.dim, op.ncoords), op.coords, op.rep)
    for _ in range(n):
        out = compose(out, op)
    return out


def test_car_via_mult_ops():
    rep = complex_fermions(2)
    coords = ("x",)
    for a in range(2):
        for b in range(2):
            pa = mult_op(fconst(rep.psi[a], 1), coords, rep)
            pb = mult_op(fconst(rep.psibar[b], 1), coords, rep)
            acm = anticommutator(pa, pb)
            if a == b:
                val = acm.terms[(0,)].eval_jet((0.0,))[:, :, 0]
                assert np.array_equal(val, np.eye(4))
            else:
                assert acm.is_structurally_zero() or ok(acm)[0]


def test_harmonic_oscillator_hand_expansion():
    """W = x^2/2: {Q, Qbar}/2 = (p^2 + x^2)/2 + (psibar psi - psi psibar)/2."""
    from sqmzoo.zoo import witten
    m = witten("x^2/2")
    h = m.op("H")
    rep = m.rep
    comm = rep.psibar[0] @ rep.psi[0] - rep.psi[0] @ rep.psibar[0]
    direct = DiffOp(X, rep, {
        (2,): fscale(-0.5, fidentity(2, 1)),
        (0,): fscale(1.0, fconst(0.5 * comm, 1)),
    }) + mult_op(fexpr(parse("x^2/2", X), 1), X, rep)
    assert ok(h - direct)[0]


# -- adjoints -----------------------------------------------------------------


def test_momentum_self_adjoint():
    p = momentum_op(X, REP1, "x")
    assert ok(naive_dagger(p) - p)[0]


def test_first_order_adjoint_by_parts():
    # (f d)^+ = -conj(f) d - conj(f)'
    f = fexpr(parse("x^2 + i*x", X), 1)
    a = compose(mult_op(f, X, REP1), partial_op(X, REP1, "x"))
    fb = fexpr(parse("x^2 - i*x", X), 1)
    fbp = fexpr(parse("2*x - i", X), 1)
    want = (-1.0) * compose(mult_op(fb, X, REP1), partial_op(X, REP1, "x")) \
        + (-1.0) * mult_op(fbp, X, REP1)
    assert ok(naive_dagger(a) - want)[0]


def test_dagger_of_free_complex_charge():
    from sqmzoo.zoo import free_complex
    m = free_complex(2)
    q, qbar = m.op("Q"), m.op("Qbar")
    # Qbar = sqrt2 psibar_a pibar_a: rebuild directly
    rep = m.rep
    terms = {}
    n = 4
    for a in range(2):
        pb = fconst(rep.psibar[a], n)
        terms[tuple(1 if i == a else 0 for i in range(n))] = fscale(-1j, pb)
        terms[tuple(1 if i == 2 + a else 0 for i in range(n))] = fscale(-1.0, pb)
    direct = DiffOp(m.coords, rep, terms)
    spec = SampleSpec(box=((-1, 1),) * 4, n_points=4, seed=3)
    assert ok(qbar - direct, spec)[0]


def test_dagger_anti_involution():
    rng_ops = [
        compose(scalar_op("sin(x) + i*x"), partial_op(X, REP1, "x")),
        scalar_op("exp(x)") + momentum_op(X, REP1, "x"),
        compose(mult_op(fconst(REP1.psi[0], 1), X, REP1),
                momentum_op(X, REP1, "x")),
    ]
    for a in rng_ops:
        assert ok(naive_dagger(naive_dagger(a)) - a)[0]
    for a in rng_ops:
        for b in rng_ops:
            lhs = naive_dagger(compose(a, b))
            rhs = compose(naive_dagger(b), naive_dagger(a))
            assert ok(lhs - rhs)[0]


def test_adjoint_with_unit_measure_is_naive():
    a = compose(scalar_op("x^2"), momentum_op(X, REP1, "x"))
    mu = fexpr(parse("1", X), 1)
    assert ok(adjoint_with_measure(a, mu) - naive_dagger(a))[0]


def test_adjoint_measure_conjugation():
    # mu^-1 A^+ mu for mu = e^x on A = d_x: A^+ = -d_x, result -d_x - 1
    mu = fexpr(parse("exp(x)", X), 1)
    a = partial_op(X, REP1, "x")
    got = adjoint_with_measure(a, mu)
    want = (-1.0) * partial_op(X, REP1, "x") + (-1.0) * scalar_op("1")
    assert ok(got - want)[0]


# -- similarity ----------------------------------------------------------------


def test_similarity_zero_generator():
    a = compose(scalar_op("sin(x)"), momentum_op(X, REP1, "x"))
    r = fconst(np.zeros((2, 2)), 1)
    from sqmzoo.fields import ZeroField
    assert ok(similarity(a, ZeroField((1, 1), 1)) - a)[0]
    assert ok(similarity(a, r) - a)[0]


def test_similarity_scalar_witten_form():
    # e^W (p psi) e^-W = psi (p + i W')
    w = fexpr(parse("x^3 - x", X), 1)
    psi = fconst(REP1.psi[0], 1)
    qfree = compose(mult_op(psi, X, REP1), momentum_op(X, REP1, "x"))
    got = similarity(qfree, w)
    wp = fexpr(parse("3*x^2 - 1", X), 1)
    want = qfree + compose(mult_op(psi, X, REP1),
                           mult_op(fscale(1j, wp), X, REP1))
    assert ok(got - want, tol=1e-10)[0]


def test_two_systems_of_one_dimension_do_not_mix():
    """Operators over two fermion systems with equal Fock dimension are
    still over two systems."""
    rep3, rep_colored = complex_fermions(3), complex_fermions(2, color_dim=2)
    assert rep3.dim == rep_colored.dim
    a = momentum_op(X, rep3, "x")
    b = momentum_op(X, rep_colored, "x")
    with pytest.raises(OpError, match="representation"):
        compose(a, b)
    with pytest.raises(OpError, match="representation"):
        a + b


def test_similarity_constant_bilinear_closes_after_one_step():
    """Constant omega: e^R psi_a pi_a e^-R = psi_d (e^om)_dc pi_c exactly."""
    from sqmzoo.zoo import free_complex
    m = free_complex(2)
    rep = m.rep
    om = np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.4]])  # Hermitian
    r = bilinear(rep, fconst(om, 4), "pb")
    got = similarity(m.op("Q"), r)
    import scipy.linalg
    e_om = scipy.linalg.expm(om)
    terms = {}
    n = 4
    for c in range(2):
        mat = sum(e_om[d, c] * rep.psi[d] for d in range(2))
        terms[tuple(1 if i == c else 0 for i in range(n))] = fscale(-1j, fconst(mat, n))
        terms[tuple(1 if i == 2 + c else 0 for i in range(n))] = fconst(mat, n)
    want = DiffOp(m.coords, rep, terms)
    spec = SampleSpec(box=((-1, 1),) * 4, n_points=4, seed=5)
    assert ok(got - want, spec, tol=1e-12)[0]


def test_similarity_homomorphism_and_nilpotency():
    w = fexpr(parse("0.3*sin(x)", X), 1)
    a = compose(mult_op(fconst(REP1.psi[0], 1), X, REP1),
                momentum_op(X, REP1, "x"))
    b = scalar_op("x^2") + momentum_op(X, REP1, "x")
    lhs = similarity(compose(a, b), w)
    rhs = compose(similarity(a, w), similarity(b, w))
    assert ok(lhs - rhs)[0]
    # nilpotency preserved
    q = similarity(a, w)
    assert ok(compose(q, q))[0]


def test_compose_associativity():
    a = compose(scalar_op("sin(x)"), partial_op(X, REP1, "x"))
    b = scalar_op("x^2+1")
    c = compose(scalar_op("exp(x)"), partial_op(X, REP1, "x"))
    lhs = compose(compose(a, b), c)
    rhs = compose(a, compose(b, c))
    assert ok(lhs - rhs, tol=1e-10)[0]


def test_order_overflow():
    p = momentum_op(X, REP1, "x")
    p4 = compose(compose(p, p), compose(p, p))
    with pytest.raises(OpError, match="order"):
        compose(p4, p)


# -- reduction -----------------------------------------------------------------


def test_reduce_free_complex_to_real():
    from sqmzoo.zoo import free_complex, free_real
    parent = free_complex(1)
    spec = SampleSpec(box=((-1, 1), (-1, 1)), n_points=4, seed=6)
    red = reduce_cyclic(parent.op("Q"), ["y1"], spec)
    target = free_real(1)
    renamed = rename_coords(red, ("x1",))
    assert ok(renamed - target.op("Q"),
              SampleSpec(box=((-1, 1),), n_points=4, seed=7))[0]


def test_reduce_rejects_dependence():
    f = scalar_op("x*y", ("x", "y"), REP1)
    spec = SampleSpec(box=((-1, 1), (-1, 1)), n_points=4, seed=8)
    with pytest.raises(ReductionError):
        reduce_cyclic(f, ["y"], spec)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reduce_rejects_a_nonfinite_dependence():
    # exp(800 y) overflows in the box, so the y-derivative is not finite
    f = scalar_op("exp(800*y) + x", ("x", "y"))
    spec = SampleSpec(box=((-1, 1), (-1, 1)), n_points=8, seed=1)
    with pytest.raises(ReductionError):
        reduce_cyclic(f, ["y"], spec)


def test_reduce_samples_only_fields_that_read_a_dropped_coordinate(
        monkeypatch):
    """A derivative along a coordinate outside a field's support is the
    zero field when it is built: reducing an operator whose coefficients
    do not read y samples nothing, and a coefficient that reads y, though
    it does not depend on it, is the one derivative sampled."""
    sampled = []

    def recording(groups, spec):
        sampled.append([list(group) for group in groups])
        return sampled_residual(groups, spec)

    monkeypatch.setattr(diffop, "sampled_residual", recording)
    coords = ("x", "y")
    spec = SampleSpec(box=((-1, 1), (-1, 1)), n_points=3, seed=5)
    a = compose(scalar_op("sin(x)", coords), momentum_op(coords, REP1, "x"))
    assert reduce_cyclic(a, ["y"], spec).coords == ("x",)
    assert sampled == []
    reduce_cyclic(a + scalar_op("x + y - y", coords), ["y"], spec)
    assert [len(group) for groups in sampled for group in groups] == [1]


def test_reduce_commutes_with_brackets():
    coords = ("x", "y")
    rep = complex_fermions(1)
    spec2 = SampleSpec(box=((-1, 1), (-1, 1)), n_points=5, seed=9)
    spec1 = SampleSpec(box=((-1, 1),), n_points=5, seed=9)
    a = compose(mult_op(fexpr(parse("sin(x)", coords), 2), coords, rep),
                momentum_op(coords, rep, "x"))
    b = compose(mult_op(fconst(rep.psi[0], 2), coords, rep),
                momentum_op(coords, rep, "x")) + \
        mult_op(fexpr(parse("x^2", coords), 2), coords, rep)
    lhs = reduce_cyclic(commutator(a, b), ["y"], spec2)
    rhs = commutator(reduce_cyclic(a, ["y"], spec2),
                     reduce_cyclic(b, ["y"], spec2))
    assert ok(lhs - rhs, spec1)[0]


# -- zero testing ---------------------------------------------------------------


def test_is_zero_structural_zero():
    z = zero_op(X, REP1)
    flag, res = is_zero(z, SPEC1)
    assert flag and res.max_abs == 0.0


def test_is_zero_negative():
    a = scalar_op("x")
    flag, res = is_zero(a, SPEC1)
    assert not flag
    assert res.max_abs > 0.1
    assert res.argmax_point is not None


@pytest.mark.parametrize("max_abs,scale,relative", [
    (math.nan, 0.0, math.inf), (math.inf, math.inf, math.inf),
    (1e-12, 0.0, 1e-12), (1e-8, 1e2, 1e-8 / 101.0)])
def test_relative_residual(max_abs, scale, relative):
    res = Residual(max_abs, (0.0,), scale)
    assert res.relative == relative
    assert (res.relative <= TOL_PASS) == math.isfinite(relative)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_is_zero_rejects_an_infinite_residual():
    # exp(800 x) overflows on [0.5, 1]: max_abs and scale are both inf
    spec = SampleSpec(box=((0.5, 1.0),), n_points=12, seed=0)
    flag, res = is_zero(scalar_op("exp(800*x)"), spec)
    assert res.max_abs == res.scale == math.inf
    assert not flag


def test_sample_spec_needs_a_point():
    with pytest.raises(OpError, match="at least one point"):
        SampleSpec(box=((-1, 1),), n_points=0)


def test_sample_exclusions():
    from sqmzoo.diffop import Exclusion
    e = Exclusion(parse("x", X), 0.5)
    spec = SampleSpec(box=((-1, 1),), n_points=30, seed=10, exclusions=(e,))
    for p in spec.points():
        assert abs(p[0]) >= 0.5


def test_sample_exhaustion():
    from sqmzoo.diffop import Exclusion
    e = Exclusion(parse("x", X), 10.0)
    spec = SampleSpec(box=((-1, 1),), n_points=3, seed=11, exclusions=(e,))
    with pytest.raises(OpError, match="exhausted"):
        spec.points()


def test_seeded_points_deterministic():
    s1 = SampleSpec(box=((-1, 1), (0, 2)), n_points=6, seed=42)
    s2 = SampleSpec(box=((-1, 1), (0, 2)), n_points=6, seed=42)
    assert s1.points() == s2.points()


def test_pretty_printer():
    from sqmzoo.zoo import witten
    m = witten("x^3 - x")
    txt = pretty(m.op("Q"))
    assert "psi" in txt
    assert "d_x" in txt
    assert "W" in txt or "d" in txt
    h_txt = pretty(compose(momentum_op(X, REP1, "x"),
                           momentum_op(X, REP1, "x")))
    assert "d_x d_x" in h_txt
