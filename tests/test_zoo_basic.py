"""Flat models, the superpotential model, and their construction paths."""

from pathlib import Path

import numpy as np
import pytest

from sqmzoo import cli, zoo
from sqmzoo.diffop import (DiffOp, SampleSpec, anticommutator, compose,
                           is_zero, naive_dagger, reduce_cyclic, rename_coords)

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios")
                   .glob("*.yaml"))


def assert_zero(op, spec, tol=1e-9):
    flag, res = is_zero(op, spec, tol)
    assert flag, f"residual {res}"
    return res


def test_witten_free_limit():
    m = zoo.witten("0")
    free = zoo.free_real(1)
    spec = SampleSpec(box=((-1, 1),), n_points=5, seed=1)
    assert_zero(m.op("Q") - rename_coords(free.op("Q"), ("x",)), spec)


def test_witten_oscillator_n2():
    m = zoo.witten("x^2/2")
    spec = m.sample_spec(n_points=10, seed=2)
    assert_zero(compose(m.op("Q"), m.op("Q")), spec)
    assert_zero(anticommutator(m.op("Qbar"), m.op("Q")) - 2.0 * m.op("H"), spec)


def test_witten_cubic_full():
    m = zoo.witten("x^3 - x")
    spec = m.sample_spec(n_points=20, seed=3)
    assert_zero(compose(m.op("Q"), m.op("Q")), spec)
    assert_zero(compose(m.op("Qbar"), m.op("Qbar")), spec)
    assert_zero(anticommutator(m.op("Qbar"), m.op("Q"))
                - 2.0 * m.op("H_direct"), spec)
    res = assert_zero(m.op("Q") - m.op("Q_similarity"), spec, tol=1e-10)
    assert res.max_abs < 1e-10


def test_free_complex_d1_hamiltonian():
    m = zoo.free_complex(1)
    spec = m.sample_spec(n_points=4, seed=4)
    # H = pibar pi = (px^2 + py^2)/2: coefficient -1/2 on both second derivs
    h = m.op("H")
    val_xx = h.terms[(2, 0)].eval_jet(spec.points()[0])[:, :, 0]
    val_yy = h.terms[(0, 2)].eval_jet(spec.points()[0])[:, :, 0]
    assert np.allclose(val_xx, -0.5 * np.eye(2))
    assert np.allclose(val_yy, -0.5 * np.eye(2))
    assert_zero(anticommutator(m.op("Qbar"), m.op("Q")) - 2.0 * h, spec)


def test_free_real_reduction_path_exact():
    direct = zoo.free_real(2)
    parent = zoo.free_complex(2)
    spec4 = SampleSpec(box=((-1, 1),) * 4, n_points=4, seed=5)
    red = rename_coords(
        reduce_cyclic(parent.op("Q"), ["y1", "y2"], spec4), direct.coords)
    spec2 = SampleSpec(box=((-1, 1),) * 2, n_points=4, seed=6)
    res = assert_zero(red - direct.op("Q"), spec2)
    assert res.max_abs == 0.0   # constant coefficients: exactly equal


@pytest.mark.parametrize("D", [1, 2, 3, 4])
def test_free_real_charge_is_the_reduced_charge(D):
    """The constructors that start from free real dynamics take its charge
    from free_real_charge: the same nodes, term by term, as the cyclic
    reduction free_real runs."""
    m = zoo.free_real(D)
    direct = zoo.free_real_charge(m.coords, m.rep)
    reduced = m.op("Q").terms
    assert list(direct.terms) == list(reduced)
    assert all(direct.terms[k] is f for k, f in reduced.items())


def test_free_complex_d2_n4():
    m = zoo.free_complex(2)
    spec = m.sample_spec(n_points=4, seed=7)
    q, qb = m.op("Q"), m.op("Qbar")
    s, sb = m.op("S"), m.op("Sbar")
    h = m.op("H")
    for lhs in (compose(q, q), compose(s, s), anticommutator(q, s),
                anticommutator(q, sb), anticommutator(s, qb)):
        assert_zero(lhs, spec)
    assert_zero(anticommutator(sb, s) - 2.0 * h, spec)
    assert_zero(anticommutator(qb, q) - 2.0 * h, spec)


def test_naive_dagger_gives_conjugate_charge():
    m = zoo.free_complex(2)
    spec = m.sample_spec(n_points=4, seed=8)
    assert_zero(m.op("Qbar") - naive_dagger(m.op("Q")), spec)


def test_recipe_replay_reproduces_operators():
    for ctor, kwargs in (("witten", {"W": "x^3 - x"}),
                         ("free_complex", {"d": 2}),
                         ("hkt_conformal", {})):
        fn = zoo.CATALOG[ctor][0]
        m1 = fn(**kwargs)
        m2 = fn(**kwargs)
        spec = m1.sample_spec(n_points=4, seed=9)
        name = m1.charges[0]
        res = assert_zero(m1.op(name) - m2.op(name), spec)
        assert res.max_abs == 0.0   # replay is bit-for-bit deterministic


def test_model_op_lookup_and_names():
    m = zoo.witten()
    assert m.op("Q") is m.ops["Q"]
    assert m.charges == ("Q",)
    with pytest.raises(KeyError, match="model witten has no operator 'nope'"):
        m.op("nope")


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_operator_table_order(path):
    """The table lists each supercharge, then (complex kind) its bar,
    then H; constraints and comparison operators come after.  Every
    entry is an operator."""
    m = cli.build_model(cli.load_scenario(str(path))["model"])
    head = []
    for name in m.charges:
        head += [name, m.bar(name)] if m.rep.kind == "complex" else [name]
    assert m.charges
    assert list(m.ops)[:len(head) + 1] == head + ["H"]
    assert all(isinstance(op, DiffOp) for op in m.ops.values())


def test_list_models_census():
    txt = zoo.list_models()
    assert "witten" in txt
    assert "hyperkahler" in txt
    assert len(txt.splitlines()) >= 12


def test_conjugate_invariant_across_models():
    """Every model's Qbar is the measure-weighted adjoint of its Q."""
    from sqmzoo.diffop import adjoint_with_measure
    models = [
        zoo.witten("x^3 - x"),
        zoo.free_complex(2),
        zoo.dolbeault([["0.2*(x1^2 + y1^2)"]], d=1),
        zoo.de_rham([["0.2*x1", "0"], ["0", "0.1*x2^2"]], D=2),
        zoo.hkt_conformal("0.05*(x1^2 + y1^2)"),
        zoo.instanton(rho=1.0),
        zoo.gauge_sym3(),
        zoo.wz_modes([(1, 0, 0)]),
    ]
    for m in models:
        spec = m.sample_spec(n_points=4, seed=30)
        for name in m.charges:
            q, qb = m.op(name), m.op(m.bar(name))
            if m.measure is None:
                want = naive_dagger(q)
            else:
                want = adjoint_with_measure(q, m.measure)
            res = assert_zero(qb - want, spec)
            assert res.max_abs <= 1e-9 * (1 + res.scale), (m.name, name)
