"""Microbenchmarks: one check end to end and the jet kernels at the
shapes the shipped models use (16x16 Fock matrices over 4 coordinates,
64x64 over 6, 4x4 matrix exponentials over 4), plus order 4 and the
term-sparse 64x64 products of ``wz_modes``.

The pyproject's ``--benchmark-disable`` makes a plain test run execute
each body once, as a smoke test; to time them run

    PYTHONPATH=src python -m pytest --benchmark-enable tests/test_bench.py
"""

import numpy as np
import pytest

from sqmzoo import verify, zoo
from sqmzoo.jets import jet_space

SHAPES = pytest.mark.parametrize(
    "nvars, order, dim", [(4, 3, 16), (4, 4, 16), (6, 2, 64)],
    ids=["n4-K3-16x16", "n4-K4-16x16", "n6-K2-64x64"])


def _jet(rng, space, rows, cols):
    shape = (rows, cols, space.nterms)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_bench_run_check_theorem1(benchmark):
    m = zoo.kahler_warped()
    spec = m.sample_spec(n_points=2, seed=7)
    reports = benchmark(verify.run_check, "theorem1", m, spec)
    assert reports and all(r.ok for r in reports)


@SHAPES
def test_bench_jet_mul(benchmark, nvars, order, dim):
    space = jet_space(nvars, order)
    rng = np.random.default_rng(0)
    a, b = _jet(rng, space, dim, dim), _jet(rng, space, dim, dim)
    out = benchmark(space.mul, a, b)
    assert np.allclose(out[:, :, 0], a[:, :, 0] @ b[:, :, 0])


@SHAPES
def test_bench_jet_scal_mul(benchmark, nvars, order, dim):
    space = jet_space(nvars, order)
    rng = np.random.default_rng(1)
    s, a = _jet(rng, space, 1, 1), _jet(rng, space, dim, dim)
    out = benchmark(space.scal_mul, s, a)
    assert np.allclose(out[:, :, 0], s[0, 0, 0] * a[:, :, 0])


def test_bench_jet_mul_term_sparse(benchmark):
    # the wz_modes pattern: a 64x64 jet with its value and two first
    # derivatives live times a constant, 3 of 28 terms
    space = jet_space(6, 2)
    rng = np.random.default_rng(2)
    a, b = _jet(rng, space, 64, 64), _jet(rng, space, 64, 64)
    a[:, :, 3:] = 0.0
    b[:, :, 1:] = 0.0
    out = benchmark(space.mul, a, b)
    for t in range(3):
        assert np.allclose(out[:, :, t], a[:, :, t] @ b[:, :, 0])
    assert not out[:, :, 3:].any()


def test_bench_matrix_exp(benchmark):
    # the hkt_conformal shape: 4x4 generators over 4 coordinates at order 2
    space = jet_space(4, 2)
    a = _jet(np.random.default_rng(3), space, 4, 4) / 4.0
    out = benchmark(space.matrix_exp, a)
    # exp(A) exp(-A) is the identity jet: the derivative terms cancel too
    one = space.mul(out, space.matrix_exp(-a))
    assert np.allclose(one, space.const(np.eye(4)), atol=1e-12)
