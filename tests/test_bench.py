"""Microbenchmarks: one check end to end, the compilation of the largest
tape (``hyperkahler_gh``'s ``theorem2``, whose cost every check pays
once before its first point), the sampled evaluation of that tape over
its 6 points (run as 3 blocks of 2 points), its compiled runs alone over
those blocks, and the jet kernels at the
shapes the shipped models use (16x16 Fock matrices over 4 coordinates,
64x64 over 6, 4x4 matrix exponentials over 4), plus order 4 and a
term-sparse 64x64 product.

The pyproject's ``--benchmark-disable`` makes a plain test run execute
each body once, as a smoke test; to time them run

    PYTHONPATH=src python -m pytest --benchmark-enable tests/test_bench.py
"""

import numpy as np
import pytest

from sqmzoo import verify, zoo
from sqmzoo.diffop import TOL_PASS, sampled_residual
from sqmzoo.fields import Tape, _Combination
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


def test_bench_tape_compile(benchmark):
    m = zoo.hyperkahler_gibbons_hawking()
    groups = [list(rel.fields) for rel in verify.CHECKS["theorem2"](m)]
    tape = benchmark(Tape, groups)
    assert len(tape._reads) == len(groups) == 62
    # the plan of the largest shipped tape: a change to it is deliberate
    # and updates these numbers
    combinations = [step[0] for step in tape._steps
                    if type(step[0]) is _Combination]
    assert len(tape._steps) == 1929
    assert len(combinations) == 547
    assert sum([len(c.absorbed) for c in combinations]) == 4403
    assert sum([len(c.products) for c in combinations]) == 2148
    assert tape.point_bytes == 1770496
    points = m.sample_spec(n_points=6, seed=7).points()
    assert [len(b) for b in tape.blocks(points)] == [2, 2, 2]


def test_bench_sampled_residual_theorem2(benchmark):
    m = zoo.hyperkahler_gibbons_hawking()
    spec = m.sample_spec(n_points=6, seed=7)
    groups = [list(rel.fields) for rel in verify.CHECKS["theorem2"](m)]
    residuals = benchmark(sampled_residual, groups, spec)
    assert len(residuals) == 62
    assert all(r.relative <= TOL_PASS for r in residuals)


def test_bench_tape_run_theorem2(benchmark):
    m = zoo.hyperkahler_gibbons_hawking()
    spec = m.sample_spec(n_points=6, seed=7)
    tape = Tape([list(rel.fields) for rel in verify.CHECKS["theorem2"](m)])
    blocks = tape.blocks(spec.points())

    def run():
        return [out for block in blocks for out in tape.run(block)]

    outs = benchmark(run)
    assert [len(b) for b in blocks] == [2, 2, 2] and len(outs) == 3 * 62


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
    # a 64x64 jet with its value and two first derivatives live times a
    # constant, 3 of 28 terms.  wz_modes had this pattern until its jets
    # were stored over their support, two of the six coordinates: 6 terms
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
