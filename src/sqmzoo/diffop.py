"""Graded differential operators over (coordinates x fermionic module).

A DiffOp is a finite sum over derivative multi-indices of matrix-valued
coefficient fields acting on a fermion Fock space: sum_alpha F_alpha(x)
d^alpha, normal-ordered with all derivatives to the right.  Operators
are stored with plain partials; the physics convention p_M = -i d_M is
applied when operators are built.  Composition redistributes
derivatives by the Leibniz rule, with coefficient derivatives realised
as exact jet requests at evaluation time rather than finite
differences.  The grading is carried by the finite fermion matrices, so
matrix multiplication implements the graded product with no extra sign
bookkeeping.

Zero-testing is probabilistic: coefficient fields of an analytic
operator vanish identically iff they vanish on any set of nonzero
measure, so seeded random sample points give a sound practical test.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from operator import add, sub

import numpy as np

from .fields import (ConstField, PositiveGuardField, Tape, ZeroField, fdiag,
                     fexp, fidentity, fmatmul, fpow, frestrict, fscale, fsum)
from .jets import MAX_ORDER, _binom_multi, split_points


# largest relative residual (see Residual.relative) at which a sampled
# coefficient counts as zero
TOL_PASS = 1e-9


class OpError(ValueError):
    pass


class ReductionError(OpError):
    """A cyclic reduction was requested along a coordinate the operator
    actually depends on."""


class EvaluationError(OpError):
    """Evaluating group ``group`` at sample point ``point`` raised the
    ValueError or ArithmeticError ``cause``; a caller that knows the
    group's name sets ``relation``."""

    def __init__(self, group, point, cause):
        super().__init__(group, point, cause)
        self.group = group
        self.point = point
        self.cause = cause
        self.relation = None

    def __str__(self):
        where = (f"group {self.group}" if self.relation is None
                 else f"relation {self.relation!r}")
        pt = ",".join(f"{x:.6g}" for x in self.point)
        return (f"{where} at point ({pt}): {type(self.cause).__name__}: "
                f"{self.cause}")


# ---------------------------------------------------------------------------
# multi-index helpers


def unit_index(ncoords, pos):
    return tuple(1 if i == pos else 0 for i in range(ncoords))


def _sub_indices(alpha):
    """All gamma with gamma <= alpha componentwise."""
    ranges = [range(a + 1) for a in alpha]
    return itertools.product(*ranges)


def _idx_add(a, b):
    return tuple(map(add, a, b))


def _idx_sub(a, b):
    return tuple(map(sub, a, b))


# ---------------------------------------------------------------------------
# sampling


@dataclass(frozen=True)
class Exclusion:
    """Points where |expr| < min_abs are rejected by samplers."""

    expr: object
    min_abs: float = 0.1

    def excluded(self, point):
        return abs(self.expr(point)) < self.min_abs


@dataclass(frozen=True)
class SampleSpec:
    """Seeded sample box with optional excluded sets."""

    box: tuple                    # ((lo, hi), ...) per coordinate
    n_points: int = 20
    seed: int = 0
    exclusions: tuple = ()

    def __post_init__(self):
        if self.n_points < 1:
            raise OpError(f"a sample spec needs at least one point, "
                          f"got n_points={self.n_points}")

    def points(self):
        rng = np.random.default_rng(self.seed)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        out = []
        attempts = 0
        while len(out) < self.n_points:
            attempts += 1
            if attempts > 1000 * self.n_points:
                raise OpError("sample box exhausted by exclusions")
            p = tuple(rng.uniform(lo, hi))
            if any(e.excluded(p) for e in self.exclusions):
                continue
            out.append(p)
        return out


@dataclass(frozen=True)
class Residual:
    """Largest coefficient magnitude seen when testing an operator."""

    max_abs: float
    argmax_point: tuple
    scale: float

    @property
    def relative(self):
        """max_abs / (1 + scale), or inf when either is NaN or infinite:
        the one number every zero test compares with its tolerance."""
        if not (math.isfinite(self.max_abs) and math.isfinite(self.scale)):
            return math.inf
        return self.max_abs / (1.0 + self.scale)

    def __str__(self):
        return f"max {self.max_abs:.3e} at {self.argmax_point} (scale {self.scale:.3e})"


# ---------------------------------------------------------------------------
# the operator


class DiffOp:
    """Immutable graded differential operator."""

    __slots__ = ("coords", "rep", "terms")

    def __init__(self, coords, rep, terms):
        self.coords = tuple(coords)
        self.rep = rep
        clean = {}
        for alpha, f in terms.items():
            if isinstance(f, ZeroField):
                continue
            if f.shape != (rep.dim, rep.dim):
                raise OpError(
                    f"coefficient shape {f.shape} != rep dim {rep.dim}")
            if len(alpha) != len(self.coords):
                raise OpError("multi-index length mismatch")
            clean[tuple(alpha)] = f
        self.terms = clean

    # -- construction helpers ------------------------------------------

    @property
    def ncoords(self):
        return len(self.coords)

    @property
    def order(self):
        return max((sum(a) for a in self.terms), default=0)

    def is_structurally_zero(self):
        return not self.terms

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        _check_compat(self, other)
        acc = defaultdict(list)
        for alpha, f in self.terms.items():
            acc[alpha].append(f)
        for alpha, f in other.terms.items():
            acc[alpha].append(f)
        dim = self.rep.dim
        return DiffOp(self.coords, self.rep, {
            a: fsum(fs, (dim, dim), self.ncoords) for a, fs in acc.items()})

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, c):
        return DiffOp(self.coords, self.rep,
                      {a: fscale(c, f) for a, f in self.terms.items()})

    def __neg__(self):
        return (-1.0) * self

    def __matmul__(self, other):
        return compose(self, other)

    def __repr__(self):
        return f"<DiffOp {len(self.terms)} terms, order {self.order}>"


def _check_compat(A, B):
    if A.coords != B.coords:
        raise OpError(f"coordinate mismatch {A.coords} vs {B.coords}")
    if A.rep is not B.rep:
        raise OpError("fermion representation mismatch")


def zero_op(coords, rep):
    return DiffOp(coords, rep, {})


def mult_op(coeff, coords, rep):
    """Multiplication operator by a matrix field (or scalar field)."""
    if coeff.is_scalar and rep.dim > 1:
        coeff = fdiag(coeff, rep.dim)
    return DiffOp(coords, rep, {(0,) * len(coords): coeff})


@cache
def _identity(rep, n):
    """The identity on ``rep``'s Fock space over ``n`` coordinates, built
    once per (rep, n): a representation lives for the whole run."""
    return fidentity(rep.dim, n)


def partial_op(coords, rep, name_or_pos):
    """Plain d/dx_M."""
    pos = name_or_pos if isinstance(name_or_pos, int) else coords.index(name_or_pos)
    n = len(coords)
    return DiffOp(coords, rep, {unit_index(n, pos): _identity(rep, n)})


def momentum_op(coords, rep, name_or_pos):
    """p_M = -i d_M."""
    return (-1j) * partial_op(coords, rep, name_or_pos)


# ---------------------------------------------------------------------------
# composition and brackets


def compose(A, B):
    """Operator product A B (apply B first), Leibniz-redistributed."""
    _check_compat(A, B)
    n = A.ncoords
    dim = A.rep.dim
    acc = defaultdict(list)
    for alpha, F in A.terms.items():
        # the Leibniz weights and derivative orders depend on alpha only
        leibniz = [(gamma, _binom_multi(alpha, gamma), _idx_sub(alpha, gamma))
                   for gamma in _sub_indices(alpha)]
        for beta, G in B.terms.items():
            if sum(alpha) + sum(beta) > MAX_ORDER:
                raise OpError(
                    f"composition order {sum(alpha) + sum(beta)} exceeds cap {MAX_ORDER}")
            for gamma, w, rest in leibniz:
                dG = G.deriv(rest)
                if isinstance(dG, ZeroField):
                    continue
                acc[_idx_add(gamma, beta)].append(fscale(w, fmatmul(F, dG)))
    terms = {a: fsum(fs, (dim, dim), n) for a, fs in acc.items()}
    return DiffOp(A.coords, A.rep, terms)


def commutator(A, B):
    return compose(A, B) - compose(B, A)


def anticommutator(A, B):
    return compose(A, B) + compose(B, A)


# ---------------------------------------------------------------------------
# adjoints


def naive_dagger(A):
    """Flat-measure Hermitian conjugate, restored to normal order.

    (F d^alpha)^+ = (-1)^|alpha| d^alpha o F^+, then Leibniz pushes the
    derivatives back to the right.
    """
    n = A.ncoords
    dim = A.rep.dim
    acc = defaultdict(list)
    for alpha, F in A.terms.items():
        sign = (-1.0) ** sum(alpha)
        Fd = F.conj_t()
        for gamma in _sub_indices(alpha):
            w = _binom_multi(alpha, gamma)
            dF = Fd.deriv(_idx_sub(alpha, gamma))
            if isinstance(dF, ZeroField):
                continue
            acc[gamma].append(fscale(sign * w, dF))
    terms = {a: fsum(fs, (dim, dim), n) for a, fs in acc.items()}
    return DiffOp(A.coords, A.rep, terms)


def adjoint_with_measure(A, mu):
    """mu^-1 A^+ mu for a positive scalar measure density mu.

    Evaluation raises if the measure fails to be positive at a sample
    point (vanishing or complex measures have no adjoint reading)."""
    if not mu.is_scalar:
        raise OpError("measure density must be a scalar field")
    if not isinstance(mu, PositiveGuardField):
        mu = PositiveGuardField(mu, "measure density")
    left = mult_op(fpow(mu, -1), A.coords, A.rep)
    right = mult_op(mu, A.coords, A.rep)
    return compose(left, compose(naive_dagger(A), right))


# ---------------------------------------------------------------------------
# similarity transformation


def similarity(A, R):
    """Exact conjugation e^R A e^-R.

    Implemented without truncating the Hadamard series: every d_M maps
    to d_M + e^R (d_M e^-R) and every coefficient F to e^R F e^-R, then
    the result is normal-ordered by composition.  R is a scalar field
    (shape (1,1)) or a Fock-matrix field matching the representation.
    """
    n = A.ncoords
    dim = A.rep.dim
    zero = (0,) * n
    if R.shape == (1, 1):
        def conj(F):
            return F
        cs = [fdiag(fscale(-1.0, R.deriv(unit_index(n, m))), dim)
              for m in range(n)]
    elif R.shape == (dim, dim):
        exp_r = fexp(R)
        exp_mr = fexp(fscale(-1.0, R))

        def conj(F):
            return fmatmul(exp_r, F, exp_mr)

        cs = [fmatmul(exp_r, exp_mr.deriv(unit_index(n, m)))
              for m in range(n)]
    else:
        raise OpError(f"similarity generator shape {R.shape} unsupported")

    d_ops = []
    for m in range(n):
        terms = {unit_index(n, m): _identity(A.rep, n)}
        if not isinstance(cs[m], ZeroField):
            terms[zero] = cs[m]
        d_ops.append(DiffOp(A.coords, A.rep, terms))

    out = zero_op(A.coords, A.rep)
    for alpha, F in A.terms.items():
        term_op = mult_op(conj(F), A.coords, A.rep)
        for m, k in enumerate(alpha):
            for _ in range(k):
                term_op = compose(term_op, d_ops[m])
        out = out + term_op
    return out


# ---------------------------------------------------------------------------
# cyclic reduction


def reduce_cyclic(A, dropped, spec):
    """Hamiltonian reduction dropping cyclic coordinates.

    Every coefficient field must be independent of the dropped
    coordinates (the constraint p_dropped = 0 must commute with the
    operator); this is verified by sampling first derivatives in the
    dropped directions.  A derivative along a coordinate outside a
    field's support is the zero field when it is built, so only the
    fields that read a dropped coordinate are sampled, and an operator
    none of whose coefficients reads one samples nothing.  Terms
    containing dropped-direction derivatives act as zero on the
    constrained subspace and are removed; surviving
    coefficients are restricted onto the section where the dropped
    coordinates sit at 0.  A derivative whose relative residual exceeds
    TOL_PASS, or is NaN or infinite, raises ReductionError.
    """
    dropped_pos = sorted(A.coords.index(d) if isinstance(d, str) else d
                         for d in dropped)
    keep_pos = [i for i in range(A.ncoords) if i not in dropped_pos]

    derivs = [F.deriv(unit_index(A.ncoords, dpos))
              for F in A.terms.values() for dpos in dropped_pos]
    derivs = [dF for dF in derivs if not isinstance(dF, ZeroField)]
    if derivs:
        res, = sampled_residual([derivs], spec)
        if res.relative > TOL_PASS:
            raise ReductionError("operator depends on dropped coordinates "
                                 f"(residual {res.max_abs:.3e})")

    new_coords = [A.coords[i] for i in keep_pos]
    new_terms = {}
    for alpha, F in A.terms.items():
        if any(alpha[d] for d in dropped_pos):
            continue
        new_alpha = tuple(alpha[i] for i in keep_pos)
        new_terms[new_alpha] = frestrict(F, keep_pos, [0.0] * A.ncoords)
    return DiffOp(new_coords, A.rep, new_terms)


# ---------------------------------------------------------------------------
# probabilistic zero test


def rename_coords(A, names):
    """Same operator over relabelled coordinates."""
    if len(names) != A.ncoords:
        raise OpError("coordinate rename length mismatch")
    return DiffOp(tuple(names), A.rep, dict(A.terms))


def sampled_residual(groups, spec):
    """Residual of each group of fields at the sample points of ``spec``,
    all groups evaluated in one pass.

    A group's residual is the largest entry magnitude of its fields'
    values, the first point where it is met, and the scale: the largest
    value magnitude among all the jets the group's fields are computed
    from.  A NaN ranks above every number, so the first NaN met is kept
    with its point.  The point is None when every sampled entry is
    exactly 0, and the first sample point when the group is empty.  The
    groups are compiled into one tape, run once per block of points
    (:meth:`Tape.blocks`), so a node the groups share is computed once
    per block and its jet dropped after its last use; the blocks are
    read in point order.  A ValueError or ArithmeticError raised while a
    group is evaluated (a failed positivity guard, an order overflow, a
    series that does not converge, a division by zero) becomes an
    EvaluationError that carries the group's index and the point: a
    block that raises is run again one point at a time, so the error
    names the first failing point, and its first failing group, as
    evaluating point by point would."""
    groups = [list(fields) for fields in groups]
    points = spec.points()
    tape = Tape(groups)
    found = [[0.0, None, 0.0] for _ in groups]
    for block in tape.blocks(points):
        try:
            found = _folded(found, tape, block)
        except EvaluationError:
            if len(block) == 1:
                raise
            for p in block:
                found = _folded(found, tape, [p])
    return [Residual(*acc) if fields else Residual(0.0, points[0], 0.0)
            for fields, acc in zip(groups, found)]


def _folded(found, tape, block):
    """A copy of each group's ``[max_abs, argmax, scale]`` with its
    outputs over ``block`` folded in, point by point in order.  An error
    raised in group g becomes an EvaluationError of g at the block's
    first point."""
    found = [acc[:] for acc in found]
    run = tape.run(block)
    for g, acc in enumerate(found):
        try:
            jets, scales = next(run)
        except (ValueError, ArithmeticError) as exc:
            raise EvaluationError(g, block[0], exc) from exc
        if jets:
            peaks = np.max([np.abs(split_points(jet, len(block))).max(
                axis=(1, 2, 3)) for jet in jets], axis=0)
            for p, m in zip(block, peaks.tolist()):
                if m > acc[0] or (m != m and acc[0] == acc[0]):
                    acc[0] = m
                    acc[1] = p
        for s in scales.tolist():
            if s > acc[2] or s != s:
                acc[2] = s
    return found


def is_zero(A, spec, tol=TOL_PASS):
    """Evaluate all coefficients at sampled points; pass iff the
    residual's ``relative`` is at most tol, which a NaN or infinite
    residual or scale never is."""
    if len(spec.box) != A.ncoords:
        raise OpError("sample box does not match operator coordinates")
    res, = sampled_residual([A.terms.values()], spec)
    return res.relative <= tol, res


# ---------------------------------------------------------------------------
# pretty printing


@cache
def _fermion_basis(rep):
    """Complete monomial basis of the Fock endomorphism algebra.

    Complex kind: products psi_S psibar_T over index subsets (ordered
    ascending), 4^d operators.  Hermitian kind: products psi_S, 2^D
    operators.  Color factors are not decomposed.
    """
    if rep.color_dim != 1:
        return None
    names, mats = [], []
    idx = range(rep.n)
    if rep.kind == "complex":
        for s_set in _subsets(idx):
            for t_set in _subsets(idx):
                name = " ".join([f"psi{i + 1}" for i in s_set] +
                                [f"psibar{j + 1}" for j in t_set]) or "1"
                m = np.eye(rep.dim, dtype=np.complex128)
                for i in s_set:
                    m = m @ rep.psi[i]
                for j in t_set:
                    m = m @ rep.psibar[j]
                names.append(name)
                mats.append(m)
    else:
        for s_set in _subsets(idx):
            name = " ".join(f"psi{i + 1}" for i in s_set) or "1"
            m = np.eye(rep.dim, dtype=np.complex128)
            for i in s_set:
                m = m @ rep.psi[i]
            names.append(name)
            mats.append(m)
    basis = np.stack([m.ravel() for m in mats], axis=1)
    return names, basis


def _subsets(idx):
    idx = list(idx)
    for r in range(len(idx) + 1):
        yield from itertools.combinations(idx, r)


def describe_matrix(rep, matrix):
    """Write a constant Fock matrix as a fermion-monomial combination."""
    fb = _fermion_basis(rep)
    if fb is None:
        return f"<matrix norm {np.abs(matrix).max():.3g}>"
    names, basis = fb
    coeffs, *_ = np.linalg.lstsq(basis, np.asarray(matrix).ravel(), rcond=None)
    parts = []
    for c, name in zip(coeffs, names):
        if abs(c) < 1e-10:
            continue
        parts.append(f"({_fmt_c(c)}){'' if name == '1' else ' ' + name}")
    return " + ".join(parts) if parts else "0"


def _fmt_c(z):
    z = complex(z)
    if abs(z.imag) < 1e-12:
        return f"{z.real:g}"
    if abs(z.real) < 1e-12:
        return f"{z.imag:g}i"
    return f"{z.real:g}{z.imag:+g}i"


def pretty(A):
    """Human-readable normal-ordered text of the operator."""
    if not A.terms:
        return "0"
    lines = []
    for alpha in sorted(A.terms, key=lambda a: (sum(a), a)):
        F = A.terms[alpha]
        dtxt = " ".join(f"d_{name}" * 1 for name, k in zip(A.coords, alpha)
                        for _ in range(k))
        if isinstance(F, ConstField):
            body = describe_matrix(A.rep, F.matrix)
        else:
            body = F.describe()
        lines.append(f"[{body}]" + (f" {dtxt}" if dtxt else ""))
    return "\n+ ".join(lines)
