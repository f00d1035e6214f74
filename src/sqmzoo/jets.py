"""Truncated multivariate jet arithmetic.

A jet of order K at a point packs every partial-derivative value
``d^alpha f`` (|alpha| <= K) of a smooth function into one flat array.
All arithmetic here propagates derivative values exactly through the
Leibniz rule; nothing in this module uses finite differences.

Matrix jets are complex ndarrays of shape ``(nterms, rows, cols)``,
term-major: the first axis runs over the multi-index basis of a
:class:`JetSpace` in graded lexicographic order, so each term is one
contiguous ``(rows, cols)`` plane, ``jet[0]`` is the plain value and the
order-k prefix is ``jet[:T_k]``.  Scalar jets are 1x1 matrix jets.

A jet may also hold a block of P points: the ``(nterms, P, rows,
cols)`` array of their jets, passed as its ``(nterms, P*rows, cols)``
view, so every operand stays 3-D and a one-point block is the plain jet.
Each kernel reads P off its operands' shapes (a product's second factor
has ``P*m`` rows for ``m`` columns of the first, a scalar jet has P
rows, a square matrix ``P*n`` rows for ``n`` columns) and splits the
middle axis back into ``(P, rows)``, which is always a view.  Every
point's result is bit for bit its result in a block of its own, and
what depends on a point's values stays per point: a matrix exponential
scales, sums and squares each point by that point's own norm and
stopping test, and the derivative values of a power are taken point by
point with the scalar power, which rounds differently from numpy's array
power.

Products (:meth:`JetSpace.mul`, :meth:`JetSpace.scal_mul`) run over
the term pairs ``(alpha, beta)`` with ``|alpha + beta| <= order`` and
multiply only the pairs whose two terms are both live, i.e. not
entirely zero in their factor at every point of the block.  A skipped
pair would only add exact zeros.  The kept pairs are summed into each
target term from +0, one at a time, in the order of the full table: a
pair's rank is its position among its target's pairs, and pass q adds
every rank-q pair at once, whose targets are distinct.  So the result is
bit for bit the dense one for finite factors, and the pair-by-pair
``ufunc.at`` sum over the table, zero signs included (a sum of two NaNs
may keep the other one's sign bit).  Pairwise sums such as
``np.add.reduceat`` would round differently.  A pair live at only some
points of a block adds exact zeros at the others, so it can change only
the sign of a zero there; and where the other factor is infinite, that
pair's ``0 * inf`` gives NaN, as a dense product does, where a point
alone would have skipped it.  (A residual with a NaN or infinite part
fails either way.)

A product by a constant :class:`Monomial`, a matrix with at most one
nonzero in each row and each column, each nonzero purely real or
purely imaginary (a Fock monomial, a signed permutation of the Fock
basis), runs as a signed gather: the other factor's rows (or columns)
picked and each multiplied by the one nonzero of its row (column).
Every entry of the dense product is then that one product plus exact
zeros, one exactly rounded multiply per real and imaginary part, as in
BLAS; so for finite operands the gather equals the dense product as
numbers.  It adds +0 last, so every zero is +0, as the rank passes
leave them: a gather of jets of more than one term is bit for bit
:meth:`JetSpace.mul`'s product by the constant's one term, and one of
a single term differs from the BLAS product (:func:`value_product`)
only where BLAS gives -0.  A non-finite operand has the gather return
None and the caller take the dense path, so every ``0 * inf`` NaN of
the dense product stays.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, lru_cache

import numpy as np

# Hard cap on derivative order carried through the engine.  Second-order
# operators conjugated once need jets of order ~3; 4 leaves headroom.
MAX_ORDER = 4

# Terms of the matrix_exp Taylor series, the identity included.
_EXP_TERMS = 40


class SeriesError(ArithmeticError):
    """A jet series did not converge within its term budget."""


def _multi_indices(nvars, order):
    """All multi-indices with |alpha| <= order, graded lexicographic."""
    out = set()
    for total in range(order + 1):
        for combo in itertools.combinations_with_replacement(range(nvars), total):
            alpha = [0] * nvars
            for v in combo:
                alpha[v] += 1
            out.add(tuple(alpha))
    # graded order; within a grade, earlier coordinates come first, so for
    # order >= 1 the entry 1 + i is the first derivative along coordinate i
    return sorted(out, key=lambda a: (sum(a), tuple(-x for x in a)))


def _binom_multi(alpha, beta):
    """Product of per-component binomials C(alpha_d, beta_d)."""
    w = 1
    for a, b in zip(alpha, beta):
        w *= math.comb(a, b)
    return w


class JetSpace:
    """Multi-index tables for jets in ``nvars`` variables up to ``order``."""

    def __init__(self, nvars, order):
        if order > MAX_ORDER:
            raise ValueError(f"jet order {order} exceeds cap {MAX_ORDER}")
        self.nvars = nvars
        self.order = order
        self.midx = _multi_indices(nvars, order)
        self.index = {m: i for i, m in enumerate(self.midx)}
        self.nterms = len(self.midx)
        ii, jj, kk, ww = [], [], [], []
        for i, a in enumerate(self.midx):
            sa = sum(a)
            for j, b in enumerate(self.midx):
                if sa + sum(b) > order:
                    continue
                c = tuple(x + y for x, y in zip(a, b))
                ii.append(i)
                jj.append(j)
                kk.append(self.index[c])
                ww.append(_binom_multi(c, a))
        # the pairs by rank, their position among their target's pairs in
        # table order, and by target within a rank; _ends[q] is the
        # position of the last pair of rank q
        count = [0] * self.nterms
        rank = []
        for k in kk:
            rank.append(count[k])
            count[k] += 1
        order = np.lexsort((kk, rank))
        self._ii = np.asarray(ii, dtype=np.intp)[order]
        self._jj = np.asarray(jj, dtype=np.intp)[order]
        self._kk = np.asarray(kk, dtype=np.intp)[order]
        self._ww = np.asarray(ww, dtype=np.complex128)[order]
        self._ends = np.cumsum(np.bincount(rank)) - 1
        self._plans = {}            # live masks -> the pairs (see _pairs)
        # each term's grade |alpha|, and the first term of each grade
        self._grade = np.asarray([sum(a) for a in self.midx], dtype=np.intp)
        self._grade_starts = np.flatnonzero(np.diff(self._grade, prepend=-1))

    # -- construction -------------------------------------------------

    def zeros(self, rows, cols, n=1):
        """Zero jets of ``n`` points."""
        return np.zeros((self.nterms, n * rows, cols), dtype=np.complex128)

    def const(self, matrix, n=1):
        """Constant jets of ``n`` points with the value ``matrix``, or of
        one point per matrix of an ``(n, rows, cols)`` stack."""
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim == 3:
            n = len(matrix)
        rows, cols = matrix.shape[-2:]
        out = self.zeros(rows, cols, n)
        out[0].reshape(n, rows, cols)[:] = matrix
        return out

    def coordinate(self, i, values):
        """Jets of the coordinate function x_i at points whose x_i are
        ``values`` (one number for one point)."""
        values = np.ravel(values)
        out = self.zeros(1, 1, len(values))
        out[0, :, 0] = values
        if self.order >= 1:
            unit = tuple(1 if d == i else 0 for d in range(self.nvars))
            out[self.index[unit], :, 0] = 1.0
        return out

    # -- ring operations ----------------------------------------------

    def mul(self, A, B):
        """Matrix product of jets: (T,P*r,m) x (T,P*m,c) -> (T,P*r,c).
        Either factor may be a constant's one term, (1,P*r,m) or (1,P*m,c),
        which stands for its jet with every other term zero.  Each live
        pair's product is one matrix product of two term planes, scaled
        by its binomial weight and summed by :meth:`_scatter`."""
        m, c = A.shape[2], B.shape[2]
        n = B.shape[1] // m
        if self.nterms == 1:
            return value_product(A, B, n).reshape(1, -1, c)
        ii, jj, ww, passes = self._pairs(self._live(A), self._live(B))
        prod = np.matmul(split_points(A[ii], n), split_points(B[jj], n))
        prod *= ww[:, None]
        return self._scatter(passes, join_points(prod))

    def scal_mul(self, s, A):
        """Multiply matrix jets A by scalar jets s (shape (T,P,1)); either
        may be a constant's one term, as in :meth:`mul`.  Each live pair
        scales a term plane of A by a weighted term of s, summed by
        :meth:`_scatter`."""
        n = s.shape[1]
        if self.nterms == 1:
            return join_points(s.reshape(1, n, 1, 1) * split_points(A, n))
        ii, jj, ww, passes = self._pairs(self._live(s), self._live(A))
        prod = (s[ii] * ww)[..., None] * split_points(A[jj], n)
        return self._scatter(passes, join_points(prod))

    def _live(self, jet):
        """Which of this space's terms are live in ``jet``, not zero at
        every entry and point; a one-term jet's other terms are zero."""
        live = jet.any(axis=(1, 2))
        if len(live) == self.nterms:
            return live
        out = np.zeros(self.nterms, dtype=bool)
        out[:len(live)] = live
        return out

    def _pairs(self, live_a, live_b):
        """The pairs whose terms are live in both factors, for the terms
        ``live_a`` of the first and ``live_b`` of the second, in rank
        order: their terms in each factor, their weights (L, 1, 1), and
        the passes of :meth:`_scatter`, each ``(targets, pairs)``: an
        ascending slice or index array of distinct target terms, and the
        slice of the pairs of one rank.  Built once per pair of masks."""
        key = live_a.tobytes() + live_b.tobytes()
        plan = self._plans.get(key)
        if plan is None:
            live = live_a[self._ii] & live_b[self._jj]
            kk = self._kk[live]
            passes, start = [], 0
            for stop in np.cumsum(live)[self._ends].tolist():
                if stop > start:
                    lo, hi = int(kk[start]), int(kk[stop - 1]) + 1
                    targets = (slice(lo, hi) if hi - lo == stop - start
                               else kk[start:stop])
                    passes.append((targets, slice(start, stop)))
                    start = stop
            plan = self._plans[key] = (self._ii[live], self._jj[live],
                                       self._ww[live, None, None],
                                       tuple(passes))
        return plan

    def _scatter(self, passes, prod):
        """Sum the products ``prod`` (L, P*r, c) of the live pairs into
        their target terms, as a (T, P*r, c) jet: each target from +0,
        its pairs one at a time in table order, as the pair-by-pair
        ``ufunc.at`` sum over the table would.  Each of the ``passes``
        (see :meth:`_pairs`) adds the pairs of one rank, whose targets
        are distinct, in one step."""
        out = np.zeros((self.nterms,) + prod.shape[1:], dtype=np.complex128)
        for targets, pairs in passes:
            out[targets] += prod[pairs]
        return out

    # -- derivative extraction -----------------------------------------

    @cache
    def extract_table(self, gamma, target):
        """Positions in this space of ``alpha + gamma`` for target's alphas."""
        return np.asarray(
            [self.index[tuple(a + g for a, g in zip(alpha, gamma))]
             for alpha in target.midx],
            dtype=np.intp,
        )

    def extract(self, A, gamma, target):
        """Jet of d^gamma f in ``target`` from a jet of f in this space."""
        return A[self.extract_table(gamma, target)]

    @cache
    def embedding(self, positions, target):
        """Positions in ``target``, of the same order, of this space's
        terms, whose variable d is the target's variable ``positions[d]``."""
        rows = []
        for alpha in self.midx:
            full = [0] * target.nvars
            for a, pos in zip(alpha, positions):
                full[pos] = a
            rows.append(target.index[tuple(full)])
        return np.asarray(rows, dtype=np.intp)

    # -- univariate function composition --------------------------------

    def compose_univariate(self, derivs, u):
        """Jets of f(u) for scalar jets u, given f^(m)(u0) for m = 0..order,
        each one value per point.

        Uses the truncated Taylor series of f about u0 evaluated on the
        nilpotent part of u; exact for jets because (u - u0)^(order+1)
        vanishes in the truncation.
        """
        if self.nterms == 1:
            out = self.zeros(1, 1, u.shape[1])
            out[0, :, 0] = derivs[0]
            return out
        du = u.copy()
        du[0] = 0.0
        out = self.const(
            (derivs[self.order] / math.factorial(self.order))[:, None, None])
        for m in range(self.order - 1, -1, -1):
            out = self.scal_mul(du, out)
            out[0, :, 0] += derivs[m] / math.factorial(m)
        return out

    # -- scalar functions ------------------------------------------------

    def exp(self, u):
        e = np.exp(u[0, :, 0])
        return self.compose_univariate([e] * (self.order + 1), u)

    def log(self, u):
        u0 = u[0, :, 0]
        if not u0.all():
            raise ZeroDivisionError("log of zero in jet evaluation")
        derivs = [np.log(u0)]
        for m in range(1, self.order + 1):
            derivs.append((-1.0) ** (m - 1) * math.factorial(m - 1)
                          / _power(u0, m))
        return self.compose_univariate(derivs, u)

    def powr(self, u, p, q=1):
        """u ** (p/q) for integer p, q.  Integer powers are exact products."""
        if q == 1 and p >= 0:
            out = self.const([[1.0]], u.shape[1])
            base = u
            n = p
            while n:
                if n & 1:
                    out = self.scal_mul(base, out)
                n >>= 1
                if n:
                    base = self.scal_mul(base, base)
            return out
        u0 = u[0, :, 0]
        if not u0.all():
            raise ZeroDivisionError("fractional or negative power of zero")
        r = p / q
        derivs = []
        c = 1.0
        for m in range(self.order + 1):
            derivs.append(c * _power(u0, r - m))
            c *= r - m
        return self.compose_univariate(derivs, u)

    def sqrt(self, u):
        return self.powr(u, 1, 2)

    def reciprocal(self, u):
        return self.powr(u, -1, 1)

    def sin(self, u):
        u0 = u[0, :, 0]
        cycle = [np.sin(u0), np.cos(u0), -np.sin(u0), -np.cos(u0)]
        return self.compose_univariate(
            [cycle[m % 4] for m in range(self.order + 1)], u)

    def cos(self, u):
        u0 = u[0, :, 0]
        cycle = [np.cos(u0), -np.sin(u0), -np.cos(u0), np.sin(u0)]
        return self.compose_univariate(
            [cycle[m % 4] for m in range(self.order + 1)], u)

    # -- matrix functions -------------------------------------------------

    def matrix_exp(self, A):
        """exp of square matrix jets by scaling-and-squaring Taylor series.

        Each point is scaled by its own norm, sums terms until its own
        stopping test and is squared its own number of times, so its
        result does not depend on the other points of the block.  The
        stopping test is per grade: grade g adds terms up to the first one
        whose largest entry over the grades up to g is below 1e-18, or not
        finite, and then stays stopped; the series ends once every grade
        of every point has.  A stopped grade's later terms are still
        computed with the block's but masked out of its sum, so each
        point's sum is what a block of its own gives.  A grade's sum thus
        reads only the grades up to its own, as every product does, so
        the order-k exponential is bit for bit the first terms of a
        higher-order one."""
        n = A.shape[2]
        P = A.shape[1] // n if n else 1
        A4 = split_points(A, P)
        scales = []
        for a in A4[0]:
            norm = float(np.abs(a).sum(axis=1).max(initial=0.0))
            scales.append(max(0, int(math.ceil(math.log2(norm))) + 1)
                          if norm > 1.0 else 0)
        M = join_points(A4 / 2.0 ** np.array(scales, float)[:, None, None])
        out = split_points(self.const(np.eye(n), P), P)
        term = self.const(np.eye(n), P)
        stopped = np.zeros((P, len(self._grade_starts)), dtype=bool)
        for k in range(1, _EXP_TERMS):
            term = self.mul(term, M) / k
            term4 = split_points(term, P)
            adding = ~stopped[:, self._grade].T[:, :, None, None]
            np.add(out, term4, out=out, where=adding)
            size = np.maximum.accumulate(np.maximum.reduceat(
                np.abs(term4).max(axis=(2, 3)).T, self._grade_starts, axis=1),
                axis=1)
            # a non-finite term goes on into the result, whose residual
            # then fails its relation
            stopped |= ~((size >= 1e-18) & np.isfinite(size))
            going = ~stopped.all(axis=1)
            if not going.any():
                break
        else:
            raise SeriesError(f"matrix_exp: Taylor series not converged after "
                              f"{_EXP_TERMS} terms (last term "
                              f"{size[going][0, -1]:.3e})")
        scales = np.array(scales)
        for j in range(max(scales, default=0)):
            square = np.flatnonzero(scales > j)
            jets = join_points(out[:, square])
            out[:, square] = split_points(self.mul(jets, jets), len(square))
        return join_points(out)

    def matrix_inv(self, A):
        """Inverse of square matrix jets by Newton-Schulz iteration from
        the inverse of the value.

        Each iteration doubles the number of exact grades.  The count is
        fixed at the one MAX_ORDER needs, at every order, so that the
        order-k inverse is bit for bit the first terms of a higher-order
        one: every iteration is products and a difference, which read only
        lower grades, whereas a count that grew with the order would add
        iterations that move the last bits of the lower grades."""
        n = A.shape[2]
        P = A.shape[1] // n
        X = self.const(np.linalg.inv(split_points(A, P)[0]), P)
        two_i = self.const(2.0 * np.eye(n), P)
        for _ in range(int(math.ceil(math.log2(MAX_ORDER + 1))) + 2):
            X = self.mul(X, two_i - self.mul(A, X))
        return X

    def det(self, A):
        """Determinant of square matrix jets (Leibniz expansion, n <= 5)."""
        n = A.shape[2]
        if n > 5:
            raise ValueError("jet determinant implemented for n <= 5")
        P = A.shape[1] // n
        A4 = split_points(A, P)
        out = self.zeros(1, 1, P)
        for perm in itertools.permutations(range(n)):
            sign = _perm_sign(perm)
            term = self.const([[sign]], P)
            for r, c in enumerate(perm):
                term = self.scal_mul(A4[:, :, r, c:c + 1], term)
            out = out + term
        return out


def value_product(A, B, n, out=None):
    """The matrix products of the values (first terms) of the stacked
    jets ``A`` (T, n*r, m) and ``B`` (T', n*m, c) of ``n`` points, as
    ``(n, r, c)``, into ``out`` if given."""
    m, c = A.shape[2], B.shape[2]
    return np.matmul(A[0].reshape(n, -1, m), B[0].reshape(n, m, c), out=out)


class Monomial:
    """The monomial form of an ``r x c`` matrix M with at most one nonzero
    in each row and each column, every nonzero finite and purely real or
    purely imaginary (see :func:`monomial`): ``cols[i]`` and
    ``row_vals[i]`` are the column and value of row i's nonzero,
    ``rows[j]`` and ``col_vals[j]`` the row and value of column j's, and
    an empty row or column has position 0 and value 0.

    :meth:`left` and :meth:`right` are the products ``M @ X`` and ``X @
    M`` over the last two axes of X, as gathers (see the module notes):
    None when X is not finite, for the caller's dense path.  X counts as
    finite when the sum of its entries is, which holds when every entry
    is finite, short of an overflow that only sends it to the dense path."""

    __slots__ = ("cols", "row_vals", "rows", "col_vals")

    def __init__(self, shape, i, j, vals):
        """The form of the ``shape`` matrix whose nonzeros are ``vals`` at
        rows ``i`` and columns ``j``, in distinct rows and columns."""
        r, c = shape
        self.cols, self.rows = np.zeros(r, np.intp), np.zeros(c, np.intp)
        self.row_vals = np.zeros(r, np.complex128)
        self.col_vals = np.zeros(c, np.complex128)
        self.cols[i], self.row_vals[i] = j, vals
        self.rows[j], self.col_vals[j] = i, vals

    def left(self, X, out=None):
        """``M @ X`` for X ``(..., c, k)``, into ``out`` if given, or None
        when an entry of X is not finite."""
        return _signed_take(X, self.cols, -2, self.row_vals[:, None], out)

    def right(self, X, out=None):
        """``X @ M`` for X ``(..., k, r)``, into ``out`` if given, or None
        when an entry of X is not finite."""
        return _signed_take(X, self.rows, -1, self.col_vals, out)


def _signed_take(X, index, axis, vals, out):
    """X's slices ``index`` along ``axis``, times ``vals``, plus +0, into
    ``out`` if given; None when X is not finite."""
    if not np.isfinite(X.sum()):
        return None
    out = np.take(X, index, axis=axis, out=out, mode="clip")
    out *= vals
    out += 0.0
    return out


def monomial(matrix):
    """The :class:`Monomial` form of a 2-D ``matrix``, or None when a row
    or column has two nonzeros, or a nonzero is not finite or has both a
    real and an imaginary part."""
    nz = matrix != 0
    if nz.sum(axis=0).max(initial=0) > 1 or nz.sum(axis=1).max(initial=0) > 1:
        return None
    i, j = np.nonzero(nz)
    vals = matrix[i, j]
    if not np.isfinite(vals).all() or (vals.real.astype(bool)
                                       & vals.imag.astype(bool)).any():
        return None
    return Monomial(matrix.shape, i, j, vals)


def split_points(jet, n):
    """The ``(T, n, rows, cols)`` view of the stacked jets of ``n``
    points; also splits any ``(K, n*rows, cols)`` stack of such planes."""
    return jet.reshape(len(jet), n, jet.shape[1] // n, jet.shape[2])


def join_points(jets):
    """The stacked ``(T, n*rows, cols)`` form of ``(T, n, rows, cols)``
    jets."""
    t, n, rows, cols = jets.shape
    return jets.reshape(t, n * rows, cols)


def _power(u0, e):
    """``u0 ** e`` point by point, with the scalar power: numpy's array
    power takes other paths for some exponents (0.5, -1, 2) and rounds
    differently."""
    return np.array([z ** e for z in u0])


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@lru_cache(maxsize=None)
def jet_space(nvars, order):
    return JetSpace(nvars, order)
