"""Truncated multivariate jet arithmetic.

A jet of order K at a point packs every partial-derivative value
``d^alpha f`` (|alpha| <= K) of a smooth function into one flat array.
All arithmetic here propagates derivative values exactly through the
Leibniz rule; nothing in this module uses finite differences.

Matrix jets are complex ndarrays of shape ``(rows, cols, nterms)``
whose last axis runs over the multi-index basis of a :class:`JetSpace`
in graded lexicographic order (so index 0 is always the plain value).
Scalar jets are 1x1 matrix jets.

A jet may also hold a block of P points: the ``(P, rows, cols,
nterms)`` array of their jets, passed as its ``(P*rows, cols, nterms)``
view, so every operand stays 3-D and a one-point block is the plain jet.
Each kernel reads P off its operands' shapes (a product's second factor
has ``P*m`` rows for ``m`` columns of the first, a scalar jet has P
rows, a square matrix ``P*n`` rows for ``n`` columns) and splits the
first axis back into ``(P, rows)``, which is always a view.  Every
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
pair would only add exact zeros, and the kept pairs are summed in the
same order as the full table, so the result is bit for bit the dense
one for finite factors.  A pair live at only some points of a block
adds exact zeros at the others, so it can change only the sign of a
zero there; and where the other factor is infinite, that pair's
``0 * inf`` gives NaN, as a dense product does, where a point alone
would have skipped it.  (A residual with a NaN or infinite part fails
either way.)
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
        self._ii = np.asarray(ii, dtype=np.intp)
        self._jj = np.asarray(jj, dtype=np.intp)
        self._kk = np.asarray(kk, dtype=np.intp)
        self._ww = np.asarray(ww, dtype=np.complex128)
        # each term's grade |alpha|, and the first term of each grade
        self._grade = np.asarray([sum(a) for a in self.midx], dtype=np.intp)
        self._grade_starts = np.flatnonzero(np.diff(self._grade, prepend=-1))

    # -- construction -------------------------------------------------

    def zeros(self, rows, cols, n=1):
        """Zero jets of ``n`` points."""
        return np.zeros((n * rows, cols, self.nterms), dtype=np.complex128)

    def const(self, matrix, n=1):
        """Constant jets of ``n`` points with the value ``matrix``, or of
        one point per matrix of an ``(n, rows, cols)`` stack."""
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim == 3:
            n = len(matrix)
        rows, cols = matrix.shape[-2:]
        out = self.zeros(rows, cols, n)
        out.reshape(n, rows, cols, self.nterms)[..., 0] = matrix
        return out

    def coordinate(self, i, values):
        """Jets of the coordinate function x_i at points whose x_i are
        ``values`` (one number for one point)."""
        values = np.ravel(values)
        out = self.zeros(1, 1, len(values))
        out[:, 0, 0] = values
        if self.order >= 1:
            unit = tuple(1 if d == i else 0 for d in range(self.nvars))
            out[:, 0, self.index[unit]] = 1.0
        return out

    # -- ring operations ----------------------------------------------

    def mul(self, A, B):
        """Matrix product of jets: (P*r,m,T) x (P*m,c,T) -> (P*r,c,T).
        Either factor may be a constant's one term, (P*r,m,1) or (P*m,c,1),
        which stands for its jet with every other term zero."""
        m, c = A.shape[1], B.shape[1]
        n = B.shape[0] // m
        if self.nterms == 1:
            return value_product(A, B, n).reshape(-1, c, 1)
        live = self._live(A)[self._ii] & self._live(B)[self._jj]
        prod = np.matmul(_terms(A, n, self._ii[live]),
                         _terms(B, n, self._jj[live]))  # (L, P, r, c)
        prod *= self._ww[live, None, None, None]
        return self._scatter(self._kk[live], prod)

    def scal_mul(self, s, A):
        """Multiply matrix jets A by scalar jets s (shape (P,1,T)); either
        may be a constant's one term, as in :meth:`mul`."""
        n = s.shape[0]
        if self.nterms == 1:
            return join_points(s.reshape(n, 1, 1, 1) * split_points(A, n))
        live = self._live(s)[self._ii] & self._live(A)[self._jj]
        s = s[:, 0]
        sp = (s[:, self._ii[live]] * self._ww[live]).T   # (L, P)
        prod = sp[:, :, None, None] * _terms(A, n, self._jj[live])
        return self._scatter(self._kk[live], prod)

    def _live(self, jet):
        """Which of this space's terms are live in ``jet``, not zero at
        every entry and point; a one-term jet's other terms are zero."""
        live = jet.any(axis=(0, 1))
        if len(live) == self.nterms:
            return live
        out = np.zeros(self.nterms, dtype=bool)
        out[:len(live)] = live
        return out

    def _scatter(self, kk, prod):
        """Sum the pair products ``prod`` (L, P, r, c) into their terms
        ``kk``, in pair order, as a (P*r, c, T) jet."""
        out = np.zeros((self.nterms,) + prod.shape[1:], dtype=np.complex128)
        np.add.at(out, kk, prod)
        return join_points(out.transpose(1, 2, 3, 0))

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
        return A[:, :, self.extract_table(gamma, target)]

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
            out = self.zeros(1, 1, len(u))
            out[:, 0, 0] = derivs[0]
            return out
        du = u.copy()
        du[:, 0, 0] = 0.0
        out = self.const(
            (derivs[self.order] / math.factorial(self.order))[:, None, None])
        for m in range(self.order - 1, -1, -1):
            out = self.scal_mul(du, out)
            out[:, 0, 0] += derivs[m] / math.factorial(m)
        return out

    # -- scalar functions ------------------------------------------------

    def exp(self, u):
        e = np.exp(u[:, 0, 0])
        return self.compose_univariate([e] * (self.order + 1), u)

    def log(self, u):
        u0 = u[:, 0, 0]
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
            out = self.const([[1.0]], len(u))
            base = u
            n = p
            while n:
                if n & 1:
                    out = self.scal_mul(base, out)
                n >>= 1
                if n:
                    base = self.scal_mul(base, base)
            return out
        u0 = u[:, 0, 0]
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
        u0 = u[:, 0, 0]
        cycle = [np.sin(u0), np.cos(u0), -np.sin(u0), -np.cos(u0)]
        return self.compose_univariate(
            [cycle[m % 4] for m in range(self.order + 1)], u)

    def cos(self, u):
        u0 = u[:, 0, 0]
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
        finite, and then stays stopped; a point stops once all its grades
        have.  A grade's sum thus reads only the grades up to its own, as
        every product does, so the order-k exponential is bit for bit the
        first terms of a higher-order one."""
        n = A.shape[1]
        P = A.shape[0] // n if n else 1
        A4 = split_points(A, P)
        scales = []
        for a in A4:
            norm = float(np.abs(a[..., 0]).sum(axis=1).max(initial=0.0))
            scales.append(max(0, int(math.ceil(math.log2(norm))) + 1)
                          if norm > 1.0 else 0)
        M = A4 / (2.0 ** np.array(scales, dtype=float))[:, None, None, None]
        out = split_points(self.const(np.eye(n), P), P)
        term = self.const(np.eye(n), P)
        running = np.arange(P)          # the points still adding terms
        stopped = np.zeros((P, len(self._grade_starts)), dtype=bool)
        for k in range(1, _EXP_TERMS):
            term = self.mul(term, join_points(M)) / k
            term4 = split_points(term, len(running))
            adding = ~stopped[:, self._grade][:, None, None, :]
            acc = out[running]
            np.add(acc, term4, out=acc, where=adding)
            out[running] = acc
            size = np.maximum.accumulate(np.maximum.reduceat(
                np.abs(term4).max(axis=(1, 2)), self._grade_starts, axis=1),
                axis=1)
            # a non-finite term goes on into the result, whose residual
            # then fails its relation
            stopped |= ~((size >= 1e-18) & np.isfinite(size))
            going = ~stopped.all(axis=1)
            if not going.any():
                break
            if not going.all():
                running, M, stopped = running[going], M[going], stopped[going]
                term = join_points(term4[going])
        else:
            raise SeriesError(f"matrix_exp: Taylor series not converged after "
                              f"{_EXP_TERMS} terms (last term "
                              f"{size[going][0, -1]:.3e})")
        scales = np.array(scales)
        for j in range(max(scales, default=0)):
            square = np.flatnonzero(scales > j)
            jets = join_points(out[square])
            out[square] = split_points(self.mul(jets, jets), len(square))
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
        n = A.shape[1]
        P = A.shape[0] // n
        X = self.const(np.linalg.inv(split_points(A, P)[..., 0]), P)
        two_i = self.const(2.0 * np.eye(n), P)
        for _ in range(int(math.ceil(math.log2(MAX_ORDER + 1))) + 2):
            X = self.mul(X, two_i - self.mul(A, X))
        return X

    def det(self, A):
        """Determinant of square matrix jets (Leibniz expansion, n <= 5)."""
        n = A.shape[1]
        if n > 5:
            raise ValueError("jet determinant implemented for n <= 5")
        P = A.shape[0] // n
        A4 = split_points(A, P)
        out = self.zeros(1, 1, P)
        for perm in itertools.permutations(range(n)):
            sign = _perm_sign(perm)
            term = self.const([[sign]], P)
            for r, c in enumerate(perm):
                term = self.scal_mul(A4[:, r, c:c + 1, :], term)
            out = out + term
        return out


def value_product(A, B, n, out=None):
    """The matrix products of the values (first terms) of the stacked
    jets ``A`` (n*r, m, T) and ``B`` (n*m, c, T') of ``n`` points, as
    ``(n, r, c)``, into ``out`` if given."""
    m, c = A.shape[1], B.shape[1]
    return np.matmul(np.ascontiguousarray(A[:, :, 0]).reshape(n, -1, m),
                     np.ascontiguousarray(B[:, :, 0]).reshape(n, m, c),
                     out=out)


def split_points(jet, n):
    """The ``(n, rows, cols, T)`` view of the stacked jets of ``n`` points."""
    return jet.reshape(n, -1, *jet.shape[1:])


def join_points(jets):
    """The stacked ``(n*rows, cols, T)`` form of ``(n, rows, cols, T)``
    jets."""
    return jets.reshape(-1, *jets.shape[2:])


def _terms(jet, n, idx):
    """Terms ``idx`` of the stacked jets of ``n`` points, as ``(len(idx),
    n, rows, cols)``."""
    return split_points(jet, n)[..., idx].transpose(3, 0, 1, 2)


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
