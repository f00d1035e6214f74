"""Truncated multivariate jet arithmetic.

A jet of order K at a point packs every partial-derivative value
``d^alpha f`` (|alpha| <= K) of a smooth function into one flat array.
All arithmetic here propagates derivative values exactly through the
Leibniz rule; nothing in this module uses finite differences.

Matrix jets are complex ndarrays of shape ``(rows, cols, nterms)``
whose last axis runs over the multi-index basis of a :class:`JetSpace`
in graded lexicographic order (so index 0 is always the plain value).
Scalar jets are 1x1 matrix jets.

Products (:meth:`JetSpace.mul`, :meth:`JetSpace.scal_mul`) run over
the term pairs ``(alpha, beta)`` with ``|alpha + beta| <= order`` and
multiply only the pairs whose two terms are both live, i.e. not
entirely zero in their factor.  A skipped pair would only add exact
zeros, and the kept pairs are summed in the same order as the full
table, so the result is bit for bit the dense one for finite factors.
(A dense product also turns ``0 * inf`` into NaN; a skipped pair does
not.)
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

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
        self._extract_cache = {}

    # -- construction -------------------------------------------------

    def zeros(self, rows, cols):
        return np.zeros((rows, cols, self.nterms), dtype=np.complex128)

    def const(self, matrix):
        matrix = np.asarray(matrix, dtype=np.complex128)
        out = self.zeros(*matrix.shape)
        out[:, :, 0] = matrix
        return out

    def coordinate(self, i, value):
        """Jet of the coordinate function x_i at the point."""
        out = self.zeros(1, 1)
        out[0, 0, 0] = value
        if self.order >= 1:
            unit = tuple(1 if d == i else 0 for d in range(self.nvars))
            out[0, 0, self.index[unit]] = 1.0
        return out

    # -- ring operations ----------------------------------------------

    def mul(self, A, B):
        """Matrix product of jets: (r,m,T) x (m,c,T) -> (r,c,T)."""
        if self.nterms == 1:
            return A[:, :, 0].dot(B[:, :, 0])[:, :, None]
        live = A.any(axis=(0, 1))[self._ii] & B.any(axis=(0, 1))[self._jj]
        Ap = A[:, :, self._ii[live]].transpose(2, 0, 1)  # (P, r, m)
        Bp = B[:, :, self._jj[live]].transpose(2, 0, 1)  # (P, m, c)
        prod = np.matmul(Ap, Bp)
        prod *= self._ww[live, None, None]
        return self._scatter(self._kk[live], prod)

    def scal_mul(self, s, A):
        """Multiply matrix jet A by scalar jet s (shape (1,1,T))."""
        if self.nterms == 1:
            return s[0, 0, 0] * A
        live = (s[0, 0] != 0)[self._ii] & A.any(axis=(0, 1))[self._jj]
        sp = s[0, 0, self._ii[live]] * self._ww[live]  # (P,)
        Ap = A[:, :, self._jj[live]].transpose(2, 0, 1)
        return self._scatter(self._kk[live], sp[:, None, None] * Ap)

    def _scatter(self, kk, prod):
        """Sum the pair products ``prod`` (P, r, c) into their terms
        ``kk``, in pair order, as an (r, c, T) jet."""
        out = np.zeros((self.nterms,) + prod.shape[1:], dtype=np.complex128)
        np.add.at(out, kk, prod)
        return out.transpose(1, 2, 0)

    # -- derivative extraction -----------------------------------------

    def extract_table(self, gamma, target):
        """Positions in this space of ``alpha + gamma`` for target's alphas."""
        key = (gamma, id(target))
        tab = self._extract_cache.get(key)
        if tab is None:
            tab = np.asarray(
                [self.index[tuple(a + g for a, g in zip(alpha, gamma))]
                 for alpha in target.midx],
                dtype=np.intp,
            )
            self._extract_cache[key] = tab
        return tab

    def extract(self, A, gamma, target):
        """Jet of d^gamma f in ``target`` from a jet of f in this space."""
        return A[:, :, self.extract_table(gamma, target)]

    # -- univariate function composition --------------------------------

    def compose_univariate(self, derivs, u):
        """Jet of f(u) for scalar jet u, given f^(m)(u0) for m = 0..order.

        Uses the truncated Taylor series of f about u0 evaluated on the
        nilpotent part of u; exact for jets because (u - u0)^(order+1)
        vanishes in the truncation.
        """
        if self.nterms == 1:
            out = self.zeros(1, 1)
            out[0, 0, 0] = derivs[0]
            return out
        du = u.copy()
        du[0, 0, 0] = 0.0
        out = self.const([[derivs[self.order] / math.factorial(self.order)]])
        for m in range(self.order - 1, -1, -1):
            out = self.scal_mul(du, out)
            out[0, 0, 0] += derivs[m] / math.factorial(m)
        return out

    # -- scalar functions ------------------------------------------------

    def exp(self, u):
        e = np.exp(u[0, 0, 0])
        return self.compose_univariate([e] * (self.order + 1), u)

    def log(self, u):
        u0 = u[0, 0, 0]
        if u0 == 0:
            raise ZeroDivisionError("log of zero in jet evaluation")
        derivs = [np.log(u0)]
        for m in range(1, self.order + 1):
            derivs.append((-1.0) ** (m - 1) * math.factorial(m - 1) / u0 ** m)
        return self.compose_univariate(derivs, u)

    def powr(self, u, p, q=1):
        """u ** (p/q) for integer p, q.  Integer powers are exact products."""
        if q == 1 and p >= 0:
            out = self.const([[1.0]])
            base = u
            n = p
            while n:
                if n & 1:
                    out = self.scal_mul(base, out)
                n >>= 1
                if n:
                    base = self.scal_mul(base, base)
            return out
        u0 = u[0, 0, 0]
        if u0 == 0:
            raise ZeroDivisionError("fractional or negative power of zero")
        r = p / q
        derivs = []
        c = 1.0
        for m in range(self.order + 1):
            derivs.append(c * u0 ** (r - m))
            c *= r - m
        return self.compose_univariate(derivs, u)

    def sqrt(self, u):
        return self.powr(u, 1, 2)

    def reciprocal(self, u):
        return self.powr(u, -1, 1)

    def sin(self, u):
        u0 = u[0, 0, 0]
        cycle = [np.sin(u0), np.cos(u0), -np.sin(u0), -np.cos(u0)]
        return self.compose_univariate(
            [cycle[m % 4] for m in range(self.order + 1)], u)

    def cos(self, u):
        u0 = u[0, 0, 0]
        cycle = [np.cos(u0), -np.sin(u0), -np.cos(u0), np.sin(u0)]
        return self.compose_univariate(
            [cycle[m % 4] for m in range(self.order + 1)], u)

    # -- matrix functions -------------------------------------------------

    def matrix_exp(self, A):
        """exp of a square matrix jet by scaling-and-squaring Taylor series."""
        n = A.shape[0]
        norm = float(np.max(np.sum(np.abs(A[:, :, 0]), axis=1))) if n else 0.0
        s = max(0, int(math.ceil(math.log2(norm))) + 1) if norm > 1.0 else 0
        M = A / (2.0 ** s)
        out = self.const(np.eye(n))
        term = self.const(np.eye(n))
        for k in range(1, _EXP_TERMS):
            term = self.mul(term, M) / k
            out = out + term
            size = float(np.max(np.abs(term)))
            # a non-finite term goes on into the result, whose residual
            # then fails its relation
            if size < 1e-18 or not math.isfinite(size):
                break
        else:
            raise SeriesError(f"matrix_exp: Taylor series not converged after "
                              f"{_EXP_TERMS} terms (last term {size:.3e})")
        for _ in range(s):
            out = self.mul(out, out)
        return out

    def matrix_inv(self, A):
        """Inverse of a square matrix jet by Newton-Schulz iteration."""
        n = A.shape[0]
        X = self.const(np.linalg.inv(A[:, :, 0]))
        two_i = self.const(2.0 * np.eye(n))
        iters = max(2, int(math.ceil(math.log2(self.order + 1))) + 2)
        for _ in range(iters):
            X = self.mul(X, two_i - self.mul(A, X))
        return X

    def det(self, A):
        """Determinant of a square matrix jet (Leibniz expansion, n <= 5)."""
        n = A.shape[0]
        if n > 5:
            raise ValueError("jet determinant implemented for n <= 5")
        out = self.zeros(1, 1)
        for perm in itertools.permutations(range(n)):
            sign = _perm_sign(perm)
            term = self.const([[sign]])
            for r, c in enumerate(perm):
                term = self.scal_mul(A[r:r + 1, c:c + 1, :], term)
            out = out + term
        return out


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
