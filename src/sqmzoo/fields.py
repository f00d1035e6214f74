"""Matrix-valued fields over real coordinates, evaluated as exact jets.

A Field is an immutable DAG node: an expression grid, or a composite
(sum, product, scalar multiple, matrix exponential, inverse, conjugate
transpose, derivative, determinant, restriction).  Evaluation at a
point produces a jet matrix carrying exact partial derivatives up to a
requested order.

All evaluation at one sample point goes through one EvalContext, which
caches jets by ``(id(node), order)`` so a node shared by many parents,
or by many relations of one check, is computed once per point.  Each
node declares in :meth:`Field.deps` the ``(child, order)`` requests its
``_compute`` makes; :func:`plan_requests` counts them over a batch of
roots before the first point, and a context built with that count
stores only the jets requested more than once and drops each one at its
last request.  Every cache entry also carries its subtree maximum, the
largest ``|value|`` of its own jet and of every jet it was computed
from, which is the scale a residual is measured against.  Fields
themselves hold no evaluation state; a context belongs to one point and
one caller.
"""

from __future__ import annotations

import numpy as np

from .expr import Expr
from .jets import MAX_ORDER, jet_space


class OrderOverflow(ValueError):
    """A derivative request exceeded the engine's jet-order cap."""


class PlanError(RuntimeError):
    """A node requested a jet its declared dependencies do not count."""


class _Mag:
    """Largest value magnitude met in one subtree of a DAG walk; a NaN,
    once met, stays."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def update(self, arr):
        if arr.size:
            m = float(np.abs(arr[..., 0]).max())
            if m > self.value or m != m:
                self.value = m


def plan_requests(roots):
    """Number of times evaluating each of ``roots`` at order 0 requests
    each ``(id(node), order)``, from the nodes' declared dependencies.

    The nodes must outlive every context that uses the plan, so that no
    id is reused while the plan is in force."""
    counts = {}
    todo = [(f, 0) for f in roots]
    while todo:
        node, order = todo.pop()
        key = (id(node), order)
        n = counts.get(key)
        if n is None:
            counts[key] = 1
            todo.extend(node.deps(order))
        else:
            counts[key] = n + 1
    return counts


class EvalContext:
    """Evaluation state of one sample point.

    ``cache`` maps ``(id(node), order)`` to ``(jet, subtree maximum)``.
    With a ``plan`` from :func:`plan_requests`, an entry is stored only
    when more requests for it are still to come and is dropped at the
    last one, and a request the plan does not count raises PlanError.
    Without a plan every entry is kept while the context lives.
    """

    def __init__(self, point, plan=None):
        self.point = tuple(float(x) for x in point)
        self.cache = {}
        # requests still to come per key, counted down as they arrive
        self.left = None if plan is None else dict(plan)
        # one _Mag per node being computed; the bottom one collects the
        # roots of a group (see values)
        self.frames = [_Mag()]
        self._subs = {}
        self._coord_jets = {}

    def coord_jets(self, order):
        jets = self._coord_jets.get(order)
        if jets is None:
            space = jet_space(len(self.point), order)
            jets = [space.coordinate(i, x) for i, x in enumerate(self.point)]
            self._coord_jets[order] = jets
        return jets

    def sub(self, point):
        """Unplanned context at another point whose subtree maxima count
        towards the node that asked for it."""
        key = tuple(point)
        ctx = self._subs.get(key)
        if ctx is None:
            ctx = EvalContext(key)
            ctx.frames = self.frames
            self._subs[key] = ctx
        return ctx

    def values(self, fields, order=0):
        """Jets of ``fields`` and the largest ``|value|`` met while
        evaluating them, cached subtrees included."""
        mag = _Mag()
        self.frames.append(mag)
        try:
            jets = [f.eval_jet(self, order) for f in fields]
        finally:
            self.frames.pop()
        return jets, mag.value


class Field:
    """Base class; subclasses set ``shape`` and ``ncoords``, implement
    :meth:`_compute`, and list in :meth:`deps` every jet it requests."""

    shape = (1, 1)
    ncoords = 0

    def eval_jet(self, ctx, order=0):
        key = (id(self), order)
        left = ctx.left
        if left is not None:
            n = left.get(key, 0) - 1
            if n < 0:
                raise PlanError(f"{self!r} at order {order} requested more "
                                "often than the declared dependencies say")
            left[key] = n
        entry = ctx.cache.get(key)
        if entry is None:
            mag = _Mag()
            frames = ctx.frames
            frames.append(mag)
            try:
                res = self._compute(ctx, order)
            finally:
                frames.pop()
            mag.update(res)
            entry = (res, mag.value)
            if left is None or n:
                ctx.cache[key] = entry
        elif left is not None and not n:
            del ctx.cache[key]
        res, m = entry
        top = ctx.frames[-1]
        if m > top.value or m != m:
            top.value = m
        return res

    def _compute(self, ctx, order):
        raise NotImplementedError

    def deps(self, order):
        """The ``(child, order)`` jets :meth:`_compute` requests from
        ``ctx`` at ``order``, once per request."""
        return ()

    @property
    def is_scalar(self):
        return self.shape == (1, 1)

    def deriv(self, gamma):
        if not any(gamma):
            return self
        return DerivativeField(self, gamma)

    def conj_t(self):
        return ConjTransposeField(self)

    def describe(self):
        return type(self).__name__

    def __repr__(self):
        return f"<{self.describe()} {self.shape}>"


def evaluate(field, point, order=0, ctx=None):
    """Jet matrix of ``field`` at ``point`` (tuple of reals)."""
    if ctx is None:
        ctx = EvalContext(point)
    return field.eval_jet(ctx, order)


# ---------------------------------------------------------------------------
# leaves


class ZeroField(Field):
    def __init__(self, shape, ncoords):
        self.shape = shape
        self.ncoords = ncoords

    def _compute(self, ctx, order):
        return jet_space(self.ncoords, order).zeros(*self.shape)

    def deriv(self, gamma):
        return self

    def conj_t(self):
        return ZeroField((self.shape[1], self.shape[0]), self.ncoords)

    def describe(self):
        return "0"


class ConstField(Field):
    def __init__(self, matrix, ncoords, name=None):
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        if self.matrix.ndim != 2:
            raise ValueError("constant fields are matrices")
        self.shape = self.matrix.shape
        self.ncoords = ncoords
        self.name = name

    def _compute(self, ctx, order):
        return jet_space(self.ncoords, order).const(self.matrix)

    def deriv(self, gamma):
        if not any(gamma):
            return self
        return ZeroField(self.shape, self.ncoords)

    def conj_t(self):
        return ConstField(self.matrix.conj().T, self.ncoords)

    def describe(self):
        if self.name:
            return self.name
        if self.shape == (1, 1):
            return f"const({self.matrix[0, 0]:g})"
        return f"const{self.shape}"


class ExprField(Field):
    """1x1 field wrapping a scalar DSL expression."""

    def __init__(self, expr, ncoords, name=None):
        if not isinstance(expr, Expr):
            raise TypeError("ExprField wraps an Expr")
        self.expr = expr
        self.ncoords = ncoords
        self.name = name

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        return self.expr.eval_jet(space, ctx.coord_jets(order))

    def describe(self):
        from .expr import to_text

        return self.name or to_text(self.expr)


class GridField(Field):
    """Matrix assembled from a 2D grid of scalar fields."""

    def __init__(self, entries):
        rows = len(entries)
        cols = len(entries[0])
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged grid")
            for e in row:
                if not e.is_scalar:
                    raise ValueError("grid entries must be scalar fields")
        self.entries = tuple(tuple(row) for row in entries)
        self.shape = (rows, cols)
        self.ncoords = entries[0][0].ncoords

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        out = space.zeros(*self.shape)
        for r, row in enumerate(self.entries):
            for c, e in enumerate(row):
                out[r, c, :] = e.eval_jet(ctx, order)[0, 0, :]
        return out


    def deps(self, order):
        return [(e, order) for row in self.entries for e in row]

    def deriv(self, gamma):
        if not any(gamma):
            return self
        return GridField([[e.deriv(gamma) for e in row] for row in self.entries])

    def describe(self):
        return f"grid{self.shape}"


# ---------------------------------------------------------------------------
# composites


class SumField(Field):
    def __init__(self, children):
        first = children[0]
        for ch in children:
            if ch.shape != first.shape:
                raise ValueError("sum of mismatched shapes")
        self.children = tuple(children)
        self.shape = first.shape
        self.ncoords = first.ncoords

    def _compute(self, ctx, order):
        out = self.children[0].eval_jet(ctx, order).copy()
        for ch in self.children[1:]:
            out += ch.eval_jet(ctx, order)
        return out


    def deps(self, order):
        return [(ch, order) for ch in self.children]

    def deriv(self, gamma):
        if not any(gamma):
            return self
        return fsum([ch.deriv(gamma) for ch in self.children],
                    self.shape, self.ncoords)

    def conj_t(self):
        return fsum([ch.conj_t() for ch in self.children],
                    (self.shape[1], self.shape[0]), self.ncoords)

    def describe(self):
        return " + ".join(ch.describe() for ch in self.children)


class ScaleField(Field):
    def __init__(self, coeff, child):
        self.coeff = complex(coeff)
        self.child = child
        self.shape = child.shape
        self.ncoords = child.ncoords

    def _compute(self, ctx, order):
        return self.coeff * self.child.eval_jet(ctx, order)


    def deps(self, order):
        return ((self.child, order),)

    def deriv(self, gamma):
        if not any(gamma):
            return self
        return fscale(self.coeff, self.child.deriv(gamma))

    def conj_t(self):
        return fscale(self.coeff.conjugate(), self.child.conj_t())

    def describe(self):
        return f"({_cfmt(self.coeff)})*{self.child.describe()}"


class MatMulField(Field):
    def __init__(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul shape mismatch {a.shape} x {b.shape}")
        if a.ncoords != b.ncoords:
            raise ValueError("matmul over different coordinate spaces")
        self.a = a
        self.b = b
        self.shape = (a.shape[0], b.shape[1])
        self.ncoords = a.ncoords

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        return space.mul(self.a.eval_jet(ctx, order), self.b.eval_jet(ctx, order))


    def deps(self, order):
        return ((self.a, order), (self.b, order))

    def conj_t(self):
        return fmatmul(self.b.conj_t(), self.a.conj_t())

    def describe(self):
        return f"{self.a.describe()}.{self.b.describe()}"


class ScalarMulField(Field):
    """Pointwise product of a scalar field with a matrix field."""

    def __init__(self, scalar, child):
        if not scalar.is_scalar:
            raise ValueError("first factor must be scalar")
        self.scalar = scalar
        self.child = child
        self.shape = child.shape
        self.ncoords = child.ncoords

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        return space.scal_mul(self.scalar.eval_jet(ctx, order),
                              self.child.eval_jet(ctx, order))


    def deps(self, order):
        return ((self.scalar, order), (self.child, order))

    def conj_t(self):
        return ScalarMulField(self.scalar.conj_t(), self.child.conj_t())

    def describe(self):
        return f"({self.scalar.describe()})*{self.child.describe()}"


class ConjTransposeField(Field):
    def __init__(self, child):
        self.child = child
        self.shape = (child.shape[1], child.shape[0])
        self.ncoords = child.ncoords

    def _compute(self, ctx, order):
        jet = self.child.eval_jet(ctx, order)
        return np.conj(np.swapaxes(jet, 0, 1))


    def deps(self, order):
        return ((self.child, order),)

    def deriv(self, gamma):
        if not any(gamma):
            return self
        return ConjTransposeField(self.child.deriv(gamma))

    def conj_t(self):
        return self.child

    def describe(self):
        return f"({self.child.describe()})^+"


class TransposeField(Field):
    """Plain transpose, no conjugation."""

    def __init__(self, child):
        self.child = child
        self.shape = (child.shape[1], child.shape[0])
        self.ncoords = child.ncoords

    def _compute(self, ctx, order):
        return np.swapaxes(self.child.eval_jet(ctx, order), 0, 1)


    def deps(self, order):
        return ((self.child, order),)

    def deriv(self, gamma):
        if not any(gamma):
            return self
        return TransposeField(self.child.deriv(gamma))

    def describe(self):
        return f"({self.child.describe()})^T"


class DerivativeField(Field):
    def __init__(self, child, gamma):
        self.child = child
        self.gamma = tuple(int(g) for g in gamma)
        if len(self.gamma) != child.ncoords:
            raise ValueError("derivative multi-index length mismatch")
        self.shape = child.shape
        self.ncoords = child.ncoords

    def _compute(self, ctx, order):
        total = order + sum(self.gamma)
        if total > MAX_ORDER:
            raise OrderOverflow(
                f"derivative request of order {total} exceeds cap {MAX_ORDER}")
        parent = jet_space(self.ncoords, total)
        target = jet_space(self.ncoords, order)
        return parent.extract(self.child.eval_jet(ctx, total), self.gamma, target)


    def deps(self, order):
        return ((self.child, order + sum(self.gamma)),)

    def deriv(self, gamma):
        merged = tuple(a + b for a, b in zip(self.gamma, gamma))
        return DerivativeField(self.child, merged)

    def conj_t(self):
        return DerivativeField(self.child.conj_t(), self.gamma)

    def describe(self):
        names = [f"d{i}" for i, g in enumerate(self.gamma) for _ in range(g)]
        return f"{''.join(names)}[{self.child.describe()}]"


class MatExpField(Field):
    def __init__(self, child):
        if child.shape[0] != child.shape[1]:
            raise ValueError("matrix exponential of a non-square field")
        self.child = child
        self.shape = child.shape
        self.ncoords = child.ncoords

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        return space.matrix_exp(self.child.eval_jet(ctx, order))


    def deps(self, order):
        return ((self.child, order),)

    def conj_t(self):
        return MatExpField(self.child.conj_t())

    def describe(self):
        return f"exp({self.child.describe()})"


class InverseField(Field):
    def __init__(self, child):
        if child.shape[0] != child.shape[1]:
            raise ValueError("inverse of a non-square field")
        self.child = child
        self.shape = child.shape
        self.ncoords = child.ncoords

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        return space.matrix_inv(self.child.eval_jet(ctx, order))


    def deps(self, order):
        return ((self.child, order),)

    def describe(self):
        return f"inv({self.child.describe()})"


class DetField(Field):
    def __init__(self, child):
        if child.shape[0] != child.shape[1]:
            raise ValueError("determinant of a non-square field")
        self.child = child
        self.shape = (1, 1)
        self.ncoords = child.ncoords

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        return space.det(self.child.eval_jet(ctx, order))


    def deps(self, order):
        return ((self.child, order),)

    def describe(self):
        return f"det({self.child.describe()})"


class ScalarFnField(Field):
    """log or sqrt of a scalar field."""

    def __init__(self, op, child):
        if op not in ("log", "sqrt", "exp"):
            raise ValueError(f"unknown scalar function {op!r}")
        if not child.is_scalar:
            raise ValueError("scalar function of a matrix field")
        self.op = op
        self.child = child
        self.ncoords = child.ncoords

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        return getattr(space, self.op)(self.child.eval_jet(ctx, order))


    def deps(self, order):
        return ((self.child, order),)

    def describe(self):
        return f"{self.op}({self.child.describe()})"


class PowField(Field):
    """Scalar field raised to a rational power p/q."""

    def __init__(self, child, p, q=1):
        if not child.is_scalar:
            raise ValueError("power of a matrix field")
        self.child = child
        self.p = int(p)
        self.q = int(q)
        self.ncoords = child.ncoords

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        return space.powr(self.child.eval_jet(ctx, order), self.p, self.q)


    def deps(self, order):
        return ((self.child, order),)

    def describe(self):
        return f"({self.child.describe()})^({self.p}/{self.q})"


class PositiveGuardField(Field):
    """Scalar pass-through that rejects evaluation at nonpositive values."""

    def __init__(self, child, what="field"):
        if not child.is_scalar:
            raise ValueError("positivity guard applies to scalar fields")
        self.child = child
        self.what = what
        self.ncoords = child.ncoords

    def _compute(self, ctx, order):
        jet = self.child.eval_jet(ctx, order)
        v = jet[0, 0, 0]
        if not (v.real > 0 and abs(v.imag) <= 1e-12 * (1 + abs(v.real))):
            raise ValueError(
                f"{self.what} must be positive, got {v:g} at {ctx.point}")
        return jet


    def deps(self, order):
        return ((self.child, order),)

    def describe(self):
        return self.child.describe()


class EntryField(Field):
    """Scalar extraction of one matrix entry."""

    def __init__(self, parent, r, c):
        self.parent = parent
        self.r = r
        self.c = c
        self.ncoords = parent.ncoords

    def _compute(self, ctx, order):
        jet = self.parent.eval_jet(ctx, order)
        return jet[self.r:self.r + 1, self.c:self.c + 1, :]


    def deps(self, order):
        return ((self.parent, order),)

    def deriv(self, gamma):
        if not any(gamma):
            return self
        return EntryField(self.parent.deriv(gamma), self.r, self.c)

    def describe(self):
        return f"{self.parent.describe()}[{self.r},{self.c}]"


class DiagField(Field):
    """Scalar field times the n x n identity."""

    def __init__(self, scalar, n):
        if not scalar.is_scalar:
            raise ValueError("DiagField takes a scalar field")
        self.scalar = scalar
        self.n = n
        self.shape = (n, n)
        self.ncoords = scalar.ncoords

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        s = self.scalar.eval_jet(ctx, order)
        out = space.zeros(self.n, self.n)
        for k in range(self.n):
            out[k, k, :] = s[0, 0, :]
        return out


    def deps(self, order):
        return ((self.scalar, order),)

    def deriv(self, gamma):
        if not any(gamma):
            return self
        return DiagField(self.scalar.deriv(gamma), self.n)

    def conj_t(self):
        return DiagField(ScalarConjField(self.scalar), self.n)

    def describe(self):
        return f"({self.scalar.describe()})*1"


class ScalarConjField(Field):
    def __init__(self, child):
        if not child.is_scalar:
            raise ValueError("scalar conjugate of a matrix field")
        self.child = child
        self.ncoords = child.ncoords

    def _compute(self, ctx, order):
        return np.conj(self.child.eval_jet(ctx, order))


    def deps(self, order):
        return ((self.child, order),)

    def deriv(self, gamma):
        if not any(gamma):
            return self
        return ScalarConjField(self.child.deriv(gamma))

    def describe(self):
        return f"conj({self.child.describe()})"


class RestrictField(Field):
    """A field over fewer coordinates: the parent evaluated on a slice.

    ``keep`` lists the parent coordinate positions that survive; all the
    other parent coordinates are frozen at ``fixed`` values.  Only valid
    when the parent does not actually depend on the frozen coordinates
    (the reduction machinery verifies this before constructing one).
    The parent is evaluated in an unplanned sub-context at the full
    point, so this node declares no dependencies in its own context.
    """

    def __init__(self, child, keep, fixed):
        self.child = child
        self.keep = tuple(keep)
        self.fixed = tuple(float(x) for x in fixed)
        if len(self.fixed) != child.ncoords:
            raise ValueError("fixed point must cover all parent coordinates")
        self.shape = child.shape
        self.ncoords = len(self.keep)
        self._tables = {}

    def _compute(self, ctx, order):
        full_point = list(self.fixed)
        for k, pos in enumerate(self.keep):
            full_point[pos] = ctx.point[k]
        sub = ctx.sub(full_point)
        jet = self.child.eval_jet(sub, order)
        table = self._tables.get(order)
        if table is None:
            parent_space = jet_space(self.child.ncoords, order)
            target_space = jet_space(self.ncoords, order)
            rows = []
            for alpha in target_space.midx:
                full = [0] * self.child.ncoords
                for k, pos in enumerate(self.keep):
                    full[pos] = alpha[k]
                rows.append(parent_space.index[tuple(full)])
            table = np.asarray(rows, dtype=np.intp)
            self._tables[order] = table
        return jet[:, :, table]

    def describe(self):
        return f"restrict({self.child.describe()})"


# ---------------------------------------------------------------------------
# folding constructors


def fconst(matrix, ncoords, name=None):
    m = np.asarray(matrix, dtype=np.complex128)
    if not m.any():
        return ZeroField(m.shape, ncoords)
    return ConstField(m, ncoords, name)


def fidentity(n, ncoords):
    return ConstField(np.eye(n), ncoords)


def fexpr(expr, ncoords, name=None):
    return ExprField(expr, ncoords, name)


def fsum(children, shape=None, ncoords=None):
    children = list(children)
    if not children:
        if shape is None or ncoords is None:
            raise ValueError("empty sum needs explicit shape and ncoords")
        return ZeroField(shape, ncoords)
    flat = []
    const_acc = None
    for ch in children:
        if isinstance(ch, ZeroField):
            continue
        if isinstance(ch, SumField):
            children2 = ch.children
        else:
            children2 = (ch,)
        for c in children2:
            if isinstance(c, ConstField):
                const_acc = c.matrix if const_acc is None else const_acc + c.matrix
            else:
                flat.append(c)
    if const_acc is not None:
        if flat:
            cf = fconst(const_acc, flat[0].ncoords)
            if not isinstance(cf, ZeroField):
                flat.append(cf)
        else:
            ch0 = next(iter(children))
            return fconst(const_acc, ch0.ncoords)
    if not flat:
        if shape is None or ncoords is None:
            ch0 = next(iter(children))
            shape, ncoords = ch0.shape, ch0.ncoords
        return ZeroField(shape, ncoords)
    if len(flat) == 1:
        return flat[0]
    return SumField(flat)


def fscale(coeff, child):
    coeff = complex(coeff)
    if coeff == 0 or isinstance(child, ZeroField):
        return ZeroField(child.shape, child.ncoords)
    if coeff == 1:
        return child
    if isinstance(child, ConstField):
        return ConstField(coeff * child.matrix, child.ncoords)
    if isinstance(child, ScaleField):
        return fscale(coeff * child.coeff, child.child)
    return ScaleField(coeff, child)


def fmatmul(*factors):
    out = factors[0]
    for f in factors[1:]:
        out = _fmatmul2(out, f)
    return out


def _is_identity(f):
    return isinstance(f, ConstField) and f.shape[0] == f.shape[1] and \
        np.array_equal(f.matrix, np.eye(f.shape[0]))


def _fmatmul2(a, b):
    if isinstance(a, ZeroField) or isinstance(b, ZeroField):
        return ZeroField((a.shape[0], b.shape[1]), a.ncoords)
    if isinstance(a, ConstField) and isinstance(b, ConstField):
        return fconst(a.matrix @ b.matrix, a.ncoords)
    if _is_identity(a):
        return b
    if _is_identity(b):
        return a
    if isinstance(a, ScaleField):
        return fscale(a.coeff, _fmatmul2(a.child, b))
    if isinstance(b, ScaleField):
        return fscale(b.coeff, _fmatmul2(a, b.child))
    if a.is_scalar and not b.is_scalar:
        return fscalarmul(a, b)
    if b.is_scalar and not a.is_scalar:
        return fscalarmul(b, a)
    return MatMulField(a, b)


def fscalarmul(scalar, child):
    if isinstance(scalar, ZeroField) or isinstance(child, ZeroField):
        return ZeroField(child.shape, child.ncoords)
    if isinstance(scalar, ConstField):
        return fscale(scalar.matrix[0, 0], child)
    if isinstance(child, ConstField) and child.is_scalar:
        return fscale(child.matrix[0, 0], scalar)
    return ScalarMulField(scalar, child)


def fderiv(field, gamma):
    return field.deriv(tuple(gamma))


def fconj_t(field):
    return field.conj_t()


def ftranspose(field):
    if isinstance(field, ZeroField):
        return ZeroField((field.shape[1], field.shape[0]), field.ncoords)
    if isinstance(field, ConstField):
        return ConstField(field.matrix.T, field.ncoords)
    if isinstance(field, TransposeField):
        return field.child
    if field.is_scalar:
        return field
    return TransposeField(field)


def fexp(field):
    if isinstance(field, ZeroField):
        return fidentity(field.shape[0], field.ncoords)
    if isinstance(field, ConstField):
        return ConstField(_const_expm(field.matrix), field.ncoords)
    return MatExpField(field)


def _const_expm(m):
    space = jet_space(0, 0)
    return space.matrix_exp(m[:, :, None].astype(np.complex128))[:, :, 0]


def finv(field):
    if isinstance(field, ConstField):
        return ConstField(np.linalg.inv(field.matrix), field.ncoords)
    if field.is_scalar:
        return PowField(field, -1)
    return InverseField(field)


def fdet(field):
    if isinstance(field, ConstField):
        return fconst([[np.linalg.det(field.matrix)]], field.ncoords)
    if field.shape == (1, 1):
        return field
    return DetField(field)


def flog(field):
    return ScalarFnField("log", field)


def fpow(field, p, q=1):
    return PowField(field, p, q)


def fentry(field, r, c):
    if isinstance(field, ZeroField):
        return ZeroField((1, 1), field.ncoords)
    if isinstance(field, ConstField):
        return fconst([[field.matrix[r, c]]], field.ncoords)
    if isinstance(field, GridField):
        return field.entries[r][c]
    return EntryField(field, r, c)


def fdiag(scalar, n):
    if isinstance(scalar, ZeroField):
        return ZeroField((n, n), scalar.ncoords)
    if isinstance(scalar, ConstField):
        return fconst(scalar.matrix[0, 0] * np.eye(n), scalar.ncoords)
    return DiagField(scalar, n)


def fgrid(entries):
    if all(isinstance(e, ZeroField) for row in entries for e in row):
        return ZeroField((len(entries), len(entries[0])), entries[0][0].ncoords)
    if all(isinstance(e, (ZeroField, ConstField)) for row in entries for e in row):
        mat = [[0.0 if isinstance(e, ZeroField) else e.matrix[0, 0] for e in row]
               for row in entries]
        return fconst(mat, entries[0][0].ncoords)
    return GridField(entries)


def frestrict(field, keep, fixed):
    if isinstance(field, ZeroField):
        return ZeroField(field.shape, len(keep))
    if isinstance(field, ConstField):
        return ConstField(field.matrix, len(keep))
    return RestrictField(field, keep, fixed)


def _cfmt(z):
    if z.imag == 0:
        return f"{z.real:g}"
    if z.real == 0:
        return f"{z.imag:g}i"
    return f"{z.real:g}{z.imag:+g}i"
