"""Matrix-valued fields over real coordinates, evaluated as exact jets.

A Field is an immutable DAG node: an expression grid, or a composite
(sum, product, scalar multiple, matrix exponential, inverse, conjugate
transpose, derivative, determinant, restriction).  Evaluation at a
point produces a jet matrix carrying exact partial derivatives up to a
requested order.

Every node has the same form: it lists the nodes it is computed from in
``children`` (leaves list none), and :meth:`Field.deps` turns that list
into the ``(child, order)`` requests its ``_compute`` makes, each child
at the node's own order.  Only a derivative asks for more (its child at
``order + |gamma|``), and a restriction lists no children because its
child runs in a sub-context.  So a node is determined by its type, its
own parameters and its children.

Nodes are hash-consed: every node class states its own parameters in
``params``, and building a node whose type, parameters and children
equal those of a live node returns that live node (see :class:`_Interned`).
So equal subexpressions are one object, however and wherever they were
built.

All evaluation at one sample point goes through one EvalContext, which
caches jets by ``(id(node), order)``.  Since equal nodes are one object,
a subexpression repeated in many parents, in many operators of one
model or in many relations of one check is computed once per point.
:func:`plan_requests` counts the declared requests over a batch of
roots before the first point, and a context built with that count
stores only the jets requested more than once and drops each one at its
last request.  Every cache entry also carries its subtree maximum, the
largest ``|value|`` of its own jet and of every jet it was computed
from, which is the scale a residual is measured against.  Fields
themselves hold no evaluation state; a context belongs to one point and
one caller.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from operator import attrgetter

import numpy as np

from .expr import Expr, to_text
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


class _Interned(type):
    """Metaclass of :class:`Field`: one live node per structure.

    A class that states ``params`` in its own body, the names of the
    attributes that with its type and ``children`` determine a node,
    has its nodes interned by the key ``(type, params, children)``:
    constructing a node equal to a live one returns the live one.  Key
    entries compare as Python values do, a constant's matrix by its bits
    (:class:`_Bits`); fields, expressions and fermion representations
    define no equality, so they compare by identity (there is one
    representation per fermion system).  A class that states no
    ``params``, such as a private base or a subclass that adds state of
    its own, is not interned.  A node's caches are private attributes
    outside its key.  The table holds its nodes weakly, so it never
    keeps a model alive."""

    def __init__(cls, name, bases, ns):
        super().__init__(name, bases, ns)
        names = ns.get("params")
        cls._structure = (None if names is None else
                          attrgetter("__class__", *names, "children"))

    def __call__(cls, *args, **kwargs):
        node = type.__call__(cls, *args, **kwargs)
        structure = cls._structure
        if structure is None:
            return node
        key = structure(node)
        ref = _NODES.get(key)
        if ref is not None:
            live = ref()
            if live is not None:
                return live
        ref = _NODES[key] = _Entry(node, _forget)
        ref.key = key
        return node


class _Entry(weakref.ref):
    """The table's weak reference to an interned node, with its key."""

    __slots__ = ("key",)


# structural key -> _Entry of the live node of that structure
_NODES = {}


def _forget(ref, table=_NODES):
    """Weak-reference callback: drop a node's entry once it is gone."""
    if table.get(ref.key) is ref:
        del table[ref.key]


class Field(metaclass=_Interned):
    """Base class.  A subclass sets ``shape`` and ``ncoords``, lists the
    nodes it is computed from in ``children``, states the names of its
    other structural attributes in ``params`` and implements
    :meth:`_compute`, which requests each child once at its own order
    (see :meth:`deps`)."""

    shape = (1, 1)
    ncoords = 0
    children = ()

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
        return [(c, order) for c in self.children]

    @property
    def is_scalar(self):
        return self.shape == (1, 1)

    def deriv(self, gamma):
        """The partial derivative d^gamma of this field; the field itself
        for a zero multi-index."""
        if not any(gamma):
            return self
        return self._deriv(gamma)

    def _deriv(self, gamma):
        return DerivativeField(self, gamma)

    def conj_t(self):
        """The conjugate transpose, built once while it lives."""
        ref = self.__dict__.get("_conj")
        out = None if ref is None else ref()
        if out is None:
            out = self._conj_t()
            self._conj = weakref.ref(out)
        return out

    def _conj_t(self):
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
    params = ("shape", "ncoords")

    def __init__(self, shape, ncoords):
        self.shape = tuple(shape)
        self.ncoords = ncoords

    def _compute(self, ctx, order):
        return jet_space(self.ncoords, order).zeros(*self.shape)

    def _deriv(self, gamma):
        return self

    def _conj_t(self):
        return ZeroField((self.shape[1], self.shape[0]), self.ncoords)

    def describe(self):
        return "0"


class _Bits:
    """A constant's matrix as a key entry, equal to another only when
    both hold the same bytes.  It is hashed once: by its bytes when it is
    small, else by a fixed weighted sum of its entries, which takes a
    few microseconds for a 64x64 matrix where hashing its 64 KiB of
    bytes takes about 30."""

    __slots__ = ("matrix", "_hash")

    _weights = {}

    def __init__(self, matrix):
        self.matrix = matrix
        if matrix.size <= 64:
            self._hash = hash(matrix.tobytes())
            return
        flat = matrix.reshape(-1).view(np.float64)
        w = _Bits._weights.get(flat.size)
        if w is None:
            w = _Bits._weights[flat.size] = \
                np.random.default_rng(flat.size).random(flat.size)
        self._hash = hash(float(flat @ w))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        a, b = self.matrix, other.matrix
        return a.shape == b.shape and a.tobytes() == b.tobytes()


class ConstField(Field):
    params = ("_bits", "ncoords", "name")

    def __init__(self, matrix, ncoords, name=None):
        self.matrix = np.ascontiguousarray(matrix, dtype=np.complex128)
        if self.matrix.ndim != 2:
            raise ValueError("constant fields are matrices")
        self.shape = self.matrix.shape
        self.ncoords = ncoords
        self.name = name
        self._bits = _Bits(self.matrix)

    def _compute(self, ctx, order):
        return jet_space(self.ncoords, order).const(self.matrix)

    def _deriv(self, gamma):
        return ZeroField(self.shape, self.ncoords)

    def _conj_t(self):
        return ConstField(self.matrix.conj().T, self.ncoords)

    @cached_property
    def _identity(self):
        n, m = self.shape
        return n == m and np.array_equal(self.matrix, np.eye(n))

    def describe(self):
        if self.name:
            return self.name
        if self.shape == (1, 1):
            return f"const({self.matrix[0, 0]:g})"
        return f"const{self.shape}"


class ExprField(Field):
    """1x1 field wrapping a scalar DSL expression."""

    params = ("expr", "ncoords", "name")

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
        return self.name or to_text(self.expr)


class GridField(Field):
    """Matrix assembled from a 2D grid of scalar fields."""

    params = ("shape",)

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
        self.children = tuple(e for row in self.entries for e in row)
        self.shape = (rows, cols)
        self.ncoords = entries[0][0].ncoords

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        out = space.zeros(*self.shape)
        for r, row in enumerate(self.entries):
            for c, e in enumerate(row):
                out[r, c, :] = e.eval_jet(ctx, order)[0, 0, :]
        return out

    def _deriv(self, gamma):
        return GridField([[e.deriv(gamma) for e in row] for row in self.entries])

    def describe(self):
        return f"grid{self.shape}"


# ---------------------------------------------------------------------------
# composites


class SumField(Field):
    params = ()

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

    def _deriv(self, gamma):
        return fsum([ch.deriv(gamma) for ch in self.children],
                    self.shape, self.ncoords)

    def _conj_t(self):
        return fsum([ch.conj_t() for ch in self.children],
                    (self.shape[1], self.shape[0]), self.ncoords)

    def describe(self):
        return " + ".join(ch.describe() for ch in self.children)


class MatMulField(Field):
    params = ()

    def __init__(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul shape mismatch {a.shape} x {b.shape}")
        if a.ncoords != b.ncoords:
            raise ValueError("matmul over different coordinate spaces")
        self.children = (a, b)
        self.shape = (a.shape[0], b.shape[1])
        self.ncoords = a.ncoords

    def _compute(self, ctx, order):
        a, b = self.children
        space = jet_space(self.ncoords, order)
        return space.mul(a.eval_jet(ctx, order), b.eval_jet(ctx, order))

    def _conj_t(self):
        a, b = self.children
        return fmatmul(b.conj_t(), a.conj_t())

    def describe(self):
        a, b = self.children
        return f"{a.describe()}.{b.describe()}"


class _Unary(Field):
    """A node computed from one child, of the child's shape unless the
    subclass says otherwise."""

    def __init__(self, child):
        self.child = child
        self.children = (child,)
        self.shape = child.shape
        self.ncoords = child.ncoords


class ScaleField(_Unary):
    params = ("coeff",)

    def __init__(self, coeff, child):
        super().__init__(child)
        self.coeff = complex(coeff)

    def _compute(self, ctx, order):
        return self.coeff * self.child.eval_jet(ctx, order)

    def _deriv(self, gamma):
        return fscale(self.coeff, self.child.deriv(gamma))

    def _conj_t(self):
        return fscale(self.coeff.conjugate(), self.child.conj_t())

    def describe(self):
        return f"({_cfmt(self.coeff)})*{self.child.describe()}"


class ScalarMulField(_Unary):
    """Pointwise product of a scalar field with a matrix field."""

    params = ()

    def __init__(self, scalar, child):
        if not scalar.is_scalar:
            raise ValueError("first factor must be scalar")
        super().__init__(child)
        self.scalar = scalar
        self.children = (scalar, child)

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        return space.scal_mul(self.scalar.eval_jet(ctx, order),
                              self.child.eval_jet(ctx, order))

    def _conj_t(self):
        return ScalarMulField(self.scalar.conj_t(), self.child.conj_t())

    def describe(self):
        return f"({self.scalar.describe()})*{self.child.describe()}"


class ConjTransposeField(_Unary):
    params = ()

    def __init__(self, child):
        super().__init__(child)
        self.shape = (child.shape[1], child.shape[0])

    def _compute(self, ctx, order):
        jet = self.child.eval_jet(ctx, order)
        return np.conj(np.swapaxes(jet, 0, 1))

    def _deriv(self, gamma):
        return ConjTransposeField(self.child.deriv(gamma))

    def _conj_t(self):
        return self.child

    def describe(self):
        return f"({self.child.describe()})^+"


class TransposeField(_Unary):
    """Plain transpose, no conjugation."""

    params = ()

    def __init__(self, child):
        super().__init__(child)
        self.shape = (child.shape[1], child.shape[0])

    def _compute(self, ctx, order):
        return np.swapaxes(self.child.eval_jet(ctx, order), 0, 1)

    def _deriv(self, gamma):
        return TransposeField(self.child.deriv(gamma))

    def describe(self):
        return f"({self.child.describe()})^T"


class DerivativeField(_Unary):
    params = ("gamma",)

    def __init__(self, child, gamma):
        super().__init__(child)
        self.gamma = tuple(int(g) for g in gamma)
        if len(self.gamma) != child.ncoords:
            raise ValueError("derivative multi-index length mismatch")

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

    def _deriv(self, gamma):
        merged = tuple(a + b for a, b in zip(self.gamma, gamma))
        return DerivativeField(self.child, merged)

    def _conj_t(self):
        return DerivativeField(self.child.conj_t(), self.gamma)

    def describe(self):
        names = [f"d{i}" for i, g in enumerate(self.gamma) for _ in range(g)]
        return f"{''.join(names)}[{self.child.describe()}]"


class _Kernel(_Unary):
    """A node whose jet is the ``kernel`` method of the jet space applied
    to the child's jet and ``args``, written ``text(child)``.  The method
    is looked up on the jet space at every call."""

    args = ()

    def _compute(self, ctx, order):
        return getattr(jet_space(self.ncoords, order), self.kernel)(
            self.child.eval_jet(ctx, order), *self.args)

    def describe(self):
        return f"{self.text}({self.child.describe()})"


class MatExpField(_Kernel):
    kernel, text = "matrix_exp", "exp"
    params = ()

    def __init__(self, child):
        if child.shape[0] != child.shape[1]:
            raise ValueError("matrix exponential of a non-square field")
        super().__init__(child)

    def _conj_t(self):
        return MatExpField(self.child.conj_t())


class InverseField(_Kernel):
    kernel, text = "matrix_inv", "inv"
    params = ()

    def __init__(self, child):
        if child.shape[0] != child.shape[1]:
            raise ValueError("inverse of a non-square field")
        super().__init__(child)


class DetField(_Kernel):
    kernel, text = "det", "det"
    params = ()

    def __init__(self, child):
        if child.shape[0] != child.shape[1]:
            raise ValueError("determinant of a non-square field")
        super().__init__(child)
        self.shape = (1, 1)


class ScalarFnField(_Kernel):
    """log or exp of a scalar field."""

    params = ("kernel",)

    def __init__(self, op, child):
        if op not in ("log", "exp"):
            raise ValueError(f"unknown scalar function {op!r}")
        if not child.is_scalar:
            raise ValueError("scalar function of a matrix field")
        super().__init__(child)
        self.kernel = self.text = op


class PowField(_Kernel):
    """Scalar field raised to a rational power p/q."""

    kernel = "powr"
    params = ("p", "q")

    def __init__(self, child, p, q=1):
        if not child.is_scalar:
            raise ValueError("power of a matrix field")
        super().__init__(child)
        self.p = int(p)
        self.q = int(q)
        self.args = (self.p, self.q)

    def describe(self):
        return f"({self.child.describe()})^({self.p}/{self.q})"


class PositiveGuardField(_Unary):
    """Scalar pass-through that rejects evaluation at nonpositive values."""

    params = ("what",)

    def __init__(self, child, what="field"):
        if not child.is_scalar:
            raise ValueError("positivity guard applies to scalar fields")
        super().__init__(child)
        self.what = what

    def _compute(self, ctx, order):
        jet = self.child.eval_jet(ctx, order)
        v = jet[0, 0, 0]
        if not (v.real > 0 and abs(v.imag) <= 1e-12 * (1 + abs(v.real))):
            raise ValueError(f"{self.what} must be positive, got {v:g}")
        return jet

    def describe(self):
        return self.child.describe()


class EntryField(_Unary):
    """Scalar extraction of one matrix entry."""

    params = ("r", "c")

    def __init__(self, child, r, c):
        super().__init__(child)
        self.shape = (1, 1)
        self.r = r
        self.c = c

    def _compute(self, ctx, order):
        jet = self.child.eval_jet(ctx, order)
        return jet[self.r:self.r + 1, self.c:self.c + 1, :]

    def _deriv(self, gamma):
        return EntryField(self.child.deriv(gamma), self.r, self.c)

    def describe(self):
        return f"{self.child.describe()}[{self.r},{self.c}]"


class DiagField(_Unary):
    """Scalar field times the n x n identity."""

    params = ("n",)

    def __init__(self, child, n):
        if not child.is_scalar:
            raise ValueError("DiagField takes a scalar field")
        super().__init__(child)
        self.n = n
        self.shape = (n, n)

    def _compute(self, ctx, order):
        space = jet_space(self.ncoords, order)
        s = self.child.eval_jet(ctx, order)
        out = space.zeros(self.n, self.n)
        for k in range(self.n):
            out[k, k, :] = s[0, 0, :]
        return out

    def _deriv(self, gamma):
        return DiagField(self.child.deriv(gamma), self.n)

    def _conj_t(self):
        return DiagField(ScalarConjField(self.child), self.n)

    def describe(self):
        return f"({self.child.describe()})*1"


class ScalarConjField(_Unary):
    params = ()

    def __init__(self, child):
        if not child.is_scalar:
            raise ValueError("scalar conjugate of a matrix field")
        super().__init__(child)

    def _compute(self, ctx, order):
        return np.conj(self.child.eval_jet(ctx, order))

    def _deriv(self, gamma):
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
    point, so this node lists no children in its own context.
    """

    params = ("child", "keep", "fixed")

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
    consts = []
    for ch in children:
        if isinstance(ch, ZeroField):
            continue
        if isinstance(ch, SumField):
            children2 = ch.children
        else:
            children2 = (ch,)
        for c in children2:
            (consts if isinstance(c, ConstField) else flat).append(c)
    if consts:
        cf = _const_sum(consts, (flat[0] if flat else children[0]).ncoords)
        if not flat:
            return cf
        if not isinstance(cf, ZeroField):
            flat.append(cf)
    if not flat:
        if shape is None or ncoords is None:
            shape, ncoords = children[0].shape, children[0].ncoords
        return ZeroField(shape, ncoords)
    if len(flat) == 1:
        return flat[0]
    return SumField(flat)


def _const_sum(consts, ncoords):
    """fconst of the summed matrices of ``consts``, in order; a lone
    nonzero unnamed constant is that sum already."""
    first = consts[0]
    if len(consts) == 1 and first.name is None and \
            first.ncoords == ncoords and first.matrix.any():
        return first
    acc = first.matrix
    for c in consts[1:]:
        acc = acc + c.matrix
    return fconst(acc, ncoords)


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
    return isinstance(f, ConstField) and f._identity


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
