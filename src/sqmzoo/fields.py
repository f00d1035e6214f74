"""Matrix-valued fields over real coordinates, evaluated as exact jets.

A Field is an immutable DAG node: an expression grid, or a composite
(sum, product, scalar multiple, matrix exponential, inverse, conjugate
transpose, derivative, determinant, restriction).  Evaluation at a
point produces a jet matrix carrying exact partial derivatives up to a
requested order.

Every node has the same form: it lists the nodes it is computed from in
``children`` (leaves list none), and :meth:`Field.kid_orders` gives the
orders its ``_compute`` is given their jets at, each child at the node's
own order.  Only a derivative asks for more (its child at
``order + |gamma|``).  ``_compute`` sees those jets and the point, and
no cache, so a node is determined by its type, its own parameters and
its children.

A node's jet holds only its ``support``: the ascending coordinates it
can depend on, settled once, when the node is built.  An expression's
support is the coordinates it reads, a constant's is empty, a
restriction maps its child's through ``keep``, and every other node
takes the union of its children's.  So a product of two fields of one
coordinate each runs over two coordinates' terms, whatever the model's
coordinate count; a reader over more coordinates reads a jet embedded
by a compile-time table, and :meth:`Field.eval_jet` returns the jet
over all the node's coordinates.  Two reads take no embedding.  An
order-0 jet is its value over any coordinates, one term, so a read at
order 0 is the jet itself, or its one-term prefix, whatever the two
supports (Griewank & Walther, *Evaluating Derivatives*, ch. 13).  And
above order 0 only a product or a scalar product reads a child of empty
support, a constant, as its one term in place: :meth:`JetSpace.mul` and
:meth:`JetSpace.scal_mul` multiply through it over the other factor's
live terms, the very pairs its embedding would leave live.  A
derivative along a coordinate outside its field's support is folded to
the zero field when it is built (:meth:`Field.deriv`), so it never
becomes a node, and the products, scales and sums the folding
constructors build from it vanish with it.

A product picks its own kernel.  A :class:`MatMulField` with a constant
factor whose matrix is a Fock monomial (at most one nonzero in each row
and column, each purely real or purely imaginary: :func:`.jets.monomial`)
settles that form once, when it is built, and runs as a signed gather
of the other factor's rows or columns (:class:`.jets.Monomial`): in its
own step at any order and in a sum's step that absorbs it.  The folding
of two constants by :func:`fmatmul` gathers too.  For finite operands
the gather equals the dense product as numbers, every zero +0 as in the
rank passes of :meth:`JetSpace.mul`; a non-finite operand takes the
dense path, so every ``0 * inf`` NaN stays.

Nodes are hash-consed: every node class states its own parameters in
``params``, and building a node whose type, parameters and children
equal those of a live node returns that live node (see :class:`_Interned`).
So equal subexpressions are one object, however and wherever they were
built.

Evaluation runs a :class:`Tape`: groups of roots compiled once into one
step per ``(node, frame)`` they need, where a frame is the sample point
or the full point a restriction's child runs at.  Compiling takes three
passes: a walk lists the pairs each group adds, in post-order; a plan,
parents first, settles each pair's order, its reads and whether a sum's
step absorbs it; and an emission turns each group's pairs into steps.  A step runs at the
highest order any reader needs, and a reader at a lower order reads its
prefix, which is bit for bit the lower-order jet, since every kernel
computes each grade from lower grades only, in the same order at any
order (Griewank & Walther, *Evaluating Derivatives*, ch. 13).  Since
equal nodes are one object, a subexpression repeated in many parents,
in many operators of one model or in many relations of one check is
computed once per block of points, and its jet is dropped after its
last use.  A sum's step also computes the children it alone reads that
are scales or one-term products, and the one-term products such a scale
alone reads, as one linear combination, so those nodes get no step of
their own (superinstructions, after Proebsting 1995, "Optimizing an
ANSI C interpreter with superoperators").  Each step also records its
own maximum, the largest ``|value|`` of its own jet and of the jets it
absorbs, and a group's scale, the one a residual is measured against,
folds those of every step its roots reach: the largest ``|value|`` of
every jet the roots are computed from.  Fields themselves hold no
evaluation state.

A tape run evaluates a block of sample points at once, each step once
per block.  A jet of a block of P points is the C-order ``(T, P, rows,
cols)`` array of their jets, term-major, held and passed as its ``(T,
P*rows, cols)`` view, so every jet is 3-D, each term is one contiguous
plane and a one-point block holds exactly the one-point jet; kernels and
nodes split the middle axis back into ``(P, rows)``, which is always a
view (see :mod:`.jets`).  :meth:`Field.eval_jet` returns the
``(rows, cols, T)`` view of a one-point jet.  Constants and zeros
are built per block, over their empty support, so they hold one term.
Each point's jets are bit for bit those of a block of its own.  The
blocks are sized at compile time: :attr:`Tape.point_bytes` is the most
bytes of jets one point holds at once, and :meth:`Tape.blocks` splits the
points into the fewest near-equal blocks that stay within BLOCK_BYTES.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from operator import attrgetter

import numpy as np

from .expr import Binary, Coord, Expr, Pow, Unary, to_text
from .jets import (MAX_ORDER, jet_space, join_points, monomial,
                   split_points, value_product)


class OrderOverflow(ValueError):
    """A derivative request exceeded the engine's jet-order cap."""


class _Mag:
    """Own maxima of one tape run over a block of ``n`` points, by step:
    for each point, the largest ``|value|`` of a step's jet and, for a
    sum's step, of the jets of the nodes it absorbs, one row of ``value``
    per step.  A group's scale folds the rows of the steps its roots
    reach (see :class:`Tape`).  A NaN, once met, stays."""

    def __init__(self, nsteps, n):
        self.value = np.zeros((nsteps, n))

    def fold(self, steps):
        """The rows of the index array ``steps`` folded, point by point."""
        return _max(self.value[steps], axis=0, initial=0.0)

    def update(self, step, jet, stack=None):
        """Set the row of ``step`` from its jet and, for a combination's
        step, the ``stack`` of the jets of the nodes it absorbed (see
        :class:`_Combination`)."""
        value = self.value
        n = value.shape[1]
        m = value[step]
        if jet.size:
            _max(np.abs(jet[0].reshape(n, -1)), axis=1, out=m)
        if stack is not None:
            _max2(m, _max(np.abs(stack[:, 0]).reshape(len(stack), n, -1),
                          axis=(0, 2), initial=0.0), out=m)


# NaN-propagating maxima: along an axis, and of two arrays
_max, _max2 = np.maximum.reduce, np.maximum


class _At:
    """The ``(n, ncoords)`` array of the points of one tape frame, with
    their coordinate jets built once per support and order."""

    def __init__(self, points):
        self.points = points
        self.n = len(points)
        self._jets = {}

    def coord_jets(self, support, order):
        """The jets of the coordinates in ``support`` over those
        coordinates, indexed by coordinate; None elsewhere."""
        key = (support, order)
        jets = self._jets.get(key)
        if jets is None:
            space = jet_space(len(support), order)
            jets = self._jets[key] = [None] * self.points.shape[1]
            for j, i in enumerate(support):
                jets[i] = space.coordinate(j, self.points[:, i])
        return jets


def _view(have, sub, order, sup, reader=None):
    """How ``reader``, over the coordinates ``sup``, reads at ``order`` a
    jet held over ``sub`` at order ``have``: None for the jet itself, a
    term count for a prefix, or ``(table, nterms)`` for an embedding.  A
    jet's order-0 part is its value over any coordinates, so an order-0
    read is never embedded.  Above order 0, a constant's one term, held
    over no coordinates, is read in place by a product, whose
    ``_compute`` takes it so (``one_term_kids``)."""
    if sub == sup or order == 0:
        return None if have == order else jet_space(len(sub), order).nterms
    if not sub and reader is not None and reader.one_term_kids:
        return None
    target = jet_space(len(sup), order)
    return jet_space(len(sub), order).embedding(
        tuple([sup.index(i) for i in sub]), target), target.nterms


def _serve(jet, view):
    """``jet`` as a reader with ``view`` (see :func:`_view`) reads it."""
    if view is None:
        return jet
    if view.__class__ is int:
        return jet[:view]
    table, nterms = view
    out = np.zeros((nterms,) + jet.shape[1:], dtype=np.complex128)
    out[table] = jet[:len(table)]
    return out


def _add_up(terms):
    """The sum of the jets ``terms``, all of one shape, added in order as
    the first one's copy plus each of the others."""
    out = terms[0].copy()
    for jet in terms[1:]:
        out += jet
    return out


def _gathered(form, A, B, n, out=None):
    """The product of the stacked jets ``A`` and ``B`` of ``n`` points by
    a product's monomial form ``form`` (:attr:`MatMulField._form`), as
    ``(T, n, rows, cols)`` into ``out`` if given, or None when the other
    factor is not finite."""
    left, mono = form
    if left:
        return mono.left(split_points(B, n), out)
    return mono.right(split_points(A, n), out)


class _Combination:
    """The step of a sum with the children it absorbs, which get no step
    of their own (see :class:`Tape`): one-term products (kind ``p``),
    scales of those products (``s``), and scales of other steps' jets
    (``x``).  Its jet is ``sum_k c_k A_k B_k + sum_j c_j X_j + sum_i
    Y_i`` in child order.

    It is built from the compile's plan: ``tables`` are ``(nodes,
    kids_of, want)``, ``step_of`` gives each pair's step and ``kind``
    each pair's absorption kind, None for a step of its own.
    ``read`` and ``views`` are the steps it reads, a step read with no
    view once, and their views (see :func:`_view`), or None: the two
    factors of each product, each scaled jet ``X_j`` as its scale reads
    it, and each child ``Y_i`` it did not absorb as the sum reads it.

    :meth:`combine` computes the absorbed nodes' jets into the slots of
    one stack: first the products, the scaled ones (``s``) before the
    unscaled ones (``p``), each by the kernel its product node picked,
    the signed gather of its monomial form (:attr:`MatMulField._form`),
    or else :func:`value_product`, as :meth:`JetSpace.mul` computes it at
    one term; then the scaled products, by one broadcast ``coeffs *
    stack``, which rounds as each ``c * x`` does; then each ``c_j X_j``
    (``x``).  The sum adds its terms one at a time in child order, as
    :class:`SumField` does (``np.add.reduce`` would not: over one entry
    per slot it sums pairwise), so every float is what the nodes' own
    steps would compute.

    The step's row of own maxima (see :class:`_Mag`) is the largest
    ``|value|`` of its own jet and of the whole stack: an absorbed node
    has no row of its own, since the sum's is the only one that would
    read it."""

    __slots__ = ("node", "absorbed", "shape", "nterms", "products",
                 "gathers", "coeffs", "scales", "terms", "read", "views")

    def __init__(self, node, order, kids, tables, step_of, kind):
        nodes, kids_of, want = tables
        sup = node.support
        kinds = [kind[kid] for kid in kids]
        ks = kinds.count("s")
        k = ks + kinds.count("p")
        slot_of = {"s": 0, "p": ks, "x": k + ks}   # each kind's next slot
        products, gathers = [None] * k, [None] * k
        scales, coeffs = [], [0j] * ks
        read, views, terms, taken = [], [], [], []
        seen = {}                   # step -> its read with no view

        def take(pair, view=None):
            j = step_of[pair]
            if view is None and j in seen:
                return seen[j]
            read.append(j)
            views.append(view)
            if view is None:
                seen[j] = len(read) - 1
            return len(read) - 1

        for kid, kd in zip(kids, kinds):
            c = nodes[kid]
            if kd is None:
                view = None
                if c.support is not sup or want[kid] != order:
                    view = _view(want[kid], c.support, order, sup, node)
                terms.append((1, take(kid, view)))
                continue
            slot = slot_of[kd]
            slot_of[kd] += 1
            taken.append(c)
            if kd == "x":
                x = kids_of[kid][0]
                view = None
                if want[x] != order:
                    view = _view(want[x], nodes[x].support, order, sup, c)
                scales.append((take(x, view), c.coeff))
                terms.append((0, slot))
                continue
            product = kid
            if kd == "s":
                product = kids_of[kid][0]
                taken.append(nodes[product])
                coeffs[slot] = c.coeff
            a, b = kids_of[product]
            products[slot] = (take(a), take(b))
            gathers[slot] = nodes[product]._form
            terms.append((0, slot if kd == "p" else k + slot))
        self.node, self.absorbed, self.shape = node, tuple(taken), node.shape
        self.nterms = jet_space(len(sup), order).nterms
        self.products, self.scales = tuple(products), tuple(scales)
        self.gathers = tuple(gathers)
        self.coeffs = np.reshape(np.array(coeffs, dtype=np.complex128),
                                 (-1, 1, 1, 1))
        self.terms = tuple(terms)
        self.read = tuple(read)
        self.views = tuple(views) if any(views) else None

    def combine(self, at, kids):
        """The sum's jet over the block ``at``, and the stack of the
        absorbed nodes' jets."""
        n = at.n
        rows, cols = self.shape
        products, coeffs = self.products, self.coeffs
        k, ks = len(products), len(coeffs)
        stack = np.empty((k + ks + len(self.scales), self.nterms, n * rows,
                          cols), dtype=np.complex128)
        for slot, (a, b), gather in zip(stack[:k].reshape(k, n, rows, cols),
                                        products, self.gathers):
            A, B = kids[a], kids[b]
            if gather is None or _gathered(gather, A[:1], B[:1], n,
                                           slot[None]) is None:
                value_product(A, B, n, out=slot)
        if ks:
            np.multiply(coeffs, stack[:ks], out=stack[k:k + ks])
        for slot, (x, c) in zip(stack[k + ks:], self.scales):
            np.multiply(c, kids[x], out=slot)
        sources = (stack, kids)
        return _add_up([sources[s][i] for s, i in self.terms]), stack


# the most bytes of jets a tape run may hold at once (see Tape.blocks)
BLOCK_BYTES = 4 << 20


class Tape:
    """Groups of root fields compiled into one list of steps.

    The roots of each group are needed at ``order``, and a step at order
    k needs its children at its node's :meth:`Field.kid_orders` of k.  A
    frame is the point a run is given (frame 0) or the full point a
    restriction's child runs at, which restrictions with equal ``keep``
    and ``fixed`` share.

    Each ``(node, frame)`` pair the roots reach is one step, run at the
    highest order any of its readers needs; a reader at a lower order k
    reads the prefix ``jet[:T_k]``, since in the graded multi-index
    order an order-k jet is a prefix of a higher-order one.  Every kernel
    computes each grade from the same lower grades in the same order at
    any order (products, sums, Horner series and extraction by
    construction, the matrix exponential by its per-grade stopping test
    and the inverse by its fixed iteration count), so the prefix is bit
    for bit the lower-order jet.

    A node's ``_reach`` is the highest order it can be computed at
    before a derivative in its subtree exceeds MAX_ORDER, and a node
    asked for within its reach asks its children within theirs.  So only
    a root can be asked for above its reach, and the first group with
    such a root is the overflow group: only the groups before it are
    compiled, and a run raises OrderOverflow where that group would be
    yielded, so the error names the group whose roots ask for the order.

    The constructor makes three passes over one table of pairs.  The
    walk lists each group's new pairs, which no earlier group reaches,
    as one range of the table, in the post-order of the roots'
    dependencies; it checks a group's reach before walking it, so the
    overflow group is never walked.  The plan visits the table once in
    reverse, every reader of a pair before the pair, and gives each pair
    its order, its read count and its absorption kind.  The emission
    gives each group's pairs their steps in table order, after the steps
    they read, and skips the absorbed pairs.  A reader above order 0
    over more coordinates than a step's support reads its jet embedded
    by a compile-time table, unless it is a product reading a constant
    (:func:`_view`).  A group's roots are read out
    over their support after the last step it needs, and each jet is
    dropped after its last use, by a step or a read-out.  The compile
    tables are dropped when the constructor returns; a step record is
    ``(node, order, frame, kid steps, kid views)``.  The emission also
    settles each group's reached steps, ``_reached``: a step reaches
    itself and every step its reads reach, and a group the steps its
    roots reach.

    A sum's step absorbs each child that the sum alone reads, read once
    in all, which no group reads out, and which the sum reads with no
    view (of its support and order), if it is a scale, or a product of
    one term (at order 0 or of empty support); and the one-term product
    that such a scale alone reads.  Reads count steps and read-outs
    alike, so a root that a later group's sum reads, or a child a sum
    reads twice, keeps its step.  The sum's step record then holds a
    :class:`_Combination` in place of the node, and it reads the
    absorbed nodes' own operands, so each jet's last reader counts those
    reads at the sum's step.  The absorbed nodes' floats are unchanged;
    :class:`_Combination` gives its slot layout and why.  Every other
    step record holds its node, and a product's node picks its own
    kernel (:attr:`MatMulField._form`).  The scale hook
    :meth:`_Mag.update` runs once per executed step and reduces its own
    jet, a sum's step the absorbed nodes' jets too.  A group's scale
    folds the rows of its reached steps, once per group: the largest
    ``|value|`` of every jet its roots are computed from, absorbed nodes'
    included, since a sum's step reads their operands.

    A run evaluates a block of points at once, each step once per block:
    a jet of the block is the ``(T, P, rows, cols)`` array of its points'
    jets, held as its ``(T, P*rows, cols)`` view (see :mod:`.jets`), so
    a one-point block holds exactly the one-point jets.  ``point_bytes``
    is the peak, over the run, of the bytes of the jets one point holds
    at once: each step's jet, of its node's shape and of its order's
    term count over the node's support, from its step to its last
    reader.  A step's scratch is not counted: neither a kernel's
    temporaries nor the stack of the nodes a sum's step absorbs.
    :meth:`blocks` sizes the blocks by it."""

    def __init__(self, groups, order=0):
        frames = self._frames = {}  # (parent frame, keep, fixed) -> frame
        self._overflow = None       # the overflow's message, if any
        # Walk: group g adds the pairs ends[g] to ends[g + 1], each
        # pair's children before it.  A pair's key is its node in frame
        # 0, else the pair itself.
        ids, nodes, frame_of, kids_of, ends = {}, [], [], [], [0]
        for g, roots in enumerate(groups):
            reach = min([f._reach for f in roots], default=order)
            if reach < order:
                self._overflow = (f"derivative request of order "
                                  f"{order + MAX_ORDER - reach} exceeds cap "
                                  f"{MAX_ORDER}")
                groups = groups[:g]
                break
            todo = [(f, 0, None) for f in reversed(roots)]
            while todo:
                node, frame, kids = todo.pop()
                key = node if frame == 0 else (node, frame)
                if kids is None:
                    if key in ids:
                        continue
                    kf = frame
                    if isinstance(node, RestrictField):
                        kf = frames.setdefault((frame, node.keep, node.fixed),
                                               len(frames) + 1)
                    kids = node.children
                    if kids:
                        keys = (kids if kf == 0 else
                                tuple([(c, kf) for c in kids]))
                        todo.append((node, frame, keys))
                        todo += [(c, kf, None) for c, k in
                                 zip(kids[::-1], keys[::-1]) if k not in ids]
                        continue
                ids[key] = len(nodes)
                nodes.append(node)
                frame_of.append(frame)
                kids_of.append(tuple([ids[k] for k in kids]))
            ends.append(len(nodes))
        # Plan, parents first: each pair's order, the highest any reader
        # asks for (never below the roots', since no node asks less of
        # its children); its reads, by steps and read-outs, and reader[i],
        # the pair whose read of i was counted last; and its absorption
        # kind, p, s or x (see _Combination), or None.
        n = len(nodes)
        want, nreads = [order] * n, [0] * n
        reader, kind = [None] * n, [None] * n
        for roots in groups:
            for f in roots:
                nreads[ids[f]] += 1
        for i in range(n - 1, -1, -1):
            node, r = nodes[i], reader[i]
            if nreads[i] == 1 and r is not None and \
                    node.support is nodes[r].support:
                cls, host = node.__class__, nodes[r].__class__
                if cls is ScaleField and host is SumField:
                    kind[i] = "x"
                elif cls is MatMulField and (want[i] == 0 or not node.support):
                    if host is SumField:
                        kind[i] = "p"
                    elif kind[r] == "x":
                        kind[i], kind[r] = "p", "s"
            for kid, o in zip(kids_of[i], node.kid_orders(want[i])):
                nreads[kid] += 1
                reader[kid] = i
                if o > want[kid]:
                    want[kid] = o
        # Emit: each group's pairs in walk order, absorbed ones skipped.
        step_of = [None] * n        # each pair's step
        size = []                   # the bytes of each step's jet, per point
        steps = self._steps = []    # (node, order, frame, kid steps, views)
        last = self._last = []      # each step's last reader: step or ~group
        reads = self._reads = []    # (root steps, root views, end of group)
        reached = self._reached = []    # each group's reached steps
        reach = []                  # each step's reached steps, as a bit set
        tables = (nodes, kids_of, want)
        for g, roots in enumerate(groups):
            for i in range(ends[g], ends[g + 1]):
                if kind[i]:
                    continue
                node, kids, k = nodes[i], kids_of[i], want[i]
                sup = (node.child.support if isinstance(node, RestrictField)
                       else node.support)
                s = step_of[i] = len(steps)
                if any([kind[kid] for kid in kids]):
                    node = _Combination(node, k, kids, tables, step_of, kind)
                    read, views = node.read, node.views
                    for j in read:
                        last[j] = s
                else:
                    read, views = [], None
                    for kid, o in zip(kids, node.kid_orders(k)):
                        j = step_of[kid]
                        last[j] = s
                        sub = nodes[kid].support
                        if sub is not sup or want[kid] != o:
                            view = _view(want[kid], sub, o, sup, node)
                            if view is not None:
                                if views is None:
                                    views = [None] * len(kids)
                                views[len(read)] = view
                        read.append(j)
                    read, views = tuple(read), views and tuple(views)
                steps.append((node, k, frame_of[i], read, views))
                last.append(None)
                bits = 1 << s
                for j in read:
                    bits |= reach[j]
                reach.append(bits)
                rows, cols = nodes[i].shape
                size.append(16 * rows * cols * jet_space(
                    len(nodes[i].support), k).nterms)
            pairs = [ids[f] for f in roots]
            bits = 0
            for i in pairs:
                last[step_of[i]] = ~g
                bits |= reach[step_of[i]]
            reached.append(np.flatnonzero(np.unpackbits(np.frombuffer(
                bits.to_bytes(-(-bits.bit_length() // 8), "little"),
                np.uint8), bitorder="little")))
            reads.append((tuple([step_of[i] for i in pairs]), tuple([
                _view(want[i], f.support, order, f.support)
                for i, f in zip(pairs, roots)]), len(steps)))
        # the run's live bytes per point: a jet counts from its step to
        # its last reader, a step or a read-out
        freed, read_out = [0] * len(steps), [0] * len(groups)
        for j, r in enumerate(last):
            if r >= 0:
                freed[r] += size[j]
            else:
                read_out[~r] += size[j]
        live = peak = start = 0
        for g, (_, _, stop) in enumerate(reads):
            for i in range(start, stop):
                live += size[i]
                if live > peak:
                    peak = live
                live -= freed[i]
            live -= read_out[g]
            start = stop
        self.point_bytes = peak

    def blocks(self, points):
        """``points`` split, in order, into the fewest blocks of near-equal
        size whose runs hold at most BLOCK_BYTES of jets at once; a block
        has at least one point however large its jets."""
        fit = max(1, BLOCK_BYTES // max(1, self.point_bytes))
        count = -(-len(points) // fit)
        size, extra = divmod(len(points), count)
        out, start = [], 0
        for b in range(count):
            stop = start + size + (b < extra)
            out.append(points[start:stop])
            start = stop
        return out

    def run(self, points):
        """Evaluate at the block ``points``: yield ``(root jets, scales)``
        for each group in order, its scales folding the own maxima of its
        reached steps, one per point, and raise OrderOverflow in place of
        the overflow group.  A root jet holds the root's support, the points'
        jets stacked as in :meth:`JetSpace.mul`."""
        ats = [_At(np.array(points, dtype=float))]
        n = len(points)
        for parent, keep, fixed in self._frames:
            full = np.tile(np.array(fixed, dtype=float), (n, 1))
            for k, pos in enumerate(keep):
                full[:, pos] = ats[parent].points[:, k]
            ats.append(_At(full))
        steps, last, reached = self._steps, self._last, self._reached
        jets = [None] * len(steps)
        mag = _Mag(len(steps), n)
        start = 0
        for g, (roots, views, stop) in enumerate(self._reads):
            for i in range(start, stop):
                node, order, frame, kids, kid_views = steps[i]
                if kid_views is None:
                    args = [jets[k] for k in kids]
                else:
                    args = [_serve(jets[k], v)
                            for k, v in zip(kids, kid_views)]
                if node.__class__ is _Combination:
                    jet, stack = node.combine(ats[frame], args)
                    mag.update(i, jet, stack)
                    del stack           # scratch, not to be held past its step
                else:
                    jet = node._compute(ats[frame], order, args)
                    mag.update(i, jet)
                jets[i] = jet
                for k in kids:
                    if last[k] == i:
                        jets[k] = None
            start = stop
            yield ([_serve(jets[k], v) for k, v in zip(roots, views)],
                   mag.fold(reached[g]))
            for k in roots:
                if last[k] == ~g:
                    jets[k] = None
        if self._overflow is not None:
            raise OrderOverflow(self._overflow)


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
    keeps a model alive.

    A new node, once past the table, has its ``support`` and ``_reach``
    set from its children's, which were set when they were built (see
    :class:`Field`); a node the table returns has them already."""

    def __init__(cls, name, bases, ns):
        super().__init__(name, bases, ns)
        names = ns.get("params")
        cls._structure = (None if names is None else
                          attrgetter("__class__", *names, "children"))

    def __call__(cls, *args, **kwargs):
        node = type.__call__(cls, *args, **kwargs)
        structure = cls._structure
        if structure is not None:
            key = structure(node)
            ref = _NODES.get(key)
            if ref is not None:
                live = ref()
                if live is not None:
                    return live
            ref = _NODES[key] = _Entry(node, _forget)
            ref.key = key
        node.support = node._support()
        node._reach = min([c._reach - o for c, o in
                           zip(node.children, node.kid_orders(0))],
                          default=MAX_ORDER)
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
    :meth:`_compute`.  It is given ``kids``, the jets of its children at
    :meth:`kid_orders`, and ``at``, the block of points with their
    coordinate jets.

    A jet of a block of ``at.n`` points stacks their jets as in
    :meth:`JetSpace.mul`: ``(T, at.n * rows, cols)``.  At order 0 each
    kid is its one term, its value, whatever its support.  Above order 0
    a kid arrives over the node's support, except that a class that sets
    ``one_term_kids`` (a product) is given a child of empty support as
    its one term, ``(1, at.n * rows, cols)``, not embedded.

    Two facts of a node are settled when it is built, from its
    children's (see :class:`_Interned`): ``support``, the ascending
    coordinates it can depend on (:meth:`_support`), over which its jets
    are built (:meth:`_space`) and its kids arrive; and ``_reach``, the
    highest order it can be computed at before a derivative in its
    subtree exceeds MAX_ORDER (see :class:`Tape`): the highest at which
    :meth:`kid_orders` asks for each child within the child's own reach.
    So :meth:`deriv` folds a derivative along a coordinate outside the
    support to the zero field when it is built, and no zero derivative
    enters a DAG.  Every node's order-k jet is bit for bit the first
    terms of its higher-order jet, so one step per node serves every
    order its readers need."""

    __slots__ = ("support", "_reach")
    shape = (1, 1)
    ncoords = 0
    children = ()
    one_term_kids = False

    def eval_jet(self, point, order=0):
        """Jet of this field at ``point`` up to ``order`` over all its
        coordinates, as ``(rows, cols, T)``: a one-root tape run over a
        one-point block."""
        ((jet,), _), = Tape([[self]], order).run([point])
        full = tuple(range(self.ncoords))
        return np.moveaxis(_serve(jet, _view(order, self.support, order,
                                             full)), 0, -1)

    def _support(self):
        """The union of the children's supports."""
        kids = self.children
        first = kids[0].support if kids else ()
        for c in kids:
            if c.support is not first:
                return _support({i for c in kids for i in c.support})
        return first

    def _space(self, order):
        return jet_space(len(self.support), order)

    def _compute(self, at, order, kids):
        raise NotImplementedError

    def kid_orders(self, order):
        """The orders :meth:`_compute` is given its children's jets at,
        when it runs at ``order``, one per child: the node's own."""
        return (order,) * len(self.children)

    @property
    def is_scalar(self):
        return self.shape == (1, 1)

    def deriv(self, gamma):
        """The partial derivative d^gamma of this field: the field itself
        for a zero multi-index, and the zero field for one along a
        coordinate outside the support."""
        if len(gamma) != self.ncoords:
            raise ValueError("derivative multi-index length mismatch")
        if not any(gamma):
            return self
        if sum([gamma[i] for i in self.support]) != sum(gamma):
            return ZeroField(self.shape, self.ncoords)
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


# each support, as one tuple object
_SUPPORTS = {}


def _support(coords):
    """The one ascending tuple of the coordinate set ``coords``."""
    key = tuple(sorted(coords))
    return _SUPPORTS.setdefault(key, key)


def _transposed(jets, n):
    """The transposes of the stacked jets of ``n`` points, stacked alike."""
    return join_points(split_points(jets, n).swapaxes(2, 3))


# ---------------------------------------------------------------------------
# leaves


class ZeroField(Field):
    params = ("shape", "ncoords")

    def __init__(self, shape, ncoords):
        self.shape = tuple(shape)
        self.ncoords = ncoords

    def _compute(self, at, order, kids):
        return self._space(order).zeros(*self.shape, at.n)

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

    def _compute(self, at, order, kids):
        return self._space(order).const(self.matrix, at.n)

    def _conj_t(self):
        return ConstField(self.matrix.conj().T, self.ncoords)

    @cached_property
    def _monomial(self):
        """The matrix's :class:`~.jets.Monomial` form, or None; decided
        the first time a product asks."""
        return monomial(self.matrix)

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

    def _support(self):
        """The coordinates the expression reads."""
        found, todo = set(), [self.expr]
        while todo:
            e = todo.pop()
            if isinstance(e, Coord):
                found.add(e.index)
            elif isinstance(e, Binary):
                todo += (e.left, e.right)
            elif isinstance(e, Unary):
                todo.append(e.child)
            elif isinstance(e, Pow):
                todo.append(e.base)
        return _support(found)

    def _compute(self, at, order, kids):
        return self.expr.eval_jet(self._space(order),
                                  at.coord_jets(self.support, order), at.n)

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

    def _compute(self, at, order, kids):
        entries = np.stack([jet[..., 0] for jet in kids], axis=2)
        return entries.reshape(len(entries), -1, self.shape[1])

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

    def _compute(self, at, order, kids):
        return _add_up(kids)

    def _deriv(self, gamma):
        return fsum([ch.deriv(gamma) for ch in self.children],
                    self.shape, self.ncoords)

    def _conj_t(self):
        return fsum([ch.conj_t() for ch in self.children],
                    (self.shape[1], self.shape[0]), self.ncoords)

    def describe(self):
        return " + ".join(ch.describe() for ch in self.children)


class MatMulField(Field):
    """The matrix product of two fields.  It picks its own kernel when it
    is built: ``_form`` is ``(left, form)`` when a factor is a constant
    of monomial form ``form`` (:func:`.jets.monomial`), the first factor
    if ``left``, and None otherwise.  With a form, :meth:`_compute` runs
    the signed gather, and :meth:`JetSpace.mul` only for a non-finite
    other factor."""

    params = ()
    one_term_kids = True

    def __init__(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"matmul shape mismatch {a.shape} x {b.shape}")
        if a.ncoords != b.ncoords:
            raise ValueError("matmul over different coordinate spaces")
        self.children = (a, b)
        self.shape = (a.shape[0], b.shape[1])
        self.ncoords = a.ncoords
        self._form = None
        if a.__class__ is ConstField and a._monomial is not None:
            self._form = True, a._monomial
        elif b.__class__ is ConstField and b._monomial is not None:
            self._form = False, b._monomial

    def _compute(self, at, order, kids):
        if self._form is not None:
            out = _gathered(self._form, *kids, at.n)
            if out is not None:
                return join_points(out)
        return self._space(order).mul(*kids)

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

    def _compute(self, at, order, kids):
        return self.coeff * kids[0]

    def _deriv(self, gamma):
        return fscale(self.coeff, self.child.deriv(gamma))

    def _conj_t(self):
        return fscale(self.coeff.conjugate(), self.child.conj_t())

    def describe(self):
        return f"({_cfmt(self.coeff)})*{self.child.describe()}"


class ScalarMulField(_Unary):
    """Pointwise product of a scalar field with a matrix field."""

    params = ()
    one_term_kids = True

    def __init__(self, scalar, child):
        if not scalar.is_scalar:
            raise ValueError("first factor must be scalar")
        super().__init__(child)
        self.scalar = scalar
        self.children = (scalar, child)

    def _compute(self, at, order, kids):
        return self._space(order).scal_mul(*kids)

    def _conj_t(self):
        return ScalarMulField(self.scalar.conj_t(), self.child.conj_t())

    def describe(self):
        return f"({self.scalar.describe()})*{self.child.describe()}"


class ConjTransposeField(_Unary):
    params = ()

    def __init__(self, child):
        super().__init__(child)
        self.shape = (child.shape[1], child.shape[0])

    def _compute(self, at, order, kids):
        return np.conj(_transposed(kids[0], at.n))

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

    def _compute(self, at, order, kids):
        return _transposed(kids[0], at.n)

    def _deriv(self, gamma):
        return TransposeField(self.child.deriv(gamma))

    def describe(self):
        return f"({self.child.describe()})^T"


class DerivativeField(_Unary):
    """The partial derivative d^gamma of the child, along coordinates of
    the child's support only: :meth:`Field.deriv` folds one that leaves
    the support to the zero field, and building one directly raises."""

    params = ("gamma",)

    def __init__(self, child, gamma):
        super().__init__(child)
        self.gamma = tuple(int(g) for g in gamma)
        if len(self.gamma) != child.ncoords:
            raise ValueError("derivative multi-index length mismatch")
        # gamma over the child's support, which its jet is held over
        self._along = tuple([self.gamma[i] for i in child.support])
        if sum(self._along) != sum(self.gamma):
            raise ValueError("derivative along a coordinate outside the "
                             "child's support; Field.deriv folds it to zero")

    def _compute(self, at, order, kids):
        return self._space(order + sum(self.gamma)).extract(
            kids[0], self._along, self._space(order))

    def kid_orders(self, order):
        """The child at ``order + |gamma|``."""
        return (order + sum(self.gamma),)

    def _deriv(self, gamma):
        merged = tuple(a + b for a, b in zip(self.gamma, gamma))
        return DerivativeField(self.child, merged)

    def _conj_t(self):
        conj = self.child.conj_t()
        if conj.support is self.child.support:
            return DerivativeField(conj, self.gamma)
        return conj.deriv(self.gamma)   # the conjugate folded terms away

    def describe(self):
        names = [f"d{i}" for i, g in enumerate(self.gamma) for _ in range(g)]
        return f"{''.join(names)}[{self.child.describe()}]"


class _Kernel(_Unary):
    """A node whose jet is the ``kernel`` method of the jet space applied
    to the child's jet and ``args``, written ``text(child)``.  The method
    is looked up on the jet space at every call."""

    args = ()

    def _compute(self, at, order, kids):
        return getattr(self._space(order), self.kernel)(kids[0], *self.args)

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

    def _compute(self, at, order, kids):
        jet = kids[0]
        v = jet[0, :, 0]
        good = (v.real > 0) & (np.abs(v.imag) <= 1e-12 * (1 + np.abs(v.real)))
        if not good.all():
            raise ValueError(
                f"{self.what} must be positive, got {v[~good][0]:g}")
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

    def _compute(self, at, order, kids):
        return split_points(kids[0], at.n)[:, :, self.r, self.c:self.c + 1]

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

    def _compute(self, at, order, kids):
        out = self._space(order).zeros(self.n, self.n, at.n)
        diag = range(self.n)
        split_points(out, at.n)[:, :, diag, diag] = kids[0]
        return out

    def _deriv(self, gamma):
        return DiagField(self.child.deriv(gamma), self.n)

    def _conj_t(self):
        return DiagField(ConjTransposeField(self.child), self.n)

    def describe(self):
        return f"({self.child.describe()})*1"


class RestrictField(Field):
    """A field over fewer coordinates: the parent evaluated on a slice.

    ``keep`` lists the parent coordinate positions that survive; all the
    other parent coordinates are frozen at ``fixed`` values.  Only valid
    when the parent does not actually depend on the frozen coordinates
    (the reduction machinery verifies this before constructing one).
    A tape runs the parent at the full point (see :class:`Tape`), and
    reads its jet over the parent's own support.
    """

    params = ("keep", "fixed")

    def __init__(self, child, keep, fixed):
        self.child = child
        self.children = (child,)
        self.keep = tuple(keep)
        self.fixed = tuple(float(x) for x in fixed)
        if len(self.fixed) != child.ncoords:
            raise ValueError("fixed point must cover all parent coordinates")
        self.shape = child.shape
        self.ncoords = len(self.keep)

    def _support(self):
        """The kept positions of the child's support."""
        return _support([k for k, pos in enumerate(self.keep)
                         if pos in self.child.support])

    def _compute(self, at, order, kids):
        sub = self.child.support
        table = self._space(order).embedding(
            tuple([sub.index(self.keep[k]) for k in self.support]),
            jet_space(len(sub), order))
        return kids[0][table]

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


def _const_product(a, b):
    """``a.matrix @ b.matrix``, as a signed gather when either is a
    monomial (see :mod:`.jets`)."""
    out = None
    if a._monomial is not None:
        out = a._monomial.left(b.matrix)
    if out is None and b._monomial is not None:
        out = b._monomial.right(a.matrix)
    return a.matrix @ b.matrix if out is None else out


def _is_identity(f):
    return isinstance(f, ConstField) and f._identity


def _fmatmul2(a, b):
    if isinstance(a, ZeroField) or isinstance(b, ZeroField):
        return ZeroField((a.shape[0], b.shape[1]), a.ncoords)
    if isinstance(a, ConstField) and isinstance(b, ConstField):
        return fconst(_const_product(a, b), a.ncoords)
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
    return space.matrix_exp(m[None].astype(np.complex128))[0]


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
