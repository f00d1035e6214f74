"""The evaluation tape: one step per node at its highest order, jets over
their support, freeing and exact scales, and blocks of points."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from sqmzoo import fields, verify, zoo
from sqmzoo.clifford import (FermionBilinearField, FermionLinearField,
                             complex_fermions)
from sqmzoo.diffop import (EvaluationError, Residual, SampleSpec,
                           sampled_residual)
from sqmzoo.expr import Coord, parse
from sqmzoo.fields import (ConjTransposeField, ConstField, DerivativeField,
                           DetField, DiagField, EntryField, ExprField,
                           GridField, InverseField, MatExpField, MatMulField,
                           PositiveGuardField, PowField, RestrictField,
                           ScalarFnField, ScalarMulField, ScaleField,
                           SumField, Tape, TransposeField, ZeroField)
from sqmzoo.jets import JetSpace, jet_space, split_points

SPEC2 = SampleSpec(box=((-0.8, 0.8), (-0.8, 0.8)), n_points=3, seed=4)


def _brute_residual(group, points):
    """(max_abs, argmax, scale) of a group on its own: the scale is the
    largest |value| of every (node, order, point) the group needs, a
    RestrictField's child at the full point included, read from the jets
    of one tape per (order, point) that has each of them as a root of
    its own group, instead of from stored subtree maxima."""
    max_abs, argmax, scale = 0.0, None, 0.0
    for p in points:
        for f in group:
            v = float(np.max(np.abs(f.eval_jet(p))))
            if v > max_abs:
                max_abs, argmax = v, p
        need = {}                   # (order, point) -> {id: node}
        todo = [(f, 0, tuple(p)) for f in group]
        while todo:
            node, order, at = todo.pop()
            nodes = need.setdefault((order, at), {})
            if id(node) in nodes:
                continue
            nodes[id(node)] = node
            if isinstance(node, RestrictField):
                full = list(node.fixed)
                for k, pos in enumerate(node.keep):
                    full[pos] = at[k]
                at = tuple(full)
            todo.extend((c, o, at) for c, o in
                        zip(node.children, node.kid_orders(order)))
        for (order, at), nodes in need.items():
            tape = Tape([[node] for node in nodes.values()], order)
            for (jet,), _ in tape.run([at]):
                scale = max(scale, float(np.max(np.abs(jet[0]))))
    return max_abs, argmax, scale


def _every_node_type(spare=()):
    """Groups of roots over two coordinates that use every Field subclass,
    share nodes between groups and repeat a child in one sum; over the
    coordinates ``spare`` too, after those two, which no node reads."""
    coords = ("x", "y") + spare
    n = len(coords)

    def e(text, names=coords):
        return ExprField(parse(text, names), len(names))

    def d(*gamma):
        return gamma + (0,) * len(spare)

    a = e("1.3 + 0.2*sin(x)*y")
    b = e("0.5*x*y + 0.1*x^2")
    grid = GridField([[a, b], [b, e("2 + 0.3*cos(y)")]])
    guard = PositiveGuardField(a, "a")
    root_a = PowField(guard, 1, 2)
    log_a = ScalarFnField("log", guard)
    chain = DerivativeField(DerivativeField(grid, d(1, 0)), d(0, 1))
    square = MatMulField(grid, TransposeField(grid))
    inv = InverseField(SumField([grid, ConstField(3.0 * np.eye(2), n)]))
    expo = MatExpField(ScaleField(0.3, grid))
    diag = DiagField(ConjTransposeField(root_a), 2)
    det = DetField(grid)
    twice = SumField([chain, chain])
    scaled = ScalarMulField(SumField([det, log_a]), ConjTransposeField(square))
    # the restricted child passes through +-7, larger than any value of
    # the restriction itself, so its scale must come from the child's frame
    over3 = ("x", "y", "z") + spare
    big = SumField([e("x + 7", over3), e("-7", over3)])
    grid3 = GridField([[big, e("x*y + z", over3)],
                       [e("y - x", over3), e("0.5 + y^2", over3)]])
    restricted = RestrictField(grid3, (0, 1) + tuple(range(3, n + 1)),
                               (0.0, 0.0, 0.4) + (0.0,) * len(spare))
    entry = EntryField(square, 0, 1)
    rep = complex_fermions(2)
    pair = FermionBilinearField(rep, SumField([grid, restricted]), "pb")
    single = FermionLinearField(rep, GridField([[entry, b]]), "psi")
    fock = SumField([pair, single, ZeroField((4, 4), n)])
    m2 = SumField([twice, scaled, inv, expo, diag, chain.deriv(d(1, 0))])
    return [[m2, entry], [fock, m2], [DerivativeField(fock, d(0, 1))],
            [restricted], []]


def _combinations():
    """Groups over two coordinates whose sums absorb children, and
    children they must not absorb.  A sum at order 0 has scaled and plain
    one-term products, two scales of a product both read, a scale of a
    jet held at a higher order, a constant and a product of a constant.
    A sum a derivative asks for at order 1 has products of three terms, a
    constant it reads embedded and products that read a constant in
    place.  A root of group 0
    is read by group 1's sum, and a sum reads one product twice."""
    xy = ("x", "y")

    def e(text):
        return ExprField(parse(text, xy), 2)

    g = GridField([[e("1 + x"), e("0.5*y + 0.3*i*x")],
                   [e("x*y"), e("2 - y^2 + i")]])
    h = GridField([[e("sin(x) - 0.7*i*y"), e("1.5")],
                   [e("y"), e("cos(x*y)")]])
    m = ConstField(np.array([[1.0, 2.0], [-3.0, 0.5j]]), 2)
    shared = MatMulField(g, h)
    low = SumField([ScaleField(2.0, shared),
                    ScaleField(0.3 - 0.7j, MatMulField(h, g)),
                    MatMulField(g, g), ScaleField(1.5 + 0.5j, shared),
                    ScaleField(0.25, g), ConstField((1 + 1j) * np.eye(2), 2),
                    MatMulField(m, h)])
    high = SumField([ScaleField(3.0, MatMulField(h, TransposeField(g))),
                     ConstField(np.eye(2), 2), ScaleField(0.4j - 2.0, h),
                     MatMulField(m, g), MatMulField(g, m),
                     ScalarMulField(ConstField([[0.5]], 2), g),
                     ScalarMulField(e("x - y"), m)])
    root = MatMulField(h, h)
    twice = MatMulField(g, TransposeField(h))
    return [[root, low],
            [SumField([root, ScaleField(3.0, MatMulField(h, h.conj_t()))]),
             fields.fsum([twice, twice])],
            [DerivativeField(high, (1, 0))], [DerivativeField(g, (2, 0))]]


def _absorbed(tape):
    """The nodes the sums of ``tape`` absorb."""
    return [f for step in tape._steps if type(step[0]) is fields._Combination
            for f in step[0].absorbed]


def _nodes(groups):
    """Every node the groups reach."""
    out = {}
    todo = [(f, 0) for g in groups for f in g]
    while todo:
        node, order = todo.pop()
        if (id(node), order) in out:
            continue
        out[(id(node), order)] = node
        todo.extend(zip(node.children, node.kid_orders(order)))
    return list(out.values())


def _subclasses(cls):
    """Public node classes of the package below ``cls``; the private
    bases (``_Unary``, ``_Kernel``) have no instances of their own."""
    out = set()
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("sqmzoo.") and \
                not sub.__name__.startswith("_"):
            out.add(sub)
        out |= _subclasses(sub)
    return out


def test_dag_uses_every_field_type():
    used = {type(node) for node in _nodes(_every_node_type())}
    assert used == _subclasses(fields.Field)


_X = "(1.3 + ((0.2 * sin(x)) * y))"
_GRID_SQ = "grid(2, 2).(grid(2, 2))^T"
_CHAIN = "d1[d0[grid(2, 2)]]"
_SCALED = f"(det(grid(2, 2)) + log({_X}))*({_GRID_SQ})^+"
_FOCK = ("[grid(2, 2) + restrict(grid(2, 2))]*psi.psibar + "
         "[grid(1, 2)]*psi + 0")
_DIAG = f"((({_X})^(1/2))^+)*1"

# (type name, describe()) of every node _every_node_type reaches
NODE_DESCRIPTIONS = {
    ("ConjTransposeField", f"({_GRID_SQ})^+"),
    ("ConjTransposeField", f"(({_X})^(1/2))^+"),
    ("ConstField", "const(2, 2)"),
    ("DerivativeField", "d0[grid(2, 2)]"),
    ("DerivativeField", "d0d1[d0[grid(2, 2)]]"),
    ("DerivativeField", f"d1[{_FOCK}]"),
    ("DerivativeField", _CHAIN),
    ("DetField", "det(grid(2, 2))"),
    ("DiagField", _DIAG),
    ("EntryField", f"{_GRID_SQ}[0,1]"),
    ("ExprField", "(((0.5 * x) * y) + (0.1 * x^2))"),
    ("ExprField", "((x * y) + z)"),
    ("ExprField", "(-7)"),
    ("ExprField", "(0.5 + y^2)"),
    ("ExprField", _X),
    ("ExprField", "(2 + (0.3 * cos(y)))"),
    ("ExprField", "(x + 7)"),
    ("ExprField", "(y - x)"),
    ("FermionBilinearField",
     "[grid(2, 2) + restrict(grid(2, 2))]*psi.psibar"),
    ("FermionLinearField", "[grid(1, 2)]*psi"),
    ("GridField", "grid(1, 2)"),
    ("GridField", "grid(2, 2)"),
    ("InverseField", "inv(grid(2, 2) + const(2, 2))"),
    ("MatExpField", "exp((0.3)*grid(2, 2))"),
    ("MatMulField", _GRID_SQ),
    ("PositiveGuardField", _X),
    ("PowField", f"({_X})^(1/2)"),
    ("RestrictField", "restrict(grid(2, 2))"),
    ("ScalarFnField", f"log({_X})"),
    ("ScalarMulField", _SCALED),
    ("ScaleField", "(0.3)*grid(2, 2)"),
    ("SumField", "(x + 7) + (-7)"),
    ("SumField", _FOCK),
    ("SumField", f"{_CHAIN} + {_CHAIN}"),
    ("SumField", f"{_CHAIN} + {_CHAIN} + {_SCALED} + "
                 "inv(grid(2, 2) + const(2, 2)) + exp((0.3)*grid(2, 2)) + "
                 f"{_DIAG} + d0d1[d0[grid(2, 2)]]"),
    ("SumField", f"det(grid(2, 2)) + log({_X})"),
    ("SumField", "grid(2, 2) + const(2, 2)"),
    ("SumField", "grid(2, 2) + restrict(grid(2, 2))"),
    ("TransposeField", "(grid(2, 2))^T"),
    ("ZeroField", "0"),
}


def test_describe_of_every_node_type_is_pinned():
    got = {(type(node).__name__, node.describe())
           for node in _nodes(_every_node_type())}
    assert got == NODE_DESCRIPTIONS


def test_planned_batch_frees_every_entry_and_computes_once(monkeypatch):
    """One tape over every node type and the combinations, with the sum
    that reads the inverse also read at order 1: each (node, point) is
    computed once, at the highest order its readers need, by its own step
    or inside exactly one sum's step that absorbs it, the inverse and the
    nodes computed from it included; the jets equal one-node evaluation,
    and each step is dropped by its last reader, the last step or read-out
    that reads it, in run order, reads of absorbed nodes counted as the
    absorbing step's."""
    groups = _every_node_type()
    groups.append([DerivativeField(groups[0][0], (1, 0))])
    groups += _combinations()
    points = SPEC2.points()
    expected = [[f.eval_jet(p) for g in groups for f in g]
                for p in points]
    computed, read = {}, {}     # (node id, point) -> orders

    def record(node, at, order):
        point = tuple(at.points[0])
        computed.setdefault((id(node), point), []).append(order)
        kid_at = point
        if isinstance(node, RestrictField):
            full = list(node.fixed)
            for k, pos in enumerate(node.keep):
                full[pos] = point[k]
            kid_at = tuple(full)
        for c, o in zip(node.children, node.kid_orders(order)):
            read.setdefault((id(c), kid_at), set()).add(o)

    for cls in {type(node) for node in _nodes(groups)}:
        orig = cls._compute

        def counting(self, at, order, kids, _orig=orig):
            record(self, at, order)
            return _orig(self, at, order, kids)

        monkeypatch.setattr(cls, "_compute", counting)
    tape = Tape(groups)
    order_of = {id(step[0]): step[1] for step in tape._steps}
    combine = fields._Combination.combine

    def combining(self, at, kids):
        for node in (self.node,) + self.absorbed:
            record(node, at, order_of[id(self)])
        return combine(self, at, kids)

    monkeypatch.setattr(fields._Combination, "combine", combining)
    for p, want in zip(points, expected):
        got = [np.moveaxis(jet, 0, -1) for jets, _ in tape.run([p])
               for jet in jets]
        assert len(got) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        for f in {id(f): f for g in groups for f in g}.values():
            read.setdefault((id(f), p), set()).add(0)
    assert set(computed) == set(read)
    nodes = len(tape._steps) + len(_absorbed(tape))
    assert len(_absorbed(tape)) > 0
    assert sum(map(len, computed.values())) == len(points) * nodes
    for key, orders in computed.items():
        assert orders == [max(read[key])]
    # the sum that reads the inverse is read at orders 0 and 1, and runs once
    assert all(read[id(groups[0][0]), p] == {0, 1} for p in points)
    # readers in run order: step i, and read-out g between its last step
    # and the next group's first
    readers = {}
    start = 0
    for g, (roots, _, stop) in enumerate(tape._reads):
        for i in range(start, stop):
            for k in tape._steps[i][3]:
                readers.setdefault(k, []).append(i)
        for k in roots:
            readers.setdefault(k, []).append(~g)
        start = stop
    assert sorted(readers) == list(range(len(tape._steps)))
    assert [readers[k][-1] for k in sorted(readers)] == tape._last


def _one_by_one(node, at, order):
    """The jet of ``node`` over the block ``at`` at ``order``, every node
    computed by its own ``_compute`` from its children's jets: nothing is
    shared or absorbed."""
    kids = []
    for c, o in zip(node.children, node.kid_orders(order)):
        view = fields._view(o, c.support, o, node.support, node)
        kids.append(fields._serve(_one_by_one(c, at, o), view))
    return node._compute(at, order, kids)


def test_sums_absorb_only_children_they_alone_read(monkeypatch):
    """A root of group 0 that group 1's sum reads keeps its step, as does
    the product that fsum([P, P]) reads twice; every root jet, and the
    jet of every node a sum's step absorbs, equals the node computed by
    itself, its subtree one node at a time, bit for bit."""
    groups = _combinations()
    tape = Tape(groups)
    stacks = []                     # (order, absorbed nodes, their stack)
    order_of = {id(step[0]): step[1] for step in tape._steps}
    combine = fields._Combination.combine

    def keeping(self, at, kids):
        jet, stack = combine(self, at, kids)
        stacks.append((order_of[id(self)], self.absorbed, stack))
        return jet, stack

    monkeypatch.setattr(fields._Combination, "combine", keeping)
    taken = _absorbed(tape)
    root, pair = groups[0][0], groups[1][1]
    product = pair.children[0]
    assert pair.children == (product, product)
    assert root in groups[1][0].children
    assert root not in taken and product not in taken
    steps = [step[0] for step in tape._steps]
    i = steps.index(pair)
    assert tape._steps[i][3] == (steps.index(product),) * 2
    points = SPEC2.points()
    at = fields._At(np.array(points))
    for (jets, _), group in zip(tape.run(points), groups):
        for jet, f in zip(jets, group):
            assert jet.tobytes() == _one_by_one(f, at, 0).tobytes()
    assert len(stacks) == 3
    for order, absorbed, stack in stacks:
        assert sorted(slot.tobytes() for slot in stack) == sorted(
            _one_by_one(f, at, order).tobytes() for f in absorbed)


def test_an_order_0_read_takes_no_embedding():
    """A jet's order-0 part is its value over any coordinates: in a DAG
    of supports {x}, {y}, {z} and their unions, every read at order 0,
    by a step or a read-out, is the jet itself or its one-term prefix,
    the prefix of a jet a derivative lifted to order 1 included.  The
    root jets are the node-by-node ones bit for bit, and equal the values
    of their order-1 jets over all coordinates, whose reads are
    embedded."""
    xyz = ("x", "y", "z")

    def e(text):
        return ExprField(parse(text, xyz), 3)

    gx = GridField([[e("1 + x"), e("x^2")], [e("sin(x)"), e("2*x - i")]])
    gy = GridField([[e("y"), e("cos(y)")], [e("1 - y"), e("0.5*i*y^3")]])
    total = SumField([gx, gy, ScaleField(2.0, MatMulField(gx, gy))])
    groups = [[total, GridField([[e("x"), e("y")]])],
              [ScalarMulField(e("z"), gx), DerivativeField(gx, (1, 0, 0))]]
    tape = Tape(groups)

    def node_of(step):
        node = step[0]
        return node.node if type(node) is fields._Combination else node

    views, crossing = [], 0
    for step in tape._steps:
        if step[1] == 0:
            views += step[4] or ()
            crossing += sum(node_of(tape._steps[k]).support !=
                            node_of(step).support for k in step[3])
    views += [v for _, root_views, _ in tape._reads for v in root_views]
    assert crossing >= 6 and 1 in views
    assert all(v is None or type(v) is int for v in views)
    points = [(0.3, -0.7, 0.2), (-0.1, 0.5, -0.4)]
    at = fields._At(np.array(points))
    for (jets, _), group in zip(tape.run(points), groups):
        for jet, f in zip(jets, group):
            assert jet.tobytes() == _one_by_one(f, at, 0).tobytes()
            for j, p in zip(split_points(jet, len(points))[0], points):
                assert np.array_equal(j, f.eval_jet(p, 1)[..., 0])


def test_fusion_does_not_change_theorem2():
    """hyperkahler_gh's theorem2, its 62 groups compiled into one tape and
    each group into a tape of its own: the groups of the one tape share
    nodes, so its sums absorb fewer, yet at the 6 points of seed 7 every
    root jet and every scale is equal, bit for bit."""
    m = zoo.hyperkahler_gibbons_hawking()
    spec = m.sample_spec(n_points=6, seed=7)
    groups = [list(rel.fields) for rel in verify.CHECKS["theorem2"](m)]
    assert len(groups) == 62
    whole = Tape(groups)
    alone = [Tape([group]) for group in groups]
    shared = set(map(id, _absorbed(whole)))
    assert shared < {id(f) for tape in alone for f in _absorbed(tape)}
    for block in whole.blocks(spec.points()):
        for (jets, scales), tape in zip(whole.run(block), alone):
            (one_jets, one_scales), = tape.run(block)
            assert [j.tobytes() for j in jets] == \
                [j.tobytes() for j in one_jets]
            assert scales.tobytes() == one_scales.tobytes()


def test_lower_order_jet_is_a_prefix_of_a_higher_one():
    """What lifting rests on: for every node computable at order 2, its
    order-k jet is the first T_k terms of its order-2 jet, bit for bit."""
    nodes = _nodes(_every_node_type())
    at = {2: (0.3, -0.2), 3: (0.3, -0.2, 0.4)}
    types = set()
    for f in nodes:
        p = at[f.ncoords]
        try:
            top = f.eval_jet(p, 2)
        except fields.OrderOverflow:
            continue
        types.add(type(f))
        for k in (0, 1):
            nterms = jet_space(f.ncoords, k).nterms
            assert np.array_equal(f.eval_jet(p, k),
                                  top[..., :nterms]), (f, k)
    assert types == _subclasses(fields.Field)


def test_jets_over_their_support_match_full_space_arithmetic():
    """Nodes of supports {x}, {y} and {} mixed by a sum, products, grids,
    a restriction and derivatives (one along a coordinate outside its
    field's support, which folds to the zero field) at order 2 equal the
    same arithmetic done over both coordinates with JetSpace, bit for
    bit."""
    xy, xyz = ("x", "y"), ("x", "y", "z")
    fx = ExprField(parse("1 + x^2", xy), 2)
    fy = ExprField(parse("2 + sin(y)", xy), 2)
    c = ExprField(parse("3", xy), 2)
    rz = RestrictField(ExprField(parse("x*z + 1", xyz), 3), (0, 1),
                       (0.0, 0.0, 0.5))
    gx = GridField([[fx, c], [c, fx]])
    gy = GridField([[fy, c], [c, fy]])
    eye = ConstField(np.eye(2), 2)
    dx_of_y = fy.deriv((1, 0))
    dy_of_y = DerivativeField(fy, (0, 1))
    root = SumField([MatMulField(gx, gy),
                     ScalarMulField(rz, SumField([gx, eye])),
                     GridField([[dx_of_y, dy_of_y], [dy_of_y, c]])])
    assert (fx.support, fy.support, c.support, rz.support, eye.support) == \
        ((0,), (1,), (), (0,), ())
    assert (gx.support, dx_of_y.support, root.support) == ((0,), (), (0, 1))

    p = (0.3, -0.7)
    space, space3 = jet_space(2, 2), jet_space(2, 3)

    def expr_jet(f, sp, point):
        coords = [sp.coordinate(i, x) for i, x in enumerate(point)]
        return f.expr.eval_jet(sp, coords)

    def grid(entries):
        return np.array([[e[:, 0, 0] for e in row]
                         for row in entries]).transpose(2, 0, 1)

    x, y, k = (expr_jet(f, space, p) for f in (fx, fy, c))
    full = jet_space(3, 2)
    z_jet = expr_jet(rz.child, full, p + (0.5,))
    r = z_jet[[full.index[a + (0,)] for a in space.midx]]
    dy3 = expr_jet(fy, space3, p)
    dxy, dyy = (space3.extract(dy3, g, space) for g in ((1, 0), (0, 1)))
    assert not dxy.any()
    want = space.mul(grid([[x, k], [k, x]]), grid([[y, k], [k, y]]))
    want += space.scal_mul(r, grid([[x, k], [k, x]]) + space.const(np.eye(2)))
    want += grid([[dxy, dyy], [dyy, k]])
    assert np.array_equal(root.eval_jet(p, 2),
                          np.moveaxis(want, 0, -1))


def test_derivative_outside_the_support_is_the_zero_field():
    """Every node type, over a last coordinate that no node reads, folds
    a derivative along it, alone or with another coordinate, to the one
    zero field of its shape, and a derivative node built directly along
    it is refused: no zero derivative enters a DAG.  A multi-index of the
    wrong length is refused, not folded."""
    nodes = _nodes(_every_node_type(spare=("w",)))
    assert {type(f) for f in nodes} == _subclasses(fields.Field)
    for f in nodes:
        n = f.ncoords
        assert n - 1 not in f.support
        zero = ZeroField(f.shape, n)
        for gamma in ((0,) * (n - 1) + (1,), (1,) + (0,) * (n - 2) + (2,)):
            assert f.deriv(gamma) is zero
            with pytest.raises(ValueError, match="outside the child's support"):
                DerivativeField(f, gamma)
            with pytest.raises(ValueError, match="length mismatch"):
                f.deriv(gamma + (0,))


def test_conjugate_of_a_derivative_folds_with_its_child():
    """A product built directly with a zero factor reads y, but its
    conjugate, folded, reads nothing, so the conjugate of its derivative
    along y is the zero field."""
    g = GridField([[ExprField(parse("x*y", ("x", "y")), 2)]])
    d = MatMulField(ZeroField((1, 1), 2), g).deriv((0, 1))
    assert type(d) is DerivativeField
    assert d.conj_t() is ZeroField((1, 1), 2)


def test_zero_derivative_past_max_order_evaluates():
    """A derivative above MAX_ORDER along a coordinate the field does not
    read is the zero field, not an order overflow."""
    f = ExprField(parse("x", ("x", "y")), 2)
    zero = f.deriv((0, fields.MAX_ORDER + 1))
    assert zero is ZeroField((1, 1), 2)
    jet = zero.eval_jet((0.3, -0.2), 1)
    assert jet.shape == (1, 1, 3) and not jet.any()


def test_order_overflow_is_not_lifted_into_an_earlier_group():
    """A derivative asked for at two orders, the higher past MAX_ORDER,
    is lifted only as far as it can be computed: the overflow is raised
    in the group that asks for it."""
    d = DerivativeField(ExprField(parse("x^3*y", ("x", "y")), 2), (3, 0))
    with pytest.raises(EvaluationError) as err:
        sampled_residual([[d], [DerivativeField(d, (2, 0))]], SPEC2)
    assert err.value.group == 1
    assert type(err.value.cause) is fields.OrderOverflow


def test_planned_residual_matches_unplanned_brute_force():
    groups = _every_node_type()
    points = SPEC2.points()
    got = sampled_residual(groups, SPEC2)
    for group, res in zip(groups[:-1], got):
        assert (res.max_abs, res.argmax_point, res.scale) == \
            _brute_residual(group, points)
    # the restriction's scale comes from its child, run at the full point
    assert got[3].max_abs < 7.0 <= got[3].scale
    assert got[-1] == Residual(0.0, points[0], 0.0)


@pytest.mark.parametrize("make, cause", [
    (lambda f: PositiveGuardField(fields.fscale(-1.0, f), "-f"), ValueError),
    (lambda f: DerivativeField(f, (fields.MAX_ORDER + 1, 0)),
     fields.OrderOverflow),
], ids=["positivity-guard", "order-overflow"])
def test_evaluation_failure_names_group_and_point(make, cause):
    ok = ExprField(parse("x*y", ("x", "y")), 2)
    bad = make(ExprField(parse("2 + x", ("x", "y")), 2))
    with pytest.raises(EvaluationError) as err:
        sampled_residual([[ok], [ok, bad]], SPEC2)
    first = SPEC2.points()[0]
    assert (err.value.group, err.value.point) == (1, first)
    assert type(err.value.cause) is cause
    assert str(err.value).startswith(
        f"group 1 at point ({first[0]:.6g},{first[1]:.6g}): {cause.__name__}")


def test_batched_check_matches_brute_force():
    """theorem1 on kahler_warped: max_abs, argmax and scale of every
    relation equal a brute-force computation that shares nothing between
    relations and reads the scale from every reachable jet instead of
    from stored subtree maxima."""
    m = zoo.kahler_warped()
    spec = m.sample_spec(n_points=2, seed=7)
    reports = verify.run_check("theorem1", m, spec)
    relations = verify.CHECKS["theorem1"](m)
    assert [r.name for r in reports] == [rel.label for rel in relations]
    points = spec.points()
    for rep, rel in zip(reports, relations):
        res = rep.residual
        assert (res.max_abs, res.argmax_point, res.scale) == \
            _brute_residual(list(rel.fields), points)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_values_reach_residual_and_scale():
    # exp(800 x) overflows to inf for x > 0.8873, where a - a is NaN; the
    # NaN must not be dropped, and the first point where it is met stays
    a = fields.fexpr(parse("exp(800*x)", ["x"]), 1)
    spec = SampleSpec(box=((0.5, 1.0),), n_points=12, seed=0)
    over = [p for p in spec.points() if p[0] > 709.8 / 800]
    assert 2 <= len(over) < 12
    res, = sampled_residual([[fields.fsum([a, fields.fscale(-1.0, a)])]], spec)
    assert np.isnan(res.max_abs) and np.isnan(res.scale)
    assert res.argmax_point == over[0]
    inf, = sampled_residual([[fields.fscale(0.5, a)]], spec)
    assert inf.max_abs == inf.scale == np.inf
    assert inf.argmax_point == over[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_transpose_and_entry_rows_are_their_childs():
    """A transpose, conjugate transpose or entry step's row of subtree
    maxima is its child's, bit for bit, NaN included (exp(800 x) -
    exp(800 x) is NaN past x = 0.8873): its values are the child's, or
    their conjugates, so they never exceed the child's maxima.  Each
    such node is a group's one root, after a group of its child."""
    xy = ("x", "y")

    def e(text):
        return ExprField(parse(text, xy), 2)

    blowup = e("exp(800*x)")
    nan = SumField([blowup, ScaleField(-1.0, blowup)])
    grid = GridField([[e("x + 2*i*y"), nan], [e("3*y - 1"), e("x*y")]])
    square = MatMulField(grid, TransposeField(grid))
    pairs = [(TransposeField(grid), grid), (ConjTransposeField(square), square),
             (EntryField(grid, 0, 1), grid), (EntryField(square, 1, 0), square),
             (EntryField(ConjTransposeField(grid), 1, 1),
              ConjTransposeField(grid))]
    spec = SampleSpec(box=((0.5, 1.0), (-0.8, 0.8)), n_points=6, seed=0)
    points = spec.points()
    assert 1 <= sum(p[0] > 709.8 / 800 for p in points) < len(points)
    tape = Tape([[f] for pair in pairs for f in pair[::-1]], 1)
    bounded = (TransposeField, ConjTransposeField, EntryField)
    assert {type(step[0]) for step in tape._steps} >= set(bounded)
    scales = [scale for _, scale in tape.run(points)]
    kids, owns = scales[::2], scales[1::2]
    for (node, _), kid, own in zip(pairs, kids, owns):
        assert own.tobytes() == kid.tobytes(), node
    assert any(np.isnan(own).any() for own in owns)


def _fock_like(values, seed):
    """A 6x6 constant with one entry of ``values`` in each of five rows,
    in distinct columns: a monomial with an empty row and column."""
    rng = np.random.default_rng(seed)
    out = np.zeros((6, 6), dtype=np.complex128)
    out[rng.permutation(6)[:5], rng.permutation(6)[:5]] = \
        rng.choice(np.array(values), 5)
    return out


def _monomial_groups(unit, half):
    """Order-2 roots with products by the constants ``unit`` and
    ``half`` on either side, one of them nested, and an order-0 sum
    whose step absorbs plain and scaled products by each; the grid
    overflows to inf past x = 0.8873."""
    xy = ("x", "y")

    def e(text):
        return ExprField(parse(text, xy), 2)

    texts = ["1 + x", "0.5*y + 0.3*i*x", "x*y", "exp(800*x)", "sin(y)",
             "2 - y^2 + i"]
    g = GridField([[e(texts[(r * 5 + c) % 6]) if (r + c) % 3 else
                    e(f"{r} - {c}*x*y") for c in range(6)] for r in range(6)])
    h = GridField([[e(f"{r + 1}*cos(x) + {c}*i*y") for c in range(6)]
                   for r in range(6)])
    high = [[MatMulField(unit, g)], [MatMulField(g, half)],
            [MatMulField(half, MatMulField(h, unit))]]
    low = [[SumField([MatMulField(unit, g),
                      ScaleField(0.5, MatMulField(h, unit)),
                      MatMulField(half, h),
                      ScaleField(-2j, MatMulField(g, half)),
                      ScaleField(3.0, g), MatMulField(g, h)])]]
    return high, low


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_products_by_a_monomial_equal_the_dense_products(monkeypatch):
    """Products by a constant monomial run as gathers, a MatMulField's at
    order 2 and a sum's absorbed one-term products alike, and their
    tapes give the same root jets under == with the same NaN positions,
    the same scales and every step's row of subtree maxima bit for bit
    as the same tapes with the constants taken as dense matrices, point
    by point.  The products by the unit monomial skip their abs-reduce,
    so their rows are their kids', and at the points where the grid is
    infinite the products take the dense path and their rows the dense
    product's own maxima."""
    unit_m = _fock_like((1.0, -1.0, 1j, -1j), 1)
    half_m = _fock_like((0.5, -np.sqrt(2.0), 0.7j), 2)
    dense = [ConstField(m, 2, "dense") for m in (unit_m, half_m)]
    for c in dense:
        c._monomial = None          # the dense twin: no monomial form
    gathered = [ConstField(m, 2, "gathered") for m in (unit_m, half_m)]
    spec = SampleSpec(box=((0.5, 1.0), (-0.8, 0.8)), n_points=6, seed=0)
    points = spec.points()
    assert 1 <= sum(p[0] > 709.8 / 800 for p in points) < len(points)
    update, mul = fields._Mag.update, JetSpace.mul
    rows, muls, reduced = [], [0], []

    def recording(self, step, jet, kids, stack=None):
        update(self, step, jet, kids, stack)
        mags = rows[-1].setdefault("mags", [])
        if not mags or mags[-1] is not self:
            mags.append(self)
        rows[-1][len(mags), step] = self.value[step].copy()
        reduced[-1] += (jet is not None) + (0 if stack is None else len(stack))

    def counting(self, a, b):
        muls[0] += 1
        return mul(self, a, b)

    monkeypatch.setattr(fields._Mag, "update", recording)
    monkeypatch.setattr(JetSpace, "mul", counting)
    outs, counts = [], []
    for consts in (dense, gathered):
        high, low = _monomial_groups(*consts)
        out = []
        muls[0] = 0
        rows.append({})
        reduced.append(0)
        for groups, order in ((high, 2), (low, 0)):
            tape = Tape(groups, order)
            out += [out for p in points for out in tape.run([p])]
        outs.append(out)
        counts.append(muls[0])
        products = [f for f in _nodes(high + low) if type(f) is MatMulField
                    and (consts[0] in f.children or consts[1] in f.children)]
        assert products and all(
            (f._form is None) == (consts is dense)
            for f in products)
    combination, = [s[0] for s in tape._steps
                    if type(s[0]) is fields._Combination]
    assert combination.unit_slots == 2
    assert sum(g is not None for g in combination.gathers) == 4
    # point by point: the gathers take the dense path where g is infinite
    over = sum(p[0] > 709.8 / 800 for p in points)
    assert counts == [4 * len(points), 2 * over] and reduced[1] < reduced[0]
    for (jets_d, scales_d), (jets_g, scales_g) in zip(*outs):
        assert scales_d.tobytes() == scales_g.tobytes()
        for x, y in zip(jets_d, jets_g):
            assert np.array_equal(x, y, equal_nan=True)
            assert np.array_equal(np.isnan(x), np.isnan(y))
    assert any(np.isnan(x).any() for jets, _ in outs[1] for x in jets)
    del rows[0]["mags"], rows[1]["mags"]
    assert rows[0].keys() == rows[1].keys()
    for key, row in rows[0].items():
        assert row.tobytes() == rows[1][key].tobytes(), key


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_constant_products_fold_through_the_monomial_form():
    """fmatmul of two constants folds to their product: a gather when
    either is a monomial, equal to the dense product under == with +0
    for every zero; a non-finite factor takes the dense product, NaNs
    included."""
    unit_m = _fock_like((1.0, -1.0, 1j, -1j), 3)
    half_m = _fock_like((0.5, -np.sqrt(2.0), 0.7j), 4)
    full = np.arange(36.0).reshape(6, 6) - 1j
    bad = full.copy()
    bad[2, 3] = np.inf
    for a, b in [(unit_m, half_m), (half_m, unit_m), (full, unit_m),
                 (half_m, full), (unit_m, bad), (bad, half_m)]:
        folded = fields.fmatmul(ConstField(a, 2), ConstField(b, 2))
        assert type(folded) is ConstField
        assert np.array_equal(folded.matrix, a @ b, equal_nan=True)
        assert np.array_equal(np.isnan(folded.matrix), np.isnan(a @ b))
        zeros = folded.matrix.view(np.float64) == 0
        assert not np.signbit(folded.matrix.view(np.float64)[zeros]).any()


def _exp_scalings(generator, points):
    """The scaling exponent JetSpace.matrix_exp picks at each point."""
    out = []
    for p in points:
        norm = np.abs(generator.eval_jet(p)[:, :, 0]).sum(axis=1).max()
        out.append(max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 1 else 0)
    return out


def test_a_block_equals_its_points(monkeypatch):
    """One run over SPEC2's three points equals three one-point runs, bit
    for bit, in every root jet, every group scale and the subtree maximum
    of every executed step, a sum's that absorbs nodes included: with
    every node type, the combinations, an exponential whose scaling
    exponent differs between the points, and the powers where numpy's
    array power rounds unlike its scalar power."""
    xy = ("x", "y")

    def e(text):
        return ExprField(parse(text, xy), 2)

    generator = GridField([[e("4*x + 1"), e("y")], [e("0.5"), e("-2*x*y")]])
    base = e("2 + x*y + 0.5*i*x")
    groups = _every_node_type() + _combinations() + [
        [MatExpField(generator)], [PowField(base, 1, 2), PowField(base, -1)]]
    points = SPEC2.points()
    assert len(set(_exp_scalings(generator, points))) > 1
    maxima = []                     # the subtree maxima of each run, by step
    update = fields._Mag.update

    def recording(self, step, jet, kids, stack=None):
        update(self, step, jet, kids, stack)
        assert step not in maxima[-1]
        maxima[-1][step] = self.value[step].copy()

    monkeypatch.setattr(fields._Mag, "update", recording)
    tape = Tape(groups)
    runs = []
    for block in [points] + [[p] for p in points]:
        maxima.append({})
        runs.append(list(tape.run(block)))
    monkeypatch.undo()
    whole, single = runs[0], runs[1:]
    n = len(points)
    for g, (jets, scales) in enumerate(whole):
        for i in range(n):
            one_jets, one_scale = single[i][g]
            assert len(jets) == len(one_jets)
            for jet, one in zip(jets, one_jets):
                assert np.array_equal(split_points(jet, n)[:, i], one)
            assert scales[i] == one_scale[0]
    assert _absorbed(tape)
    assert set(maxima[0]) == set(range(len(tape._steps)))
    for i in range(n):
        assert set(maxima[1 + i]) == set(maxima[0])
        for step, value in maxima[0].items():
            assert value[i] == maxima[1 + i][step][0]
    # and the square root is numpy's scalar power at each point, which
    # for most complex values differs from its array power in the last bit
    roots = whole[-1][0][0]
    for i, p in enumerate(points):
        assert roots[0, i, 0] == base.eval_jet(p)[0, 0, 0] ** 0.5


def _fails_near(point):
    """A positivity guard that fails at ``point`` only: its argument is
    the squared distance from ``point`` less 1e-6."""
    x, y = Coord(0), Coord(1)
    near = (x - float(point[0])) ** 2 + (y - float(point[1])) ** 2 - 1e-6
    return PositiveGuardField(ExprField(near, 2), "distance")


@pytest.mark.parametrize("per_block", [1, 2, 3])
def test_evaluation_error_names_the_first_failing_point(monkeypatch,
                                                        per_block):
    """Group 0 fails only at the third point, group 1 only at the second:
    the error names group 1 at the second point, as evaluating point by
    point does, however the points fall into blocks."""
    points = SPEC2.points()
    groups = [[_fails_near(points[2])], [_fails_near(points[1])]]
    monkeypatch.setattr(fields, "BLOCK_BYTES",
                        per_block * Tape(groups).point_bytes)
    sizes = [len(b) for b in Tape(groups).blocks(points)]
    assert sizes == {1: [1, 1, 1], 2: [2, 1], 3: [3]}[per_block]
    with pytest.raises(EvaluationError) as err:
        sampled_residual(groups, SPEC2)
    assert (err.value.group, err.value.point) == (1, points[1])
    assert type(err.value.cause) is ValueError


def _live_peak(tape, point, monkeypatch):
    """The most bytes of jets a run of ``tape`` at ``point`` holds at once,
    read from the run's own table of live jets whenever a step computes,
    a node's or a sum's that absorbs nodes."""
    peak = [0]
    for cls in {type(step[0]) for step in tape._steps}:
        name = "combine" if cls is fields._Combination else "_compute"

        def measuring(self, *args, _orig=getattr(cls, name)):
            out = _orig(self, *args)
            jet = out[0] if type(out) is tuple else out
            held = sys._getframe(1).f_locals["jets"]
            live = sum(j.nbytes for j in held if j is not None)
            peak[0] = max(peak[0], live + jet.nbytes)
            return out

        monkeypatch.setattr(cls, name, measuring)
    for _ in tape.run([point]):
        pass
    monkeypatch.undo()
    return peak[0]


def test_blocks_are_sized_by_the_live_jet_bytes_of_one_point(monkeypatch):
    """The compile-time bytes per point equal the peak of the live jets of
    a one-point run, with sums that absorb nodes, and hyperkahler_gh's
    theorem2, whose sums do, runs its 6 points as 3 blocks of 2 under the
    4 MiB budget."""
    for groups in (_every_node_type(), _combinations()):
        small = Tape(groups)
        assert small.point_bytes == _live_peak(small, SPEC2.points()[0],
                                               monkeypatch)
    m = zoo.hyperkahler_gibbons_hawking()
    spec = m.sample_spec(n_points=6, seed=7)
    groups = [list(rel.fields) for rel in verify.CHECKS["theorem2"](m)]
    tape = Tape(groups)
    points = spec.points()
    assert _absorbed(tape)
    assert tape.point_bytes == _live_peak(tape, points[0], monkeypatch)
    assert 2 * tape.point_bytes <= fields.BLOCK_BYTES < 3 * tape.point_bytes
    assert [len(b) for b in tape.blocks(points)] == [2, 2, 2]
    run = Tape.run
    sizes = []

    def counting(self, block):
        sizes.append(len(block))
        return run(self, block)

    monkeypatch.setattr(Tape, "run", counting)
    reports = verify.run_check("theorem2", m, spec)
    assert sizes == [2, 2, 2] and all(r.ok for r in reports)


def test_traced_check_is_correct():
    """The benchmark's tracer wraps the jet kernels and unpacks 3-D
    operands; a check run under it keeps every verdict."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    loader = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(tracer)
    m = zoo.kahler_warped()
    spec = m.sample_spec(n_points=2, seed=7)
    tr = tracer.Tracer()
    tr.install()
    try:
        reports = verify.run_check("theorem1", m, spec)
    finally:
        tr.uninstall()
    assert reports and all(r.ok for r in reports)
    assert tr.stats["jets.mul"].calls and tr.stats["fields.mag_update"].calls
