"""The planned per-point evaluation: fan-in counts, freeing and exact scales."""

import numpy as np
import pytest

from sqmzoo import fields, verify, zoo
from sqmzoo.clifford import (FermionBilinearField, FermionLinearField,
                             complex_fermions)
from sqmzoo.diffop import (EvaluationError, Residual, SampleSpec,
                           sampled_residual)
from sqmzoo.expr import parse
from sqmzoo.fields import (ConjTransposeField, ConstField, DerivativeField,
                           DetField, DiagField, EntryField, EvalContext,
                           ExprField, GridField, InverseField, MatExpField,
                           MatMulField, PlanError, PositiveGuardField,
                           PowField, RestrictField, ScalarFnField,
                           ScalarMulField, ScaleField, SumField,
                           TransposeField, ZeroField, plan_requests)

SPEC2 = SampleSpec(box=((-0.8, 0.8), (-0.8, 0.8)), n_points=3, seed=4)


def _brute_residual(group, points):
    """(max_abs, argmax, scale) of a group without a plan: each point
    gets fresh unplanned contexts, and the scale is the largest |value|
    of every (node, order) the group needs, read from the jets directly
    (a RestrictField's child at the full point included)."""
    max_abs, argmax, scale = 0.0, None, 0.0
    for p in points:
        for f in group:
            v = float(np.max(np.abs(fields.evaluate(f, p))))
            if v > max_abs:
                max_abs, argmax = v, p
        ctxs = {}
        seen = set()
        todo = [(f, 0, tuple(p)) for f in group]
        while todo:
            node, order, at = todo.pop()
            if (id(node), order, at) in seen:
                continue
            seen.add((id(node), order, at))
            ctx = ctxs.setdefault(at, EvalContext(at))
            jet = fields.evaluate(node, at, order, ctx)
            scale = max(scale, float(np.max(np.abs(jet[..., 0]))))
            if isinstance(node, RestrictField):
                full = list(node.fixed)
                for k, pos in enumerate(node.keep):
                    full[pos] = at[k]
                todo.append((node.child, order, tuple(full)))
            else:
                todo.extend((c, o, at) for c, o in node.deps(order))
    return max_abs, argmax, scale


def _every_node_type():
    """Groups of roots over two coordinates that use every Field subclass,
    share nodes between groups and repeat a child in one sum."""
    coords = ("x", "y")

    def e(text, names=coords):
        return ExprField(parse(text, names), len(names))

    a = e("1.3 + 0.2*sin(x)*y")
    b = e("0.5*x*y + 0.1*x^2")
    grid = GridField([[a, b], [b, e("2 + 0.3*cos(y)")]])
    guard = PositiveGuardField(a, "a")
    root_a = PowField(guard, 1, 2)
    log_a = ScalarFnField("log", guard)
    chain = DerivativeField(DerivativeField(grid, (1, 0)), (0, 1))
    square = MatMulField(grid, TransposeField(grid))
    inv = InverseField(SumField([grid, ConstField(3.0 * np.eye(2), 2)]))
    expo = MatExpField(ScaleField(0.3, grid))
    diag = DiagField(ConjTransposeField(root_a), 2)
    det = DetField(grid)
    twice = SumField([chain, chain])
    scaled = ScalarMulField(SumField([det, log_a]), ConjTransposeField(square))
    # the restricted child passes through +-7, larger than any value of
    # the restriction itself, so its scale must come from the sub-context
    over3 = ("x", "y", "z")
    big = SumField([e("x + 7", over3), e("-7", over3)])
    grid3 = GridField([[big, e("x*y + z", over3)],
                       [e("y - x", over3), e("0.5 + y^2", over3)]])
    restricted = RestrictField(grid3, (0, 1), (0.0, 0.0, 0.4))
    entry = EntryField(square, 0, 1)
    rep = complex_fermions(2)
    pair = FermionBilinearField(rep, SumField([grid, restricted]), "pb")
    single = FermionLinearField(rep, GridField([[entry, b]]), "psi")
    fock = SumField([pair, single, ZeroField((4, 4), 2)])
    m2 = SumField([twice, scaled, inv, expo, diag, chain.deriv((1, 0))])
    return [[m2, entry], [fock, m2], [DerivativeField(fock, (0, 1))],
            [restricted], []]


def _nodes(groups):
    """Every node the groups reach, sub-context children included."""
    out = {}
    todo = [(f, 0) for g in groups for f in g]
    while todo:
        node, order = todo.pop()
        if (id(node), order) in out:
            continue
        out[(id(node), order)] = node
        todo.extend(node.deps(order))
        if isinstance(node, RestrictField):
            todo.append((node.child, order))
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
    groups = _every_node_type()
    points = SPEC2.points()
    expected = [[fields.evaluate(f, p) for g in groups for f in g]
                for p in points]
    computed = {}
    for cls in {type(node) for node in _nodes(groups)}:
        orig = cls._compute

        def counting(self, ctx, order, _orig=orig):
            key = (id(ctx), id(self), order)
            computed[key] = computed.get(key, 0) + 1
            return _orig(self, ctx, order)

        monkeypatch.setattr(cls, "_compute", counting)
    plan = plan_requests([f for g in groups for f in g])
    alive = []                  # keeps context ids unique across points
    for p, want in zip(points, expected):
        ctx = EvalContext(p, plan)
        alive.append(ctx)
        got = []
        for group in groups:
            got.extend(ctx.values(group)[0])
            assert len(ctx.frames) == 1
        assert ctx.cache == {}
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert max(computed.values()) == 1
    # the sub-context of the restriction keeps its entries until the
    # point ends
    assert all(c._subs and all(s.cache for s in c._subs.values())
               for c in alive)


def test_planned_residual_matches_unplanned_brute_force():
    groups = _every_node_type()
    points = SPEC2.points()
    got = sampled_residual(groups, SPEC2)
    for group, res in zip(groups[:-1], got):
        assert (res.max_abs, res.argmax_point, res.scale) == \
            _brute_residual(group, points)
    # the restriction's scale comes from its sub-context
    assert got[3].max_abs < 7.0 <= got[3].scale
    assert got[-1] == Residual(0.0, points[0], 0.0)


class _Undeclared(ScaleField):
    """Evaluates a child its deps do not list."""

    def __init__(self, coeff, child, hidden):
        super().__init__(coeff, child)
        self.hidden = hidden

    def _compute(self, ctx, order):
        self.hidden.eval_jet(ctx, order)
        return super()._compute(ctx, order)


class _Twice(ScaleField):
    """Requests its declared child twice."""

    def _compute(self, ctx, order):
        self.child.eval_jet(ctx, order)
        return super()._compute(ctx, order)


@pytest.mark.parametrize("make", [
    lambda a, b: _Undeclared(2.0, a, b),
    lambda a, b: _Twice(2.0, SumField([a, b])),
], ids=["undeclared-child", "extra-request"])
def test_undeclared_request_fails_loudly(make):
    a = ExprField(parse("x + y", ("x", "y")), 2)
    b = ExprField(parse("x*y", ("x", "y")), 2)
    with pytest.raises(PlanError):
        sampled_residual([[make(a, b)]], SPEC2)


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
    relations, uses no plan, and reads the scale from every reachable
    jet instead of from stored subtree maxima."""
    m = zoo.kahler_warped()
    spec = m.sample_spec(n_points=2, seed=7)
    reports = verify.run_check("theorem1", m, spec)
    relations = verify.CHECKS["theorem1"](m)
    assert [r.name for r in reports] == [rel.label for rel in relations]
    points = spec.points()
    for rep, rel in zip(reports, relations):
        res = rep.residual
        assert (res.max_abs, res.argmax_point, res.scale) == \
            _brute_residual(list(rel.op.terms.values()), points)


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
