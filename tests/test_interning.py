"""Hash-consed field nodes: one live node per structure."""

import gc
from pathlib import Path

import numpy as np
import pytest

from sqmzoo import cli, fields, verify, zoo
from sqmzoo.clifford import (FermionBilinearField, FermionLinearField,
                             complex_fermions)
from sqmzoo.expr import parse
from sqmzoo.fields import (ConjTransposeField, ConstField, DerivativeField,
                           DetField, DiagField, EntryField, ExprField,
                           GridField, InverseField, MatExpField, MatMulField,
                           PositiveGuardField, PowField, RestrictField,
                           ScalarFnField, ScalarMulField, ScaleField,
                           SumField, TransposeField, ZeroField)

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios")
                   .glob("*.yaml"))


# -- an independent oracle: structural numbering of every reachable node -----


def _fields_in(value):
    """The Field objects an attribute value holds, nested tuples included."""
    if isinstance(value, fields.Field):
        return [value]
    if isinstance(value, (tuple, list)):
        return [f for v in value for f in _fields_in(v)]
    return []


class _Same:
    """An attribute value compared by identity."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __eq__(self, other):
        return isinstance(other, _Same) and self.obj is other.obj

    def __hash__(self):
        return hash(id(self.obj))


def _state(value, number):
    """An attribute value as a comparable key entry: a field by its
    structural number, an array by shape, dtype and bytes, a sequence
    entry by entry, a number, string or None as itself and any other
    object (an expression, a fermion representation) by identity."""
    if isinstance(value, fields.Field):
        return ("node", number[id(value)])
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_state(v, number) for v in value)
    if value is None or isinstance(value, (int, float, complex, str)):
        return value
    return _Same(value)


def _duplicates(roots):
    """Groups of distinct nodes below ``roots`` with one structure: the
    same type and equal public attributes, fields compared by their own
    structure.  Private attributes are caches and are left out."""
    number, table, dups = {}, {}, {}
    todo = [(f, False) for f in roots]
    while todo:
        node, expanded = todo.pop()
        if id(node) in number:
            continue
        attrs = {k: v for k, v in vars(node).items() if not k.startswith("_")}
        if not expanded:
            todo.append((node, True))
            todo.extend((f, False) for v in attrs.values()
                        for f in _fields_in(v) if id(f) not in number)
            continue
        key = (type(node), tuple(sorted(
            (k, _state(v, number)) for k, v in attrs.items())))
        first = table.setdefault(key, node)
        number[id(node)] = len(table) if first is node else number[id(first)]
        if first is not node:
            dups.setdefault(id(first), [first]).append(node)
    return list(dups.values())


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_no_two_live_nodes_share_a_structure(path):
    """Every node that a shipped scenario's operators and the relations
    of its checks reach is the only one of its structure."""
    doc = cli.load_scenario(path)
    model = cli.build_model(doc["model"])
    roots = [f for op in model.ops.values() for f in op.terms.values()]
    for entry in doc.get("checks") or ["suite"]:
        params = {} if isinstance(entry, str) else dict(entry)
        name = entry if isinstance(entry, str) else params.pop("name")
        params.pop("expect", None)
        for rel in verify.CHECKS[name](model, **params):
            roots.extend(rel.fields)
    assert roots
    dups = _duplicates(roots)
    assert not dups, [f"{len(g)} x {g[0]!r}" for g in dups[:5]]


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_every_operator_carries_its_models_representation(path):
    model = cli.build_model(cli.load_scenario(path)["model"])
    assert [name for name, op in model.ops.items()
            if op.rep is not model.rep] == []


def test_oracle_finds_duplicates():
    """Nodes from a subclass that states no parameters are not interned,
    so two equal ones are two objects, and the oracle reports them."""
    x = ExprField(parse("x*y", ("x", "y")), 2)
    a, b = _Unstated(2.0, x), _Unstated(2.0, x)
    assert a is not b
    assert [len(g) for g in _duplicates([SumField([a, b])])] == [2]


# -- every node type -----------------------------------------------------------


class _Unstated(ScaleField):
    """A subclass defined outside the package that states no ``params``."""


_COORDS = ("x", "y")
_X = ExprField(parse("1.3 + 0.2*sin(x)*y", _COORDS), 2)
_Y = ExprField(parse("0.5*x*y + 0.1*x^2", _COORDS), 2)
_GRID = GridField([[_X, _Y], [_Y, _X]])
_GRID3 = GridField([[ExprField(parse("x + z", ("x", "y", "z")), 3)]])
_REP, _OTHER_REP = complex_fermions(2), complex_fermions(2, color_dim=2)


def _const(scale=1.0, name=None):
    """A fresh array each call, so that equal constants share no array."""
    return ConstField(scale * np.array([[1.0, 2.0], [0.0, 1j]]), 2, name)


# type -> (builder, builders that differ from it in one parameter or child)
NODE_TYPES = {
    ZeroField: (lambda: ZeroField((2, 2), 2),
                [lambda: ZeroField((2, 1), 2), lambda: ZeroField((2, 2), 3)]),
    ConstField: (_const, [lambda: _const(2.0), lambda: _const(name="A"),
                          lambda: ConstField(np.eye(2), 2)]),
    ExprField: (lambda: ExprField(_X.expr, 2),
                [lambda: ExprField(_X.expr, 2, "X"),
                 lambda: ExprField(_Y.expr, 2)]),
    GridField: (lambda: GridField([[_X, _Y], [_Y, _X]]),
                [lambda: GridField([[_X, _Y, _Y, _X]]),
                 lambda: GridField([[_X, _Y], [_X, _X]])]),
    SumField: (lambda: SumField([_GRID, _const()]),
               [lambda: SumField([_const(), _GRID]),
                lambda: SumField([_GRID, _GRID])]),
    MatMulField: (lambda: MatMulField(_GRID, _const()),
                  [lambda: MatMulField(_const(), _GRID)]),
    ScaleField: (lambda: ScaleField(2.0, _GRID),
                 [lambda: ScaleField(2j, _GRID), lambda: ScaleField(2.0, _X)]),
    ScalarMulField: (lambda: ScalarMulField(_X, _GRID),
                     [lambda: ScalarMulField(_Y, _GRID)]),
    ConjTransposeField: (lambda: ConjTransposeField(_GRID),
                         [lambda: ConjTransposeField(_X)]),
    TransposeField: (lambda: TransposeField(_GRID),
                     [lambda: TransposeField(_X)]),
    DerivativeField: (lambda: DerivativeField(_GRID, (1, 0)),
                      [lambda: DerivativeField(_GRID, (0, 1))]),
    MatExpField: (lambda: MatExpField(_GRID), [lambda: MatExpField(_X)]),
    InverseField: (lambda: InverseField(_GRID), [lambda: InverseField(_X)]),
    DetField: (lambda: DetField(_GRID),
               [lambda: DetField(SumField([_GRID, _GRID]))]),
    ScalarFnField: (lambda: ScalarFnField("log", _X),
                    [lambda: ScalarFnField("exp", _X),
                     lambda: ScalarFnField("log", _Y)]),
    PowField: (lambda: PowField(_X, 1, 2),
               [lambda: PowField(_X, 1, 3), lambda: PowField(_X, 2, 2)]),
    PositiveGuardField: (lambda: PositiveGuardField(_X, "a"),
                         [lambda: PositiveGuardField(_X, "b")]),
    EntryField: (lambda: EntryField(_GRID, 0, 1),
                 [lambda: EntryField(_GRID, 1, 0)]),
    DiagField: (lambda: DiagField(_X, 2), [lambda: DiagField(_X, 3)]),
    RestrictField: (lambda: RestrictField(_GRID3, (0, 1), (0.0, 0.0, 0.4)),
                    [lambda: RestrictField(_GRID3, (0, 1), (0.0, 0.0, 0.5)),
                     lambda: RestrictField(_GRID3, (0, 2), (0.0, 0.0, 0.4))]),
    FermionBilinearField: (lambda: FermionBilinearField(_REP, _GRID, "pb"),
                           [lambda: FermionBilinearField(_REP, _GRID, "bp"),
                            lambda: FermionBilinearField(
                                _OTHER_REP, _GRID, "pb")]),
    FermionLinearField: (lambda: FermionLinearField(
                             _REP, GridField([[_X, _Y]]), "psi"),
                         [lambda: FermionLinearField(
                             _REP, GridField([[_X, _Y]]), "psibar")]),
}


def test_node_types_cover_the_package():
    public = set()
    todo = [fields.Field]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.__module__.startswith("sqmzoo.") and \
                not cls.__name__.startswith("_"):
            public.add(cls)
    assert public - {fields.Field} == set(NODE_TYPES)


@pytest.mark.parametrize("cls", list(NODE_TYPES), ids=lambda c: c.__name__)
def test_equal_structure_is_one_object(cls):
    make, others = NODE_TYPES[cls]
    node = make()
    assert type(node) is cls
    assert make() is node
    for other in others:
        assert other() is not node
        assert other() is other()


def test_names_keep_constants_and_expressions_apart():
    m = np.array([[1.0, 0.5]])
    plain, named, other = (ConstField(m, 2), ConstField(m.copy(), 2, "A"),
                           ConstField(m.copy(), 2, "B"))
    assert len({id(plain), id(named), id(other)}) == 3
    assert (plain.describe(), named.describe(), other.describe()) == \
        ("const(1, 2)", "A", "B")
    e = parse("x + y", _COORDS)
    bare, called = ExprField(e, 2), ExprField(e, 2, "u")
    assert bare is not called
    assert (bare.describe(), called.describe()) == ("(x + y)", "u")


def test_constants_compare_by_bits():
    """Equal values with different bits stay apart: a signed zero is
    not the same constant as an unsigned one."""
    pos = ConstField(np.array([[0.0, 1.0]]), 1)
    neg = ConstField(np.array([[-0.0, 1.0]]), 1)
    assert pos is not neg
    assert ConstField(np.array([[0.0, 1.0]]), 1) is pos
    big = np.arange(144.0).reshape(12, 12)
    assert ConstField(big, 1) is ConstField(big.copy(), 1)
    assert ConstField(big.T, 1) is ConstField(big.T.copy(), 1)


def test_table_holds_no_model():
    gc.collect()
    before = len(fields._NODES)
    model = zoo.wz_modes(((1, 0, 0), (0, 1, 0), (1, 1, 1)))
    during = len(fields._NODES)
    del model
    gc.collect()
    assert during > before
    assert len(fields._NODES) == before


def test_conjugate_is_built_once():
    node = ScaleField(2j, _GRID)
    assert node.conj_t() is node.conj_t()
    assert node.conj_t().conj_t() is node
