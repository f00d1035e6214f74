"""Source hygiene checks that need no linter."""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sqmzoo"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(tree):
    """Names a module imports but never reads, with their line numbers."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_is_found():
    tree = ast.parse("import math\nimport numpy as np\n"
                     "from os import path, sep\nx = np.ones(path)\n")
    assert _unused_imports(tree) == [(1, "math"), (3, "sep")]


def _local_imports(tree):
    """Lines of the imports made inside a function body."""
    return sorted({node.lineno for func in ast.walk(tree)
                   if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_imports_in_functions(path):
    """A module imports what it uses at its top level, where its
    dependencies show; none of the package's modules needs an import
    deferred into a function to break a cycle."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _local_imports(tree) == []


def test_import_in_function_is_found():
    tree = ast.parse("import os\n\n\ndef f():\n    from os import path\n"
                     "    return path\n\n\nclass C:\n    import math\n\n"
                     "    def g(self):\n        def h():\n"
                     "            import re\n        return h\n")
    assert _local_imports(tree) == [5, 14]


def _top_level_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _exports(tree):
    """The names a module lists in ``__all__``."""
    return [name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)]


def _word_counts(root):
    """Occurrences of each identifier-like word in the package's modules,
    plus one for each name the package exports in ``__all__``.  The
    package ``__init__`` only re-exports, and tests, benchmarks and
    documents do not count: a definition that only they name is code
    no shipped path needs."""
    counts = Counter()
    for path in sorted((root / "src" / "sqmzoo").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "__init__.py":
            counts.update(_exports(ast.parse(text, filename=str(path))))
        else:
            counts.update(re.findall(r"\w+", text))
    return counts


def test_every_definition_is_named_somewhere():
    """A module-level function or class of the package that no other
    package code names, and that the package does not export, is dead
    code."""
    counts = _word_counts(ROOT)
    unnamed = [f"{path.name}:{name}" for path in MODULES
               for name in _top_level_definitions(ast.parse(
                   path.read_text(encoding="utf-8"), filename=str(path)))
               if counts[name] <= 1]
    assert unnamed == []


def test_unnamed_definition_is_found(tmp_path):
    pkg = tmp_path / "src" / "sqmzoo"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text(
        "def used():\n    pass\n\n\ndef dead():\n    return used()\n\n\n"
        "def exported():\n    pass\n\n\ndef tested():\n    pass\n")
    (pkg / "__init__.py").write_text(
        "from .m import exported, tested\n\n__all__ = ['exported']\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_m.py").write_text(
        "from sqmzoo.m import tested\n\n\ndef test_m():\n"
        "    assert tested() is None\n")
    counts = _word_counts(tmp_path)
    assert [counts[name] for name in ("used", "dead", "exported", "tested")] \
        == [2, 1, 2, 1]


def _node_types():
    """The concrete Field subclasses of the package; the private bases
    (``_Unary``, ``_Kernel``) have no instances of their own."""
    for path in MODULES:
        importlib.import_module(f"sqmzoo.{path.stem}")
    from sqmzoo.fields import Field
    out, todo = [], [Field]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not Field and cls.__module__.startswith("sqmzoo.") \
                and not cls.__name__.startswith("_"):
            out.append(cls)
    return out


def _unstated(classes):
    """Names of the node classes that do not state their structural
    parameters, the attribute names that with the type and the children
    make a node's interning key, in their own body."""
    return sorted(cls.__name__ for cls in classes
                  if not isinstance(vars(cls).get("params"), tuple)
                  or not all(isinstance(p, str) and p != "children"
                             for p in cls.params))


def test_every_node_type_states_its_parameters():
    """A node type without its own ``params`` is not interned, so equal
    nodes of that type would be evaluated once each."""
    types = _node_types()
    assert len(types) >= 20
    assert _unstated(types) == []


def test_unstated_node_type_is_found():
    from sqmzoo.fields import ScaleField

    class Stated(ScaleField):
        params = ("coeff",)

    class Inherited(ScaleField):
        pass

    class Listed(ScaleField):
        params = ["coeff"]

    assert _unstated([Stated, Inherited, Listed]) == ["Inherited", "Listed"]


# a residual's parts; only diffop, where Residual.relative is defined,
# may compare them or compute with them
RESIDUAL_PARTS = ("max_abs", "scale")


def _residual_arithmetic(tree):
    """Lines where a comparison or an arithmetic operation has a
    residual's ``max_abs`` or ``scale`` as an operand."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif isinstance(node, ast.BinOp):
            operands = [node.left, node.right]
        else:
            continue
        if any(isinstance(op, ast.Attribute) and op.attr in RESIDUAL_PARTS
               for op in operands):
            lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "diffop.py"],
                         ids=lambda p: p.name)
def test_one_zero_rule(path):
    """Every sampled decision reads Residual.relative, so no module
    re-derives the rule from max_abs and scale."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _residual_arithmetic(tree) == []


def test_residual_arithmetic_is_found():
    tree = ast.parse("ok = r.max_abs <= tol * (1.0 + r.scale)\n"
                     "rel = r.max_abs / 2\n"
                     "text = f'{r.max_abs:.3e} (scale {r.scale:.3e})'\n"
                     "ok = r.relative <= tol\n"
                     "big = max(r.scale, 1.0)\n"
                     "if res.scale > 0:\n    pass\n")
    assert _residual_arithmetic(tree) == [1, 2, 6]


# the names that make a verdict; verify.run_check is the one producer of
# sampled verdicts, so only report (which defines them) and verify read them
REPORT_NAMES = ("CheckReport", "make_report", "classify")
REPORT_MODULES = ("report.py", "verify.py")


def _report_names(text):
    """The report names that a module's source text names."""
    return sorted(set(re.findall(r"\b(?:%s)\b" % "|".join(REPORT_NAMES),
                                 text)))


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name not in REPORT_MODULES],
                         ids=lambda p: p.name)
def test_one_report_path(path):
    """No other module builds a verdict of its own; the package
    ``__init__`` only re-exports."""
    assert _report_names(path.read_text(encoding="utf-8")) == []


def test_report_name_is_found():
    text = ("from .report import make_report\n"
            "verdict, tol = classify(res)\n"
            "reclassify = CheckReports = 1\n")
    assert _report_names(text) == ["classify", "make_report"]


# a Sphinx cross-reference in a docstring: its role and its target
_REFERENCE = re.compile(r":(class|func|meth|attr):`~?\.?([\w.]+)`")


def _bound(node):
    """The names a module- or class-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return {node.name}
    targets = (node.targets if isinstance(node, ast.Assign) else
               [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)}


def _stale_references(paths):
    """``(file, target)`` for each ``:class:``, ``:func:``, ``:meth:`` or
    ``:attr:`` reference in the docstrings of the modules ``paths`` that
    names nothing.  A target, less a leading module name of the package,
    resolves when it names a module-level definition or a class member
    of any of the modules, or is ``Class.member``; a class's members are
    the names its body defines and the ``self.`` attributes it sets."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"),
                                  filename=str(path)) for path in paths}
    modules = {Path(name).stem for name in trees}
    top, members = set(), {}
    for tree in trees.values():
        for node in tree.body:
            top |= _bound(node)
            if isinstance(node, ast.ClassDef):
                names = members.setdefault(node.name, set())
                for item in node.body:
                    names |= _bound(item)
                names |= {n.attr for n in ast.walk(node)
                          if isinstance(n, ast.Attribute)
                          and isinstance(n.ctx, ast.Store)
                          and isinstance(n.value, ast.Name)
                          and n.value.id == "self"}
    anywhere = top.union(*members.values())
    stale = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Module, ast.ClassDef,
                                     ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for _, target in _REFERENCE.findall(
                    ast.get_docstring(node, clean=False) or ""):
                parts = target.split(".")
                if len(parts) > 1 and parts[0] in modules:
                    parts = parts[1:]
                if len(parts) == 1 and parts[0] in anywhere or \
                        len(parts) == 2 and parts[1] in members.get(parts[0],
                                                                    ()):
                    continue
                stale.append((name, target))
    return sorted(stale)


def test_docstring_references_name_something():
    """A docstring that points the reader at a class, function, method or
    attribute points at one the package still has."""
    assert _stale_references(sorted(SRC.glob("*.py"))) == []


def test_stale_reference_is_found(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        '"""See :class:`Kept`, :meth:`Kept.run`, :attr:`Kept.size`,\n'
        ':func:`.m.helper`, :class:`~.m.Kept`, :meth:`run` and\n'
        ':data:`LIMIT`; not :func:`_gone`, :meth:`Kept.gone`,\n'
        ':class:`.m.Gone` or :meth:`Kept.run.inner`."""\n\n'
        'LIMIT: int = 3\n\n\n'
        'def helper():\n    pass\n\n\n'
        'class Kept:\n    """Its :attr:`width` and :attr:`size`."""\n\n'
        '    def __init__(self):\n        self.size = 1\n\n'
        '    def run(self):\n        """Not :func:`helper2`."""\n')
    assert [target for _, target in _stale_references([path])] == [
        "Kept.gone", "Kept.run.inner", "_gone", "helper2", "m.Gone", "width"]
