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
# where a definition may be named for it to count as used
READERS = ("src", "tests", "perfbench", "docs", "README.md")
TEXT_SUFFIXES = {".py", ".md", ".yaml", ".txt", ".json"}


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _unused_imports(tree) == []


def test_unused_import_is_found():
    tree = ast.parse("import math\nimport numpy as np\n"
                     "from os import path, sep\nx = np.ones(path)\n")
    assert _unused_imports(tree) == [(1, "math"), (3, "sep")]


def _top_level_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _word_counts(root):
    """Occurrences of each identifier-like word in the text files that
    may name a definition; the package ``__init__`` only re-exports."""
    counts = Counter()
    for top in READERS:
        base = root / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for path in files:
            if (path.suffix in TEXT_SUFFIXES and path.is_file()
                    and path != SRC / "__init__.py"):
                counts.update(re.findall(r"\w+", path.read_text(
                    encoding="utf-8", errors="replace")))
    return counts


def test_every_definition_is_named_somewhere():
    """A module-level function or class of the package that nothing
    names apart from its own definition is dead code."""
    counts = _word_counts(ROOT)
    unnamed = [f"{path.name}:{name}" for path in MODULES
               for name in _top_level_definitions(ast.parse(
                   path.read_text(encoding="utf-8"), filename=str(path)))
               if counts[name] <= 1]
    assert unnamed == []


def test_unnamed_definition_is_found(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "def used():\n    pass\n\n\ndef dead():\n    return used()\n")
    counts = _word_counts(tmp_path)
    assert (counts["used"], counts["dead"]) == (2, 1)


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
