"""Every name a library module imports is used in that module, every
private helper a library module defines is referenced somewhere in the
library, and every public name it defines has a caller.

``adlv/__init__.py`` is exempt from the first (its imports are the public
API), and so are ``__future__`` imports.  A use is a name read in the
module's syntax tree, so a name that only a string annotation mentions
counts as unused.  A private helper is a module-level function or class
whose name starts with a single ``_``; a reference to it is a name, an
attribute or an imported name in any module of the library, tests aside.
A public name is a module-level function or class, or a method, whose name
does not start with ``_``; it needs a reference outside its own definition
in a library module other than ``__init__.py`` (whose re-exports do not
count) or in a ``perfbench`` script.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "adlv"
LIBRARY = sorted(SOURCE.glob("*.py"))
MODULES = [p for p in LIBRARY if p.name != "__init__.py"]
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each bound name -> the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_guard_sees_an_unused_import():
    tree = ast.parse("from .errors import AdlvError, InternalCheckError\n"
                     "import os.path\n"
                     "def f() -> InternalCheckError:\n"
                     "    return os.sep\n")
    assert set(_imported(tree)) - _used(tree) == {"AdlvError"}


def _private_helpers(tree: ast.Module) -> dict[str, int]:
    """Each module-level function or class named with a single ``_`` -> its line."""
    return {node.name: node.lineno for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _referenced(tree: ast.AST) -> Counter:
    """Each name, attribute or imported name in the tree -> its count."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _dead_helpers(trees: dict[str, ast.Module]) -> dict[str, int]:
    """``module:helper`` -> line, for each private helper no module references."""
    referenced = set().union(*map(_referenced, trees.values()))
    return {f"{module}:{name}": line for module, tree in trees.items()
            for name, line in _private_helpers(tree).items() if name not in referenced}


def test_every_private_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in LIBRARY}
    dead = _dead_helpers(trees)
    assert not dead, f"private helpers no module references: {dead}"


def test_guard_sees_a_dead_helper():
    trees = {"a.py": ast.parse("def _called(): pass\n"
                               "def _imported(): pass\n"
                               "class _Read: pass\n"
                               "def _dead(): pass\n"
                               "def __dunder__(): pass\n"
                               "def public(): return _called(), _Read\n"),
             "b.py": ast.parse("from .a import _imported\n")}
    assert _dead_helpers(trees) == {"a.py:_dead": 4}


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function or class
    and each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item


def _uncalled_public(trees: dict[str, ast.Module], callers: list[ast.Module]) -> set[str]:
    """``module:name`` for each public definition in ``trees`` that no tree
    of ``callers`` references outside the definition itself."""
    referenced = sum(map(_referenced, callers), Counter())
    return {f"{module}:{name}" for module, tree in trees.items()
            for name, node in _public_definitions(tree)
            if referenced[node.name] == _referenced(node)[node.name]}


def test_every_public_name_has_a_caller():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    bench = [ast.parse(p.read_text(), filename=str(p)) for p in BENCH]
    uncalled = _uncalled_public(trees, list(trees.values()) + bench)
    assert not uncalled, f"public names nothing calls: {sorted(uncalled)}"


def test_guard_sees_an_uncalled_public_name():
    trees = {"a.py": ast.parse("def called(): pass\n"
                               "def recursive(n): return recursive(n - 1)\n"
                               "def _private(): return called()\n"
                               "class Point:\n"
                               "    def leq(self, other): return self.used()\n"
                               "    def used(self): pass\n"
                               "    def __eq__(self, other): pass\n"),
             "b.py": ast.parse("from .a import Point\n")}
    callers = list(trees.values()) + [ast.parse("import adlv\nadlv.a.called()\n")]
    assert _uncalled_public(trees, callers) == {"a.py:recursive", "a.py:Point.leq"}
