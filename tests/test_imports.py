"""Every name a library module imports is used in that module, and every
private helper a library module defines is referenced somewhere in the library.

``adlv/__init__.py`` is exempt from the first (its imports are the public
API), and so are ``__future__`` imports.  A use is a name read in the
module's syntax tree, so a name that only a string annotation mentions
counts as unused.  A private helper is a module-level function or class
whose name starts with a single ``_``; a reference to it is a name, an
attribute or an imported name in any module of the library, tests aside.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "adlv"
LIBRARY = sorted(SOURCE.glob("*.py"))
MODULES = [p for p in LIBRARY if p.name != "__init__.py"]


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


def _referenced(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
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
