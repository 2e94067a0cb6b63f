"""Every name a library module imports is used in that module.

``adlv/__init__.py`` is exempt (its imports are the public API), and so are
``__future__`` imports.  A use is a name read in the module's syntax tree,
so a name that only a string annotation mentions counts as unused.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "adlv"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


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
