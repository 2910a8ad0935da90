"""Every name a package module imports is used in that module, and every
_private function is used somewhere in the package.

pyflakes would catch this, but it is not a dependency of the project, so
the check is a short ast walk.  Names listed in a module's __all__ count as
used: that is how the package re-exports them.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cppo"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = ["%s (line %d)" % (name, line) for name, line in _imported(tree) if name not in used]
    assert unused == [], "%s imports names it never uses: %s" % (path.name, ", ".join(unused))


def _private_defs_and_refs():
    """Each _private function or method, and how often its name is used outside its own body."""
    refs = Counter()
    defs = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        refs.update(_references(tree))
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                defs.append((path.name, node))
    for module, node in defs:
        inside = sum(1 for name in _references(node) if name == node.name)
        yield "%s:%d %s" % (module, node.lineno, node.name), refs[node.name] - inside


def _references(tree):
    """Every name the tree reads: bare names, attributes, and string constants (getattr)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_no_unreferenced_private_functions():
    dead = [where for where, uses in _private_defs_and_refs() if uses == 0]
    assert dead == [], "private functions nothing in the package calls: %s" % ", ".join(dead)
