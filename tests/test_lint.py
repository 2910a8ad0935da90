"""Every name a package module imports is used in that module, every
_private function is used somewhere in the package, and every public
function, method or class is exported or used somewhere in the package, the
tests or the benchmark.

pyflakes would catch this, but it is not a dependency of the project, so
the check is a short ast walk.  Names listed in a module's __all__ count as
used: that is how the package re-exports them.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import cppo

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cppo"


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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unreferenced(kinds, wanted, paths):
    """Each package definition of the given node kinds whose name `wanted`
    accepts and that nothing in `paths` names outside its own body."""
    refs = Counter()
    defs = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        refs.update(_references(tree))
        if path.parent == SRC:
            defs.extend(
                (path.name, node)
                for node in ast.walk(tree)
                if isinstance(node, kinds) and wanted(node.name)
            )
    for module, node in defs:
        inside = sum(1 for name in _references(node) if name == node.name)
        if refs[node.name] == inside:
            yield "%s:%d %s" % (module, node.lineno, node.name)


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
    dead = list(
        _unreferenced(
            FUNCTIONS,
            lambda name: name.startswith("_") and not name.startswith("__"),
            sorted(SRC.glob("*.py")),
        )
    )
    assert dead == [], "private functions nothing in the package calls: %s" % ", ".join(dead)


def test_no_unreferenced_public_code():
    dead = list(
        _unreferenced(
            FUNCTIONS + (ast.ClassDef,),
            lambda name: not name.startswith("_") and name not in cppo.__all__,
            sorted(SRC.glob("*.py")) + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("bench/*.py")),
        )
    )
    assert dead == [], "public code that is neither exported nor used: %s" % ", ".join(dead)
