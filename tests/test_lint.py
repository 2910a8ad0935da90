"""Every name a package module imports is used in that module and imported
at module level, every _private function is used somewhere in the package, and every public
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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    """Imports sit at module level, where a reader finds every dependency."""
    tree = ast.parse(path.read_text(), filename=str(path))
    nested = [
        "%s (line %d)" % (fn.name, node.lineno)
        for fn in ast.walk(tree)
        if isinstance(fn, FUNCTIONS)
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == [], "%s imports inside functions: %s" % (path.name, ", ".join(nested))


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


def _references(node, bound=frozenset()):
    """Every name the tree reads: bare names, attributes, and string constants
    (getattr).  A bare name that the innermost enclosing function binds, as a
    parameter or a local, is that function's own and names no definition."""
    if isinstance(node, FUNCTIONS):
        bound = _bound(node)
    elif isinstance(node, ast.Name):
        if node.id not in bound:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value
    for child in ast.iter_child_nodes(node):
        yield from _references(child, bound)


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


# Public entry points that only the tests call: the acceptance tests
# reproduce the PSL(3,4) commutators and the exceptional automorphism witness
# and print a suite with full_suite_to_text, and the brute-force oracles use
# conjugacy_classes and Permutation.conjugate.
TEST_ENTRY_POINTS = {
    "reproduce_psl34_commutators",
    "exceptional_automorphism_witness",
    "full_suite_to_text",
    "conjugacy_classes",
    "conjugate",
}


def test_public_code_has_a_caller_besides_its_tests():
    """Every public definition is exported, one of the entry points above, or
    named by the package or the benchmark: a function that only its own unit
    test calls is deleted with that test rather than kept."""
    dead = list(
        _unreferenced(
            FUNCTIONS + (ast.ClassDef,),
            lambda name: not name.startswith("_")
            and name not in cppo.__all__
            and name not in TEST_ENTRY_POINTS,
            sorted(SRC.glob("*.py")) + sorted(ROOT.glob("bench/*.py")),
        )
    )
    assert dead == [], "public code only the tests call: %s" % ", ".join(dead)



def _annotations(tree):
    """Every node inside an annotation: naming a type is not a use."""
    inside = set()
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, FUNCTIONS):
            a = node.args
            notes = [x.annotation for x in a.posonlyargs + a.args + a.kwonlyargs]
            notes += [x.annotation for x in (a.vararg, a.kwarg) if x is not None]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for note in notes:
            if note is not None:
                inside.update(id(n) for n in ast.walk(note))
    return inside


def _defaulted(node):
    """(name, position or None) of each parameter with a default; a method's
    positions count self."""
    a = node.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(x.arg, i) for i, x in enumerate(positional) if i >= first]
    out += [(x.arg, None) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _bound(node):
    """Names a function binds itself: its parameters and assignment targets."""
    a = node.args
    names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x}
    names.update(
        n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
    )
    return names


def test_every_defaulted_parameter_is_passed_somewhere():
    """A parameter with a default that no call passes is a knob nobody sets.

    Calls are matched to definitions by name (a class name calls its
    __init__), so the check errs towards counting a parameter as passed.  A
    call that forwards one of its caller's own defaulted parameters passes it
    only if that caller's parameter is itself passed somewhere.  Functions
    also named other than as a call target, such as the lemma checks in
    REGISTRY, may be called with anything and are left out; a local variable
    of the same name does not count.
    """
    paths = sorted(SRC.glob("*.py")) + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("bench/*.py"))
    defs = {}  # (file, line) -> (called name, defaulted params, is a method)
    by_name = {}  # called name -> keys of the definitions it reaches
    passes = []  # (called name, position or keyword, forwarded (key, param) or None)
    named = set()  # names read other than as a call target

    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        skip = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        skip |= _annotations(tree)

        def visit(node, scope, bound, cls):
            # scope: enclosing package definitions as (key, defaulted names);
            # bound: names the innermost enclosing function binds itself
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    visit(child, scope, bound, node.name)
                return
            if isinstance(node, FUNCTIONS):
                method = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
                )
                called = cls if method and node.name == "__init__" else node.name
                params = _defaulted(node)
                if path.parent == SRC:
                    key = (path.name, node.lineno)
                    defs[key] = (called, params, method)
                    by_name.setdefault(called, []).append(key)
                    scope = [(key, {p for p, _ in params})] + scope
                for child in ast.iter_child_nodes(node):
                    visit(child, scope, _bound(node), None)
                return
            if id(node) not in skip:
                if isinstance(node, ast.Name) and node.id not in bound:
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
            if isinstance(node, ast.Call):
                f = node.func
                called = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

                def forwarded(value):
                    if isinstance(value, ast.Name):
                        for key, params in scope:
                            if value.id in params:
                                return key, value.id
                    return None

                for i, arg in enumerate(node.args):
                    if isinstance(arg, ast.Starred):
                        passes.append((called, "*", None))
                        break
                    passes.append((called, i, forwarded(arg)))
                for kw in node.keywords:
                    passes.append((called, kw.arg or "**", forwarded(kw.value)))
            for child in ast.iter_child_nodes(node):
                visit(child, scope, bound, cls)

        visit(tree, [], set(), None)

    # super().__init__(...) may reach any constructor
    by_name["__init__"] = [k for k, (called, _, m) in defs.items() if m and called[:1].isupper()]

    def reached(called, slot):
        for key in by_name.get(called, []):
            _, params, method = defs[key]
            for pname, pos in params:
                if slot in ("*", "**", pname) or (isinstance(slot, int) and slot + method == pos):
                    yield key, pname

    passed = set()
    changed = True
    while changed:
        changed = False
        for called, slot, source in passes:
            if source is None or source in passed:
                for hit in reached(called, slot):
                    if hit not in passed:
                        passed.add(hit)
                        changed = True

    unset = [
        "%s:%d %s(%s=)" % (key[0], key[1], called, pname)
        for key, (called, params, _) in sorted(defs.items())
        if called not in named
        for pname, _ in params
        if (key, pname) not in passed
    ]
    assert unset == [], "defaulted parameters no call passes: %s" % ", ".join(unset)


def _names_read_outside(owner, names):
    """Each read of one of `names`, as an attribute, a bare name or an
    imported name, in a package module other than `owner`."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == owner:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in names:
                yield "%s:%d %s" % (path.name, node.lineno, name)


def test_only_the_kernel_reads_raw_tables():
    """translate, maketrans and itemgetter act on the raw format, and
    BYTES_MAX_DEGREE picks it; only permutation.py knows that format, and the
    other modules call its kernel functions, conjugation_tables included."""
    raw_names = {"translate", "maketrans", "itemgetter", "BYTES_MAX_DEGREE"}
    found = list(_names_read_outside("permutation.py", raw_names))
    assert found == [], "raw-table operations outside the kernel: %s" % ", ".join(found)


def test_only_the_chain_reads_its_transversals():
    """A chain's generators, Schreier tree, formed coset inverses and
    Schreier queues are read only inside bsgs.py, so its storage can change
    without callers."""
    found = list(_names_read_outside("bsgs.py", {"_inverses", "_tree", "_gens", "_queues"}))
    assert found == [], "chain internals read outside bsgs.py: %s" % ", ".join(found)


def test_only_the_memo_reads_a_group_cache():
    """Per-group derived results are memoized by group.cached, so only
    group.py names a group's _cache, and how a group stores them can change
    without callers."""
    found = list(_names_read_outside("group.py", {"_cache"}))
    assert found == [], "group memo read outside group.py: %s" % ", ".join(found)
