"""Every import in the package sits at module level and is read there,
and no module-level helper is dead.

An import inside a function body hides a dependency cycle between
modules.  The one left, ``ops.hom_complex`` reaching the enumeration
oracle, goes when Hom is computed by linear algebra.

The oracle's enumerations stay independent of the shortcuts they check:
only ``oracle.cross_check`` names what ``oracle`` imports from ``reduce``
or ``lattice``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chaincell"

# (module, function, imported name)
ALLOWED = {("ops", "hom_complex", "oracle")}


def _imported(node):
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module]
    return [alias.name for alias in node.names]


def test_no_function_level_imports():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(func):
                    if isinstance(node, (ast.Import, ast.ImportFrom)):
                        found.update((path.stem, func.name, name) for name in _imported(node))
    assert found <= ALLOWED, sorted(found - ALLOWED)


def test_no_unused_imports():
    # every name a module-level import binds is read in its own module; the
    # package __init__ re-exports, and a __future__ import acts by being there
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.stem}.{name}")
    assert not unused, unused


def test_oracle_reads_no_shortcut_outside_cross_check():
    # the enumerations check the decision procedure, so none of them may
    # name what oracle imports from reduce or lattice; only cross_check,
    # which compares the two sides, does
    tree = ast.parse((SRC / "oracle.py").read_text())
    shortcuts = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                # from .reduce import name, or from . import reduce
                if stmt.module in ("reduce", "lattice") or (
                    stmt.module is None and alias.name in ("reduce", "lattice")
                ):
                    shortcuts.add(alias.asname or alias.name)
    assert shortcuts  # the test reads the imports it means to
    found = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name != "cross_check":
            found += [(stmt.name, name) for name in sorted(_referenced(stmt) & shortcuts)]
    assert not found, found


def _defined(stmt):
    """Names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _referenced(stmt):
    """Names a statement reads, as a bare name, an attribute or an import."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _module_statements():
    statements = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += [(path.stem, stmt) for stmt in tree.body]
    return statements


def _read_elsewhere(name, stmt, statements):
    return any(name in _referenced(other) for _, other in statements if other is not stmt)


def test_no_dead_private_helpers():
    # a module-level _name (function, class or constant) must be read by some
    # statement of src/ other than its own definition
    statements = _module_statements()
    dead = []
    for module, stmt in statements:
        for name in _defined(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not _read_elsewhere(name, stmt, statements):
                dead.append(f"{module}.{name}")
    assert not dead, dead


def _named_in_perfbench():
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names |= _referenced(tree)
        strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)]
        names |= {v for v in strings if isinstance(v, str)}
    return names


def test_no_dead_public_helpers():
    # a public module-level function or class must be read by another statement
    # of src/ (an export from chaincell/__init__ is such a read) or be named in
    # perfbench/; randgen's generators exist for the test suites
    statements = _module_statements()
    perfbench = _named_in_perfbench()
    dead = []
    for module, stmt in statements:
        if module == "randgen" or not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        name = stmt.name
        if name.startswith("_") or name in perfbench:
            continue
        if not _read_elsewhere(name, stmt, statements):
            dead.append(f"{module}.{name}")
    assert not dead, dead
