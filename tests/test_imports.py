"""Every import in the package sits at module level, and no private
module-level name is dead.

An import inside a function body hides a dependency cycle between
modules.  The one left, ``ops.hom_complex`` reaching the enumeration
oracle, goes when Hom is computed by linear algebra.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chaincell"

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


def test_no_dead_private_helpers():
    # a module-level _name (function, class or constant) must be read by some
    # statement of src/ other than its own definition
    statements = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += [(path.stem, stmt) for stmt in tree.body]
    dead = []
    for module, stmt in statements:
        for name in _defined(stmt):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in _referenced(other) for _, other in statements if other is not stmt):
                dead.append(f"{module}.{name}")
    assert not dead, dead
