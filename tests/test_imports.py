"""Every import in the package sits at module level.

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
