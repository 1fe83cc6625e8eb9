"""Package source rules: every import sits at module level."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "reupqnn"


def test_no_imports_inside_functions():
    """An import in a function body can hide an import cycle between modules."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    nested = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
