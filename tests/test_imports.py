"""Package source rules: every import sits at module level, and every
public name a module lists exists."""

import ast
import importlib
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


MODULES = ("qcore", "ansatz", "grad", "train", "noise", "stability", "comb", "data", "experiments")


def test_public_names_resolve_for_the_tracer():
    """The benchmark's span tracer wraps every name in each module's
    ``__all__`` and patches two methods by class attribute; a stale entry
    stops it at install time, which no other test would notice."""
    modules = [importlib.import_module(f"reupqnn.{name}") for name in MODULES]
    missing = [f"{m.__name__}.{attr}" for m in modules for attr in m.__all__
               if not hasattr(m, attr)]
    assert missing == []
    assert "__post_init__" in vars(importlib.import_module("reupqnn.qcore").QuantumState)
    assert "replace" in vars(importlib.import_module("reupqnn.data").Dataset)
