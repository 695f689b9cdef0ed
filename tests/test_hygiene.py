"""Lint steps: every name a module imports is referenced in that module,
and no function in `src/dbrb` imports anything.

Uses only the stdlib `ast` module.  Package `__init__.py` files, which
import to re-export, and `from __future__` imports are exempt.  Imports
in `src/dbrb` belong at module level, where they run once; the package
has no import cycle that would need a deferred import.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "dbrb").glob("*.py"), *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")
SOURCE_MODULES = sorted((ROOT / "src" / "dbrb").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = "import json\nimport os\nfrom typing import Optional, Any\nos.getcwd()\nx: Any\n"
    assert unused_imports(source) == ["line 1: json", "line 3: Optional"]


def function_local_imports(source: str) -> list[int]:
    """Line numbers of the imports made inside a function (or method)."""
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.update(node.lineno for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_function_local_imports(path):
    assert function_local_imports(path.read_text()) == []


def test_function_local_import_is_reported():
    source = ("import os\n\ndef f():\n    from json import dumps\n    return dumps\n\n"
              "class C:\n    def g(self):\n        import re\n")
    assert function_local_imports(source) == [4, 9]
