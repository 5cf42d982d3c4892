"""Source hygiene that a linter would check, written with the stdlib ast module."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lgorbit"


def unused_imports(source: str):
    """Names a module imports and never reads; names in __all__ count as read."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Dict, List as L\n"
        "from .gaussian import ONE\n"
        "__all__ = ['ONE']\n"
        "x: Dict = {}\n"
    )
    assert unused_imports(source) == ["L", "os"]


def test_library_has_no_unused_imports():
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}
