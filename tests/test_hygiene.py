"""Source hygiene that a linter would check, written with the stdlib ast module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lgorbit"


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


def _reads(nodes):
    """Names read by a Name or Attribute node under ``nodes``; __all__ entries count."""
    used = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def _assigned(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")]


def unreferenced(sources, looked_up=()):
    """Definitions in ``sources`` (file name -> text) that nothing else reads.

    Checked are top-level functions, classes and constants, and public
    methods, listed as Class.method.  A definition's own body does not
    count as a reference: a class's whole body for the class, the method's
    body for a method.  Names in ``looked_up``, spelled module.name, count
    as read, as names in __all__ do.
    """
    units = []  # the names each statement reads; a class body gives one per statement
    defined = []  # (file, name, indices of the units that make up its definition)
    for file, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef):
                start = len(units)
                units.append(_reads(node.bases + node.keywords + node.decorator_list))
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        defined.append((file, f"{node.name}.{sub.name}", {len(units)}))
                    units.append(_reads([sub]))
                defined.append((file, node.name, set(range(start, len(units)))))
                continue
            if isinstance(node, ast.FunctionDef):
                defined.append((file, node.name, {len(units)}))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined.extend((file, name, {len(units)}) for name in _assigned(node))
            units.append(_reads([node]))
    missing = {}
    for file, name, own in defined:
        short = name.split(".")[-1]
        if f"{file[:-3]}.{name}" in looked_up:
            continue
        if not any(short in used for i, used in enumerate(units) if i not in own):
            missing.setdefault(file, []).append(name)
    return missing


def test_unreferenced_definition_detector():
    sources = {
        "a.py": (
            "LIMIT = 3\n"
            "SPARE = 4\n"
            "__all__ = ['Exported']\n"
            "class Exported:\n"
            "    def used(self): return LIMIT\n"
            "    def spare(self): return Exported()\n"
            "    def _private(self): pass\n"
            "class Lonely:\n"
            "    def again(self): return Lonely().again()\n"
            "def helper(): return Exported().used()\n"
            "def orphan(): orphan()\n"
        ),
        "b.py": "from a import helper\nhelper()\n",
    }
    assert unreferenced(sources) == {
        "a.py": ["SPARE", "Exported.spare", "Lonely.again", "Lonely", "orphan"]
    }
    assert unreferenced(sources, {"a.SPARE", "a.Lonely", "a.Lonely.again"}) == {
        "a.py": ["Exported.spare", "orphan"]
    }


# perfbench/tracer.py looks these names up by string; they are bound to a
# stand-in until its HOT_FUNCTIONS list drops them, and then go from here too.
BENCHMARK_ONLY = {
    "compactification.random_group_elements",
    "compactification.moment_orbit_scan",
    "compactification.orbit_value_identity",
}


def test_library_defines_nothing_only_tests_use():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources, BENCHMARK_ONLY) == {}
