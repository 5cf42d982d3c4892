"""Source hygiene that a linter would check, written with the stdlib ast module."""

import ast
import re
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
    """Names read under ``nodes``: ``name`` for a Name, ``.name`` for an
    Attribute; __all__ entries count as Names."""
    used = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add("." + node.attr)
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
    methods, listed as Class.method.  A top-level name is read by a bare
    name or an attribute access, a method only by an attribute access
    (``x.method``): a local variable of the same name does not read it.  A
    definition's own body does not count as a reference: a class's whole
    body for the class, the method's body for a method.  Names in
    ``looked_up``, spelled module.name, count as read, as names in __all__ do.
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
        reads = {"." + short} if "." in name else {short, "." + short}
        if f"{file[:-3]}.{name}" in looked_up:
            continue
        if not any(reads & used for i, used in enumerate(units) if i not in own):
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
            "    def shadowed(self): pass\n"
            "    def _private(self): shadowed = 1; return shadowed\n"
            "class Lonely:\n"
            "    def again(self): return Lonely().again()\n"
            "def helper(): return Exported().used()\n"
            "def orphan(): orphan()\n"
        ),
        "b.py": "from a import helper\nhelper()\n",
    }
    assert unreferenced(sources) == {
        "a.py": ["SPARE", "Exported.spare", "Exported.shadowed", "Lonely.again", "Lonely",
                 "orphan"]
    }
    assert unreferenced(sources, {"a.SPARE", "a.Lonely", "a.Lonely.again"}) == {
        "a.py": ["Exported.spare", "Exported.shadowed", "orphan"]
    }


# perfbench/tracer.py looks these names up by string; the library keeps them
# (the scans and the sampler bound to stand-ins) until its HOT_FUNCTIONS list
# drops them, and then they go from here too.
BENCHMARK_ONLY = {
    "compactification.random_group_elements",
    "compactification.moment_orbit_scan",
    "compactification.orbit_value_identity",
    "compactification.singular_scan",
    "lie.random_sl_integer",
    "gaussian.ExactMatrix.inverse",
    "symplectic.check_thimble_lagrangian",
}


def test_every_benchmark_only_name_is_still_named_by_the_tracer():
    # once the tracer stops naming one, nothing needs the library to keep it
    tracer = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    named = {
        node.value
        for node in ast.walk(tracer)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert BENCHMARK_ONLY - named == set()


# argparse calls this override of ArgumentParser.error by name
STDLIB_HOOKS = {"cli._Parser.error"}


def test_library_defines_nothing_only_tests_use():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced(sources, BENCHMARK_ONLY | STDLIB_HOOKS) == {}


def unread_config_keys(source: str):
    """Fields of the ``Config`` class in ``source`` that no declared check
    reads as ``cfg.<field>``: neither a ``_suite(...)`` declaration nor a
    top-level function that one names (its inputs, or a verdict written as a
    function)."""
    tree = ast.parse(source)
    fields = [
        stmt.target.id
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "Config"
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
    ]
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    declarations = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "_suite"
    ]
    named = [
        functions[node.id]
        for declaration in declarations
        for node in ast.walk(declaration)
        if isinstance(node, ast.Name) and node.id in functions
    ]
    read = {
        node.attr
        for top in declarations + named
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cfg"
    }
    return [field for field in fields if field not in read]


def test_unread_config_key_detector():
    source = (
        "class Config:\n"
        "    seed: int = 0\n"
        "    k_max: int = 6\n"
        "    t_range: int = 10\n"
        "    spare: int = 1\n"
        "def load_config(cfg): return cfg.spare\n"
        "def _inputs(cfg): return locals(), {}\n"
        "def _sampled(cfg): return cfg.seed > 0, 'seeded'\n"
        "suite_a = _suite(\n"
        "    _inputs,\n"
        "    Check('a.x', 'claim:x', _sampled),\n"
        "    Check('a.y', 'claim:y', lambda cfg: (cfg.t_range > 0, 'window')),\n"
        ")\n"
    )
    assert unread_config_keys(source) == ["k_max", "spare"]


def test_every_config_key_is_read_by_a_suite():
    # a key that no check reads is a knob that changes nothing in the report
    assert unread_config_keys((SRC / "report.py").read_text(encoding="utf-8")) == []


def test_readme_names_only_the_size_bounds_report_defines():
    # a deleted key's bound must leave the README's bounds paragraph with it
    # (tests/test_cli.py checks the key table and the flag sentence)
    tree = ast.parse((SRC / "report.py").read_text(encoding="utf-8"))
    bounds = {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in ast.walk(node)
        if isinstance(target, ast.Name) and target.id.startswith("MAX_")
    }
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert set(re.findall(r"`(MAX_\w+)`", readme)) == bounds == {
        "MAX_SPHERE_SAMPLES", "MAX_T_RANGE"
    }
