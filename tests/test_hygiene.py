"""Source hygiene that a linter would check, written with the stdlib ast module."""

import ast
import json
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
    "gaussian.ExactMatrix.det",
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


def test_readme_counts_the_checks_and_assumptions_of_the_golden():
    # a row that changes status must take the README's counts with it
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    found = re.search(r"The full run emits (\d+) checks; (\d+) are recorded\s+assumptions", readme)
    assert found, "the README no longer states the check and assumption counts"
    rows = json.loads((ROOT / "tests" / "golden" / "verify_all.json").read_text(
        encoding="utf-8"))["results"]
    assumptions = [row["id"] for row in rows if row["status"] == "assumption"]
    assert tuple(map(int, found.groups())) == (len(rows), len(assumptions))
    paragraph = readme[found.start():readme.index("\n\n", found.start())]
    assert all(f"`{row_id}`" in paragraph for row_id in assumptions)


def cohomology_readers(sources):
    """Files in ``sources`` (file name -> text) that import ``gaussian.cohomology``
    or read it as an attribute of the ``gaussian`` module."""
    readers = set()
    for file, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("gaussian"):
                if any(alias.name == "cohomology" for alias in node.names):
                    readers.add(file)
            elif (isinstance(node, ast.Attribute) and node.attr == "cohomology"
                  and isinstance(node.value, ast.Name) and node.value.id == "gaussian"):
                readers.add(file)
    return readers


def test_only_fukaya_takes_cohomology_of_a_hom_complex():
    # fukaya's twisted Hom is the one Hom-complex engine; a second one would
    # need gaussian.cohomology, and this names the file that takes it
    assert cohomology_readers({
        "a.py": "from .gaussian import ExactMatrix, cohomology\n",
        "b.py": "from . import gaussian\nh = gaussian.cohomology({}, {})\n",
        "c.py": "from .fukaya import morse_circle_floer\nh = morse_circle_floer().cohomology\n",
        "d.py": "from lgorbit.gaussian import ExactMatrix\n",
    }) == {"a.py", "b.py"}
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert cohomology_readers(sources) == {"fukaya.py"}


def gaussian_names(source: str):
    """What ``source`` takes from the ``gaussian`` module: each name it imports
    from it, and "gaussian" when it imports the module itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "gaussian":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update("gaussian" for alias in node.names
                         if alias.name.split(".")[-1] == "gaussian")
    return names


def test_compactification_imports_no_gaussian_rational():
    # points are plain tuples and the imaginary unit is the symbol i, so
    # compactification takes from gaussian only what its Gram ranks read
    assert gaussian_names(
        "from .gaussian import ExactMatrix, GaussianRational\n"
        "from . import gaussian, poly\n"
        "import lgorbit.gaussian\n"
        "from .gaussian_oracle import check\n"
    ) == {"ExactMatrix", "GaussianRational", "gaussian"}
    source = (SRC / "compactification.py").read_text(encoding="utf-8")
    assert gaussian_names(source) == {"ExactMatrix", "Rational"}


def top_level_names(source: str):
    """The names a module binds at its top level: classes, functions and
    assigned or annotated names."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


GAUSSIAN_SCALAR = {"GaussianRational", "ZERO", "ONE", "RatLike", "_gauss", "_lift"}


def test_the_library_has_one_coefficient_field():
    # i is a polynomial variable reduced modulo i^2 + 1, so no module defines a
    # Gaussian scalar (and IMPORTS keeps gaussian out of poly's row)
    assert top_level_names(
        "class GaussianRational:\n    ONE = 1\n"
        "def _lift(v):\n    ZERO = 0\n"
        "RatLike: object = int\nA = B = 1\n"
    ) & GAUSSIAN_SCALAR == {"GaussianRational", "_lift", "RatLike"}
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, text in sources.items()
            if (found := top_level_names(text) & GAUSSIAN_SCALAR)} == {}


# Every lgorbit module and the lgorbit modules it imports, at its top level or
# inside a function body.  A new edge is declared here first, so the layering
# is read in one place: lie and poly take nothing from gaussian, symplectic
# and compactification read the orbit from lie, and only report loads the
# suites' layers, each inside its suite's functions (SUITE_LAYERS).
IMPORTS = {
    "__init__": set(),
    "__main__": {"cli"},
    "cli": {"report"},
    "compactification": {"errors", "gaussian", "lie", "poly", "symplectic"},
    "errors": set(),
    "fukaya": {"errors", "gaussian"},
    "gaussian": {"errors"},
    "lie": {"errors", "poly"},
    "mirror": {"errors"},
    "poly": {"errors"},
    "quiver": {"errors", "fukaya", "gaussian", "toric"},
    "report": {"compactification", "errors", "fukaya", "lie", "mirror", "poly", "quiver",
               "symplectic", "toric"},
    "symplectic": {"errors", "lie"},
    "toric": {"errors", "poly"},
}

# The layers each report suite imports: in its inputs function and in every
# report function its declaration reaches (``_certified`` imports poly).
SUITE_LAYERS = {
    "category": {"fukaya", "mirror", "toric"},
    "compactification": {"compactification", "poly"},
    "lie": {"lie", "poly"},
    "mirror": {"mirror"},
    "quiver": {"fukaya", "quiver", "toric"},
    "sheaves": {"toric"},
    "symplectic": {"poly", "symplectic"},
}


def lgorbit_imports(tree):
    """The lgorbit modules imported anywhere under ``tree``, function bodies
    included, whether spelled relative (``from .lie import x``, ``from .
    import lie``) or absolute (``from lgorbit.lie import x``, ``import
    lgorbit.lie``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("lgorbit."))
        elif isinstance(node, ast.ImportFrom) and node.level <= 1:
            module = ("lgorbit." if node.level else "") + (node.module or "")
            if module.strip(".") == "lgorbit":
                found.update(alias.name for alias in node.names)
            elif module.startswith("lgorbit."):
                found.add(module.split(".")[1])
    return found


def import_graph(sources):
    """Each module of ``sources`` (file name -> text) and what it imports."""
    return {file[:-3]: lgorbit_imports(ast.parse(text)) for file, text in sources.items()}


def undeclared_edges(graph, table):
    """Per module, the edges ``graph`` has and ``table`` lacks ("+name") and
    the declared edges that ``graph`` lacks ("-name")."""
    diff = {}
    for module in sorted(set(graph) | set(table)):
        found, declared = graph.get(module, set()), table.get(module, set())
        if found != declared:
            diff[module] = sorted(f"+{m}" for m in found - declared) + sorted(
                f"-{m}" for m in declared - found)
    return diff


def suite_imports(source: str):
    """Each ``suite_<name> = _suite(...)`` declaration of a report source and
    the lgorbit modules it imports: those of the top-level functions that the
    declaration names, directly or through another such function."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def named(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in functions}

    suites = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name) and node.value.func.id == "_suite"):
            reached, todo = set(), named(node.value)
            while todo:
                reached.add(name := todo.pop())
                todo |= named(functions[name]) - reached
            suites[node.targets[0].id.removeprefix("suite_")] = set().union(
                *(lgorbit_imports(functions[name]) for name in reached))
    return suites


def closure(layers):
    """``layers`` and every module they import, through IMPORTS."""
    seen, todo = set(), set(layers)
    while todo:
        seen.add(module := todo.pop())
        todo |= IMPORTS[module] - seen
    return seen


def test_undeclared_import_detector():
    graph = import_graph({
        "a.py": "import os\nfrom .b import f\nfrom . import c as see\n",
        "b.py": "from .errors import E\ndef g():\n    from lgorbit import c\n    return c\n",
        "c.py": "import lgorbit.gaussian\nfrom lgorbit.toric import dims\n",
    })
    assert graph == {"a": {"b", "c"}, "b": {"errors", "c"}, "c": {"gaussian", "toric"}}
    # b's edge to c is hidden in a function body, c's to toric is not declared,
    # and a's declared edge to poly is not made
    table = {"a": {"b", "c", "poly"}, "b": {"errors"}, "c": {"gaussian"}}
    assert undeclared_edges(graph, table) == {"a": ["-poly"], "b": ["+c"], "c": ["+toric"]}
    assert suite_imports(
        "def _certified(f):\n    from . import poly\n"
        "def _a(cfg):\n    from . import lie\n    return locals(), {}\n"
        "def _b(cfg):\n    from . import compactification as geo\n    return locals(), {}\n"
        "def _holds(lie):\n    return _certified(lie.identities), 'certified'\n"
        "suite_a = _suite(_a, Check('a.x', 'claim:x', _holds))\n"
        "suite_b = _suite(_b, Check('b.y', 'claim:y', lambda geo: (geo.ok, 'ok')))\n"
    ) == {"a": {"lie", "poly"}, "b": {"compactification"}}


def test_every_import_edge_is_declared():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    graph = import_graph(sources)
    assert set(graph) == set(IMPORTS)
    assert undeclared_edges(graph, IMPORTS) == {}


def test_every_suite_imports_its_declared_layers():
    # with the table, these fix what each `verify <suite>` loads (tests/test_cli.py)
    suites = suite_imports((SRC / "report.py").read_text(encoding="utf-8"))
    assert undeclared_edges(suites, SUITE_LAYERS) == {}
    # the orbit and its 2x2 algebra live in lie, so its suite loads no other layer
    assert closure(SUITE_LAYERS["lie"]) == {"errors", "lie", "poly"}
