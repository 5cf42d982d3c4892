"""In-process span tracer for lgorbit, installed by wrapping public callables.

Nothing inside ``src/`` is edited: the tracer replaces each public callable
of a layer module with a wrapper that records a span, then patches that
wrapper into every binding of the original it can find in the ``lgorbit``
modules (module globals such as ``lgorbit.cli.run``, and dict values such as
``report.SUITES``).  Calls through module attributes, including imports made
inside a function body, then resolve to the wrapper as well.  The methods,
properties and dunders of a layer's classes are wrapped on the class itself.

A span is ``(name, start, end, parent)``, where ``parent`` is the index of
the enclosing span or -1.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

# The layers are the library's modules, in the order they are reported.
LAYERS = (
    "report", "mirror", "toric", "gaussian", "poly",
    "symplectic", "lie", "fukaya", "quiver", "compactification",
)

# Value classes whose methods run once per element: scalar arithmetic, and the
# objects that mirror's search compares a million times on mirror-wide.  They
# are not wrapped, so their time counts in the caller's self time; wrapping
# them would add over a million spans per run.
SCALARS = frozenset({"gaussian.GaussianRational", "mirror.LineBundle", "mirror.Skyscraper"})

# Public helpers that run once per element inside another function of the
# same module.  Leaving them unwrapped moves no time between layers; wrapping
# them would add hundreds of thousands of spans per run.
INNER_LOOP = frozenset({
    "mirror.ext_p1",
    "mirror.shifted_pattern",
    "symplectic.on_orbit",
    "symplectic.orbit_residual",
    "symplectic.tangency_residual",
    "symplectic.hermitian_pairing",
    "symplectic.omega_value",
    "symplectic.omega",
    "symplectic.tangent_basis",
    "symplectic.sphere_point",
    "symplectic.matrix_from_triple",
    "symplectic.commutator_triple",
    "symplectic.thimble",
    "symplectic.thimble_tangents",
    "symplectic.sphere_membership_residual",
    "symplectic.fiber_to_cylinder",
    "symplectic.cylinder_to_fiber",
})

# The search whose calls that return a witness are counted for hit_ratio.
SEARCH = "mirror.search_mirror_pair"


# The boundaries that get their own self-time metric.
HOT_FUNCTIONS = (
    "mirror.search_mirror_pair", "mirror.exclusion_table",
    "toric.cohomology_dims", "toric.ext_dims",
    "gaussian.ExactMatrix.__mul__", "gaussian.ExactMatrix.rank",
    "gaussian.ExactMatrix.det", "gaussian.ExactMatrix.inverse",
    "poly.MultiHomPoly.__mul__", "poly.MultiHomPoly.substitute",
    "poly.MultiHomPoly.partial",
    "symplectic.check_sphere_lagrangian", "symplectic.check_thimble_lagrangian",
    "compactification.random_group_elements",
    "compactification.orbit_value_identity",
    "compactification.singular_scan", "compactification.moment_orbit_scan",
    "lie.hessian_determinant", "lie.random_sl_integer",
    "fukaya.check_a_infinity",
    "quiver.end_algebra_dims_tilting",
)

SUITES = ("category", "compactification", "lie", "mirror", "quiver", "sheaves", "symplectic")


class Tracer:
    """Records spans around wrapped callables and can undo its patches."""

    def __init__(self):
        self.spans: List[List] = []
        self.searches = [0, 0]  # SEARCH calls, and those that returned a witness
        self.absent: List[str] = []
        self.wrapped: List[str] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        self.wrapped.append(name)
        searches = self.searches if name == SEARCH else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if searches is not None:
                searches[0] += 1
                searches[1] += result is not None
            return result

        return traced

    def _set(self, owner, key: str, value, is_dict: bool) -> None:
        old = owner[key] if is_dict else vars(owner)[key]  # a classmethod comes back as one
        self._undo.append((owner, key, old, is_dict))
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def _wrap_class(self, name: str, cls: type) -> None:
        """Patch the class's public methods, properties and dunders in place."""
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and not (attr.startswith("__") and attr.endswith("__")):
                continue
            method = f"{name}.{attr}"
            if inspect.isfunction(member):
                wrapper = self.wrap(method, member)
            elif isinstance(member, (staticmethod, classmethod)):
                wrapper = type(member)(self.wrap(method, member.__func__))
            elif isinstance(member, property) and member.fget is not None:
                wrapper = member.getter(self.wrap(method, member.fget))
            else:
                continue
            self._set(cls, attr, wrapper, False)

    def install(self) -> None:
        """Wrap every layer's public callables and rebind every reference."""
        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"lgorbit.{layer}")
            except ImportError:
                self.absent.append(layer)
                continue
            for attr, obj in sorted(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in INNER_LOOP:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    if name not in SCALARS:
                        self._wrap_class(name, obj)
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    wrappers[id(obj)] = self.wrap(name, obj)
        for mod_name, module in sorted(sys.modules.items()):
            if mod_name != "lgorbit" and not mod_name.startswith("lgorbit."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, attr, wrappers[id(obj)], False)
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._set(obj, key, wrappers[id(value)], True)
        self.absent += [name for name in HOT_FUNCTIONS if name not in self.wrapped]

    def uninstall(self) -> None:
        """Put back every binding that install() replaced."""
        while self._undo:
            owner, key, old, is_dict = self._undo.pop()
            if is_dict:
                owner[key] = old
            else:
                setattr(owner, key, old)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def summarize(
    spans: Sequence[Sequence],
    wall: float,
    searches: Sequence[int] = (0, 0),
    absent: Sequence[str] = (),
) -> Dict[str, float]:
    """Per-layer metrics of one traced run whose traced region took ``wall`` s."""
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
        out[f"{layer}.calls"] = 0
    suites: Dict[str, float] = {}
    by_name: Dict[str, float] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += own
        out[f"{layer}.calls"] += 1
        by_name[name] = by_name.get(name, 0.0) + own
        if name.startswith("report.suite_"):
            suite = name[len("report.suite_"):]
            suites[suite] = suites.get(suite, 0.0) + end - start
    for name in HOT_FUNCTIONS:
        out[f"{name}.self_s"] = by_name.get(name, 0.0)
    for suite in SUITES:
        out[f"report.suite.{suite}_s"] = suites.get(suite, 0.0)
    calls, hits = searches
    out[f"{SEARCH}.hit_ratio"] = hits / calls if calls else 0.0
    out["unattributed_s"] = wall - sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.spans"] = len(spans)
    out["trace.absent"] = len(absent)
    return out

