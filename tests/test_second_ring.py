"""The exact identities, re-checked over sympy from the library's own data.

An identity function is ring-generic: on its symbols, and sympy.I for its
unit ``i``, it returns the (difference, ((relation, cofactor), ...)) pairs
that ``poly.certify`` checks over ``MultiHomPoly``; the chart Hessian's
identity also takes Cartan data, bound here to each case that the report and
``tests/test_lie.py`` certify.  The chart certificates
run on sympy too, with g and its partials built by ``sympy.diff``, and so
do the Euler identities that certify the bidegree of ``toric.f2_form``.  A fault
in ``MultiHomPoly`` that makes an identity hold vacuously then fails a test
here, not only a report row.
"""

import inspect
import re
from pathlib import Path

import pytest
import sympy

from lgorbit import compactification as cg
from lgorbit import lie, symplectic, toric

IDENTITIES = (
    cg.quadric_identities,
    cg.tensor_projector_identities,
    cg.moment_conjugation_identities,
    cg.extension_on_orbit_identities,
    lie.orbit_membership_identities,
    cg.graph_extension_identities,
    cg.exceptional_fiber_identities,
    cg.base_locus_identities,
    cg.scaling_identities,
    cg.singular_point_identities,
    cg.degenerate_value_identities,
    cg.deformed_ring_identities,
    cg.sphere_off_infinity_identities,
    symplectic.sphere_lagrangian_identities,
    symplectic.sphere_frame_identities,
    symplectic.thimble_identities,
    symplectic.taming_identities,
    symplectic.cylinder_chart_identities,
    lie.sl2_critical_identities,
)

# (H0, H) of every chart Hessian certified by the report (the first) and tests/test_lie.py
HESSIAN_CASES = (
    ((1, -1), (1, -1)),
    ((2, 1, -3), (3, -1, -2)),
    ((1, 1, -2), (3, -1, -2)),
    ((1, 0, -1), (1, 0, -1)),
    ((1, 1, -1, -1), (5, 1, -2, -4)),
    ((1, 1, -1, -1), (3, 1, -1, -3)),
)


def _symbols(function, names=None):
    """A real symbol per parameter of ``function``, and sympy.I for ``i``."""
    names = names or {}
    return [sympy.I if name == "i" else names.get(name, sympy.Symbol(name, real=True))
            for name in inspect.signature(function).parameters]


def _charts(equation, names, charts):
    """One identity per chart: certificate(g, d, v) - 1 with g = equation there."""
    v = {name: sympy.Symbol(name, real=True) for name in names.split()}
    f = equation(*_symbols(equation, v))
    for chart, certificate in charts.items():
        g = f.subs({v[name]: 1 for name in chart})
        d = {name: sympy.diff(g, v[name]) for name in v if name not in chart}
        yield certificate(g, d, v.__getitem__) - 1, ()


def _f2_euler(form=toric.f2_form):
    """The Euler identities of the form x0, x1, y0, y1 -> f, partials by sympy.diff."""
    x0, x1, x2, y0, y1 = xs = sympy.symbols("x0 x1 x2 y0 y1", real=True)
    f = form(x0, x1, y0, y1)
    return toric.f2_euler_identities(f, [sympy.diff(f, x) for x in xs], *xs)


def _hessian(h0, h):
    """hessian_identities at each critical point, on a real symbol per chart direction."""
    h0, h = lie.CartanDiagonal(h0), lie.CartanDiagonal(h)
    for point in sorted(lie.critical_points(h0, h)):
        u = sympy.symbols(f"u0:{len(lie.hessian_matrix(h0, h, point))}", real=True)
        yield from lie.hessian_identities(h0, h, point, *u)


# each identity function and chart table, with how many identities it holds
CASES = {
    **{f.__name__: (lambda f=f: f(*_symbols(f)), n)
       for f, n in zip(IDENTITIES, (5, 5, 6, 1, 2, 1, 2, 2, 3, 10, 1, 1, 5, 3, 11, 8, 2, 2, 6))},
    **{f"hessian_identities{h0}{h}": (lambda h0=h0, h=h: _hessian(h0, h), n)
       for (h0, h), n in zip(HESSIAN_CASES, (2, 6, 3, 6, 6, 6))},
    "graph_charts": (lambda: _charts(cg.graph_equation, "x y z w r s", cg.GRAPH_CHARTS), 8),
    "f2_charts": (lambda: _charts(toric.f2_form, "x0 x1 x2 y0 y1", toric.F2_CHARTS), 6),
    "f2_euler": (_f2_euler, 2),
}


@pytest.mark.parametrize("case", CASES)
def test_identities_hold_over_sympy(case):
    build, count = CASES[case]
    identities = list(build())
    assert len(identities) == count
    for difference, terms in identities:
        assert sympy.expand(difference - sum(q * r for r, q in terms)) == 0


def test_every_identity_function_is_listed():
    # the 94 identities behind the report, 2 of them the sl(2) chart Hessians, and
    # 27 Hessians at tests/test_lie.py's other cases: a new identity function joins the list
    src = Path(cg.__file__).parent
    defined = {name for path in src.glob("*.py")
               for name in re.findall(r"^def (\w+_identities)\(", path.read_text(), re.M)}
    listed = (*IDENTITIES, toric.f2_euler_identities, lie.hessian_identities)
    assert defined == {f.__name__ for f in listed}
    assert sum(count for _, count in CASES.values()) == 121


def test_the_unchanged_ring_certificate_fails_over_sympy():
    # the time-2 member minus its one possible scalar, 0, times the orbit residual
    (difference, terms), = cg.unchanged_ring_certificate(*_symbols(cg.unchanged_ring_certificate))
    assert sympy.expand(difference - sum(q * r for r, q in terms)) != 0


def test_the_euler_identities_fail_over_sympy_off_bidegree():
    # x0 y0 - x1 y1 has bidegree (1, 1): only the second identity fails
    identities = _f2_euler(lambda x0, x1, y0, y1: x0 * y0 - x1 * y1)
    assert [sympy.expand(difference) != 0 for difference, _ in identities] == [False, True]
