"""Polynomial layer, with sympy as an independent oracle."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lgorbit.errors import DiagnosticError, StructureError
from lgorbit.gaussian import GaussianRational
from lgorbit.poly import MultiHomPoly, certify, certify_charts, variables

NAMES = ("x", "y", "z", "w")


def v(name):
    return MultiHomPoly.variable(NAMES, name)


def const(c):
    return MultiHomPoly.constant(NAMES, c)


small_coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def polys(draw):
    terms = draw(st.lists(
        st.tuples(st.lists(st.sampled_from(NAMES), max_size=3), small_coeff),
        max_size=4,
    ))
    p = const(0)
    for factors, c in terms:
        t = const(c)
        for name in factors:
            t = t * v(name)
        p = p + t
    return p


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + const(0) == p
    assert p * const(1) == p
    assert p - p == const(0)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_evaluation_is_ring_map(p, q):
    # substituting a value for every variable leaves a constant
    point = {"x": GaussianRational(2), "y": GaussianRational(-1, 1),
             "z": GaussianRational(Fraction(1, 2)), "w": GaussianRational(3)}
    assert (p + q).substitute(point) == p.substitute(point) + q.substitute(point)
    assert (p * q).substitute(point) == p.substitute(point) * q.substitute(point)
    assert all(not any(key) for key in (p * q).substitute(point).terms)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_partial_leibniz(p, q):
    for name in ("x", "z"):
        lhs = (p * q).partial(name)
        rhs = p.partial(name) * q + p * q.partial(name)
        assert lhs == rhs


def _to_sympy(p):
    syms = {n: sympy.Symbol(n) for n in NAMES}
    total = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im)
        for name, e in zip(NAMES, exps):
            term *= syms[name] ** e
        total += term
    return sympy.expand(total)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_product_matches_sympy(p, q):
    assert _to_sympy(p * q) == sympy.expand(_to_sympy(p) * _to_sympy(q))


@given(polys())
@settings(max_examples=40, deadline=None)
def test_partial_matches_sympy(p):
    assert _to_sympy(p.partial("y")) == sympy.diff(_to_sympy(p), sympy.Symbol("y"))


@given(polys(), polys(), small_coeff, st.sampled_from(["x", "y", "z", "w"]))
@settings(max_examples=60, deadline=None)
def test_arithmetic_results_pass_the_public_constructor(p, q, c, name):
    results = [
        p + q, p - q, p * q, -p, p * c, c * p, p + c, p - c, c - p, p ** 2,
        p.partial(name), p.substitute({name: q}),
    ]
    for r in results:
        fresh = MultiHomPoly(r.variables, r.terms)
        assert r == fresh
        assert not any(coeff.is_zero() for coeff in r.terms.values())


def test_substitute_and_partial_commute_on_disjoint_names():
    p = (v("x") + v("z")) * (v("y") + v("w"))
    sub = {"z": const(0)}
    assert p.substitute(sub).partial("x") == p.partial("x").substitute(sub)


def test_substitute_scalar_coercion():
    p = v("x") * v("z")
    q = p.substitute({"x": 2})
    assert q == v("z") * 2
    assert p.substitute({"x": Fraction(1, 2), "z": GaussianRational(4)}) == const(2)


def test_substitute_rejects_an_unknown_variable():
    with pytest.raises(StructureError, match="unknown variable 'q'"):
        (v("x") + v("w")).substitute({"q": 1})


def test_scalar_ops_accept_fraction():
    p = v("x") + v("y")
    assert p * Fraction(1, 2) + p * Fraction(1, 2) == p
    assert p + Fraction(0) == p


def test_variables_share_one_tuple():
    x, lam = variables("x lam")
    assert x.variables == lam.variables == ("x", "lam")
    assert (x * lam).substitute({"x": 2, "lam": 3}) == MultiHomPoly.constant(x.variables, 6)


@pytest.mark.parametrize("names, message", [
    ((), "at least one variable"),
    (("x", "y", "x"), "must be distinct"),
])
def test_the_constructor_rejects_an_empty_or_repeated_tuple(names, message):
    with pytest.raises(StructureError, match=message):
        MultiHomPoly(names)


@pytest.mark.parametrize("names", ["", "   "])
def test_variables_rejects_a_blank_string(names):
    with pytest.raises(StructureError, match="at least one variable"):
        variables(names)


def test_arithmetic_needs_one_variable_tuple():
    x, _ = variables("x y")
    # a shorter tuple, and the same names in another order
    for other in (variables("x")[0], variables("y x")[1]):
        assert x != other
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
                   lambda a, b: a.substitute({"x": b})):
            with pytest.raises(StructureError, match="variable mismatch"):
                op(x, other)


def test_certify_gives_the_position_of_the_first_failing_identity():
    x, y = variables("x y")
    cube = (x * x * x - x, ((x * x - 1, x),))  # x^3 - x = x (x^2 - 1)
    assert certify([cube, (x - x, ())]) is None
    assert certify([cube, (y, ()), (x, ())]) == 1
    assert certify([(x * x * x - x, ((x * x - 1, y),))]) == 0
    # relations and cofactors add up: x y - 1 = 1 (x - 1) y + y - 1
    assert certify([(x * y - 1, ((x - 1, y), (y - 1, 1)))]) is None


def test_certify_rejects_a_certificate_with_no_identity():
    with pytest.raises(DiagnosticError, match="no identity"):
        certify([])
    with pytest.raises(DiagnosticError, match="no identity"):
        certify_charts(v("x") * v("z"), {})
