"""Polynomial layer, with sympy as an independent oracle."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussian_oracle
from lgorbit import compactification as cg
from lgorbit import poly, symplectic
from lgorbit.errors import DiagnosticError, StructureError
from lgorbit.poly import MultiHomPoly, certify, certify_charts, modulo_i, variables
from negative_controls import _hermitian_first_generator

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
    point = {"x": 2, "y": Fraction(-1, 3), "z": Fraction(1, 2), "w": 3}
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
    # the variable i is the imaginary unit
    syms = {n: sympy.I if n == "i" else sympy.Symbol(n) for n in p.variables}
    total = sympy.Integer(0)
    for exps, c in p.terms.items():
        term = sympy.Rational(c)
        for name, e in zip(p.variables, exps):
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
        assert all(coeff and type(coeff) in (int, Fraction) for coeff in r.terms.values())


def test_substitute_and_partial_commute_on_disjoint_names():
    p = (v("x") + v("z")) * (v("y") + v("w"))
    sub = {"z": const(0)}
    assert p.substitute(sub).partial("x") == p.partial("x").substitute(sub)


def test_substitute_scalar_coercion():
    p = v("x") * v("z")
    q = p.substitute({"x": 2})
    assert q == v("z") * 2
    assert p.substitute({"x": Fraction(1, 2), "z": 4}) == const(2)


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


@pytest.mark.parametrize("coeff", [0.5, 1j, True, gaussian_oracle.GaussianRational(0, 1)])
def test_coefficients_are_ints_or_fractions(coeff):
    # a float, a complex, a bool and a Gaussian scalar are refused; i is a variable
    with pytest.raises(StructureError, match="not an int or a Fraction"):
        MultiHomPoly(NAMES, {(0, 0, 0, 0): coeff})
    if not isinstance(coeff, bool):
        with pytest.raises(TypeError):
            v("x") * coeff
        with pytest.raises(TypeError):
            v("x") + coeff


def test_integral_fractions_compare_as_their_ints():
    # no normaliser: a Fraction with denominator 1 equals and hashes as its int
    half = v("x") * Fraction(1, 2)
    assert half * 2 == v("x") and half + half == v("x")
    assert MultiHomPoly(NAMES, {(1, 0, 0, 0): Fraction(4, 2)}) == v("x") * 2
    assert {hash(c) for c in (half * 2).terms.values()} == {hash(1)}


def test_modulo_i_reduces_each_power_of_i():
    x, i = variables("x i")
    one = MultiHomPoly.constant(x.variables, 1)
    assert [modulo_i(i ** e) for e in range(6)] == [one, i, -one, -i, one, i]
    assert modulo_i(x * i * i * 3 + x * 3) == x * 0
    # i need not be the last variable
    j, y = variables("i y")
    assert modulo_i(y * j ** 3 + j * j) == -(y * j) - 1
    # a difference that is no polynomial, or one without i, is left as it is
    for f in (-1, 0, v("x") * v("x") + 1):
        assert modulo_i(f) is f


small_exponent = st.integers(min_value=0, max_value=5)


@st.composite
def polys_in_i(draw):
    """Sums of c x^a y^b i^e on the tuple (x, y, i), with e up to 5."""
    x, y, i = variables("x y i")
    p = x * 0
    for c, a, b, e in draw(st.lists(st.tuples(small_coeff, small_exponent, small_exponent,
                                              small_exponent), max_size=5)):
        p = p + c * x ** a * y ** b * i ** e
    return p


@given(polys_in_i(), polys_in_i())
@settings(max_examples=60, deadline=None)
def test_modulo_i_is_the_value_at_the_imaginary_unit(p, q):
    # sympy reads i as I: the normal form keeps the value, has degree at most 1
    # in i, and is a ring map to the polynomials over the Gaussian rationals
    for f in (p, q, p * q, p - q):
        reduced = modulo_i(f)
        assert _to_sympy(reduced) == _to_sympy(f)
        assert all(key[2] < 2 for key in reduced.terms)
        assert modulo_i(reduced) == reduced
    assert modulo_i(p * q) == modulo_i(modulo_i(p) * modulo_i(q))


@given(polys_in_i(), polys_in_i())
@settings(max_examples=60, deadline=None)
def test_conjugate_substitutes_minus_i(p, q):
    i = variables("x y i")[2]
    assert p.conjugate() == p.substitute({"i": -i})
    assert p.conjugate().conjugate() == p
    assert (p * q).conjugate() == p.conjugate() * q.conjugate()
    # over sympy, with x and y real, it is complex conjugation
    real = {sympy.Symbol(n): sympy.Symbol(n, real=True) for n in "xy"}
    conjugated = sympy.conjugate(_to_sympy(p).subs(real))
    assert sympy.expand(_to_sympy(p.conjugate()).subs(real) - conjugated) == 0


def test_conjugate_without_i_reads_every_variable_as_real():
    p = v("x") * v("y") - Fraction(1, 2)
    assert p.conjugate() is p


def test_certify_reduces_modulo_i_squared_plus_one():
    x, i = variables("x i")
    assert certify([(i * i + 1, ()), (i ** 3 + i, ()), (x * i ** 4 - x, ())]) is None
    assert certify([(i * i + 1, ()), (i * i - 1, ())]) == 1
    # only the variable named i is the imaginary unit
    _, j = variables("x j")
    assert certify([(j * j + 1, ())]) == 0


# the identity functions in i, with their names, and where each fails when
# certify keeps i^2 as it is
IDENTITIES_IN_I = [
    (symplectic.taming_identities, "p0 q0 p1 q1 p2 q2 i", 1),
    (symplectic.thimble_identities, "lam c a b i", 0),
    (cg.sphere_off_infinity_identities, "p q r x y z i", 0),
    (symplectic.sphere_lagrangian_identities, "p q r i", None),
    (symplectic.sphere_frame_identities, "p q r i", 10),
]


@pytest.mark.parametrize("identities, names, position", IDENTITIES_IN_I,
                         ids=[f.__name__ for f, *_ in IDENTITIES_IN_I])
def test_identities_in_i_need_the_reduction(monkeypatch, identities, names, position):
    assert certify(identities(*variables(names))) is None
    monkeypatch.setattr(poly, "modulo_i", lambda f: f)
    assert certify(identities(*variables(names))) == position


def test_sphere_identities_fail_for_a_hermitian_generator_with_or_without_the_reduction(
        monkeypatch):
    # h - conj(h) cancels in Z[p, q, r, i] without i^2 = -1, so the reduction
    # does not carry these identities; a Hermitian generator still fails them
    monkeypatch.setattr(symplectic, "su2_basis", _hermitian_first_generator)
    symbols = variables("p q r i")
    assert certify(symplectic.sphere_lagrangian_identities(*symbols)) == 0
    monkeypatch.setattr(poly, "modulo_i", lambda f: f)
    assert certify(symplectic.sphere_lagrangian_identities(*symbols)) == 0
