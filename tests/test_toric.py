"""Hirzebruch surfaces: intersection theory, line-bundle cohomology, hypersurface."""

import itertools

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lgorbit.errors import PreconditionError, StructureError
from lgorbit.poly import certify, certify_charts, variables
from lgorbit.toric import (
    F2_CHARTS,
    HirzebruchFan,
    PicClass,
    ToricDivisor,
    canonical_class,
    cohomology_dims,
    divisor_to_pic,
    ext_dims,
    euler_characteristic,
    euler_characteristic_identities,
    f2_equation,
    f2_euler_identities,
    f2_form,
    f2_variables,
    gram,
    intersection,
    pic_to_divisor,
    verify_divisor_convention,
    verify_f2_hypersurface,
    _box_sum,
)

import toric_oracle

F0 = HirzebruchFan(0)
F1 = HirzebruchFan(1)
F2 = HirzebruchFan(2)

O = PicClass(0, 0)
E = PicClass(1, 0)
F = PicClass(0, 1)


def test_fan_rejects_bad_parameter():
    with pytest.raises(StructureError):
        HirzebruchFan(-1)
    with pytest.raises(StructureError):
        HirzebruchFan("2")


def test_fan_smoothness():
    for fan in (F0, F1, F2):
        for i, j in fan.cones:
            u, v = fan.rays[i], fan.rays[j]
            assert u[0] * v[1] - u[1] * v[0] == 1


def test_self_intersections_from_wall_relations():
    # the fiber rays square to zero; the section pair squares to -a and +a
    for fan in (F0, F1, F2):
        squares = sorted(fan.ray_self_intersection(i) for i in range(4))
        assert squares == sorted([0, 0, -fan.a, fan.a])


def test_divisor_convention():
    for a in range(4):
        assert verify_divisor_convention(HirzebruchFan(a))


def test_pic_divisor_roundtrip():
    for c in (O, E, F, PicClass(3, -2), PicClass(-1, 5)):
        assert divisor_to_pic(F2, pic_to_divisor(F2, c)) == c


def test_divisor_needs_four_integers():
    with pytest.raises(StructureError):
        ToricDivisor((1, 2, 3))


def test_intersection_numbers():
    for a in range(4):
        assert intersection(E, E, a) == -a
        assert intersection(E, F, a) == 1
        assert intersection(F, F, a) == 0
        k = canonical_class(a)
        assert intersection(k, k, a) == 8


def test_euler_rr_structure_sheaf():
    for a in range(4):
        assert euler_characteristic(O.p, O.q, a) == 1


def test_euler_characteristic_is_riemann_roch_over_symbols():
    assert certify(euler_characteristic_identities) is None


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 20))
def test_euler_characteristic_stays_an_integer(p, q, a):
    chi = euler_characteristic(p, q, a)
    d = PicClass(p, q)
    assert type(chi) is int
    assert 2 * chi == 2 + intersection(d, d - canonical_class(a), a)


def test_gram_rows_follow_the_first_argument():
    assert gram("xy", lambda s, t: s + t) == (("xx", "xy"), ("yx", "yy"))
    assert gram((), lambda s, t: 1) == ()


def test_structure_sheaf_cohomology():
    assert cohomology_dims(F2, pic_to_divisor(F2, O)).triple == (1, 0, 0)


def test_negative_section_cohomology_on_f2():
    assert cohomology_dims(F2, pic_to_divisor(F2, E)).triple == (1, 1, 0)
    assert cohomology_dims(F2, pic_to_divisor(F2, -E)).triple == (0, 0, 0)


def test_fiber_class_sections():
    for q in range(4):
        got = cohomology_dims(F2, pic_to_divisor(F2, PicClass(0, q)))
        assert got.triple == (q + 1, 0, 0)


def test_f0_kunneth_oracle():
    # on the product of two lines h^0(p,q) factors as (p+1)(q+1)
    for p in range(3):
        for q in range(3):
            got = cohomology_dims(F0, pic_to_divisor(F0, PicClass(p, q)))
            assert got.h0 == (p + 1) * (q + 1)
            assert got.h1 == 0


def test_ext_table_frozen_values():
    n = PicClass(-1, 0)
    assert ext_dims(F2, O, O).triple == (1, 0, 0)
    assert ext_dims(F2, n, n).triple == (1, 0, 0)
    assert ext_dims(F2, n, O).triple == (1, 1, 0)
    assert ext_dims(F2, O, n).triple == (0, 0, 0)


def test_riemann_roch_sweep():
    for fan in (F0, F1, F2):
        for p in range(-4, 5):
            for q in range(-4, 5):
                c = PicClass(p, q)
                got = cohomology_dims(fan, pic_to_divisor(fan, c))
                assert got.euler == euler_characteristic(p, q, fan.a)


def test_serre_duality_sweep():
    for fan in (F1, F2):
        k = canonical_class(fan.a)
        for p in range(-2, 3):
            for q in range(-2, 3):
                c = PicClass(p, q)
                d = cohomology_dims(fan, pic_to_divisor(fan, c))
                s = cohomology_dims(fan, pic_to_divisor(fan, k - c))
                assert d.triple == (s.h2, s.h1, s.h0)


def test_wide_riemann_roch_and_serre_sweep():
    for a in range(11):
        fan = HirzebruchFan(a)
        k = canonical_class(a)
        for p in range(-10, 11):
            for q in range(-10, 11):
                c = PicClass(p, q)
                d = cohomology_dims(fan, pic_to_divisor(fan, c))
                s = cohomology_dims(fan, pic_to_divisor(fan, k - c))
                assert d.euler == euler_characteristic(p, q, a)
                assert d.triple == (s.h2, s.h1, s.h0)


def test_pattern_cohomology_table():
    # the closed form in _box_sum rests on this: every nonzero pattern has
    # bits[1] == bits[3], and bits[0] == bits[2] picks the degree
    nonzero = {
        (True, True, True, True): (1, 0, 0),
        (False, False, False, False): (0, 0, 1),
        (True, False, True, False): (0, 1, 0),
        (False, True, False, True): (0, 1, 0),
    }
    for bits in itertools.product((False, True), repeat=4):
        assert toric_oracle.pattern_cohomology(bits) == nonzero.get(bits, (0, 0, 0))


@settings(max_examples=300, deadline=None)
@given(
    a=st.integers(0, 10),
    coeffs=st.tuples(*[st.integers(-12, 12)] * 4),
    half_width=st.integers(0, 60),
)
@example(a=2, coeffs=(0, 0, 0, 5), half_width=6)
@example(a=2, coeffs=(0, 0, 0, 5), half_width=25)
def test_box_sum_matches_character_oracle(a, coeffs, half_width):
    fan, d = HirzebruchFan(a), ToricDivisor(coeffs)
    assert _box_sum(a, coeffs, half_width) == toric_oracle.box_sum(fan, d, half_width)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(0, 10), coeffs=st.tuples(*[st.integers(-12, 12)] * 4))
# the unscaled box |a_rho| + 1 = 6 misses characters of 5*D4 on a = 2
@example(a=2, coeffs=(0, 0, 0, 5))
def test_base_box_holds_every_contributing_character(a, coeffs):
    # margin 0 sums at the base half-width alone; the oracle scans a box twice
    # as wide, so a contributing character outside the base would show
    fan, d = HirzebruchFan(a), ToricDivisor(coeffs)
    base = (1 + a) * (sum(abs(c) for c in coeffs) + 1)
    got = cohomology_dims(fan, d, box_margin=0).triple
    assert got == toric_oracle.box_sum(fan, d, 2 * base)


def test_box_margin_stability():
    c = PicClass(2, -3)
    a = cohomology_dims(F2, pic_to_divisor(F2, c), box_margin=1)
    b = cohomology_dims(F2, pic_to_divisor(F2, c), box_margin=3)
    assert a.triple == b.triple


def test_box_margin_must_be_nonnegative():
    with pytest.raises(PreconditionError):
        cohomology_dims(F2, pic_to_divisor(F2, O), box_margin=-1)


def test_hypersurface_certificates():
    assert len(F2_CHARTS) == 6
    assert verify_f2_hypersurface()
    assert verify_f2_hypersurface(f2_equation())


def _euler(f):
    """Whether f2_euler_identities certify f, with its formal partials."""
    partials = [f.partial(name) for name in f.variables]
    return certify(f2_euler_identities(f, partials, *f2_variables())) is None


def test_hypersurface_controls():
    x0, x1, _, y0, y1 = f2_variables()
    monomial = x0 * y0 * y0
    assert not verify_f2_hypersurface(monomial)
    wrong_bidegree = x0 * y0 - x1 * y1
    assert not verify_f2_hypersurface(wrong_bidegree)
    shared_root = x0 * y0 * y0 + x1 * y0 * y1
    assert not verify_f2_hypersurface(shared_root)


def test_the_euler_identities_decide_the_bidegree():
    x0, x1, x2, y0, y1 = f2_variables()
    assert _euler(f2_equation()) and _euler(x2 * y0 * y1 - x1 * y1 * y1)
    # bidegrees (1, 1), (2, 2), (0, 2) and a sum of (1, 2) and (1, 1)
    for f in (x0 * y0 - x1 * y1, x0 * x1 * y0 * y0, y0 * y1, f2_equation() + x2 * y1):
        assert not _euler(f)
    # only the bidegree stage rejects x0 y0 - x1 y1: every chart certificate holds
    assert certify_charts(x0 * y0 - x1 * y1, F2_CHARTS) is None
    # the zero form has every bidegree and fails the charts
    zero = f2_equation() * 0
    assert _euler(zero) and not verify_f2_hypersurface(zero)


@pytest.mark.parametrize("names", ["x0 x1 y0 y1", "x0 x1 x2 y0 y1 t", "y0 y1 x0 x1 x2"])
def test_the_hypersurface_needs_the_plane_and_line_variables(names):
    v = dict(zip(names.split(), variables(names)))
    with pytest.raises(PreconditionError, match="x0, x1, x2, y0, y1"):
        verify_f2_hypersurface(f2_form(v["x0"], v["x1"], v["y0"], v["y1"]))


def _sympy_factor_multiplicities(f):
    symbols = sympy.symbols(f.variables)
    expr = sympy.Integer(0)
    for exps, c in f.terms.items():
        term = sympy.Rational(c)
        for symbol, e in zip(symbols, exps):
            term *= symbol**e
        expr += term
    _, factors = sympy.factor_list(expr, *symbols, gaussian=True)
    return [multiplicity for _, multiplicity in factors]


def test_f2_equation_is_irreducible_by_the_sympy_oracle():
    assert _sympy_factor_multiplicities(f2_equation()) == [1]
    x0, x1, _, y0, y1 = f2_variables()
    # the oracle does see the controls' factors
    assert len(_sympy_factor_multiplicities(x0 * y0 * y0 + x1 * y0 * y1)) == 2
    assert sorted(_sympy_factor_multiplicities(x0 * y0 * y0)) == [1, 2]


small_rational = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def _binary_forms(degree):
    """Monomials of the given degree in y0, y1."""
    *_, y0, y1 = f2_variables()
    return [y0**k * y1**(degree - k) for k in range(degree + 1)]


@st.composite
def reducible_products(draw):
    """g*h with g of bidegree (1, b) and h of bidegree (0, 2 - b), b in {0, 1}."""
    *xs, _, _ = f2_variables()

    def combination(monomials):
        n = len(monomials)
        coeffs = draw(st.lists(small_rational, min_size=n, max_size=n))
        return sum((c * m for c, m in zip(coeffs, monomials)), xs[0] * 0)

    b = draw(st.sampled_from([0, 1]))
    g = combination([x * m for x in xs for m in _binary_forms(b)])
    h = combination(_binary_forms(2 - b))
    return g * h


@given(reducible_products())
@settings(max_examples=150, deadline=None)
def test_every_reducible_product_fails_the_smoothness_certificates(f):
    # a factor in y alone has a root, where f and all its partials vanish
    assume(f != f * 0)
    assert _euler(f)
    assert not verify_f2_hypersurface(f)
