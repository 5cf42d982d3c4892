"""The int-backed exact kernel agrees with the Fraction-pair oracle."""

import operator
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import gaussian_oracle as oracle
from lgorbit.errors import StructureError
from lgorbit.gaussian import ExactMatrix, GaussianRational

# ints, integral and proper Fractions, and ints far beyond a float's precision
components = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-24, 24), st.integers(1, 6)),
    st.integers(-(10**24), 10**24),
)
small_components = st.sampled_from(
    [n for n in range(-3, 4)] + [Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3)]
)
pairs = st.tuples(components, components)


def both(re, im=0):
    return GaussianRational(re, im), oracle.GaussianRational(re, im)


def assert_same(new, old):
    assert type(new) is GaussianRational
    assert type(new.re) is Fraction and type(new.im) is Fraction
    assert (new.re, new.im) == (old.re, old.im)
    assert str(new) == str(old)


def outcome(fn, *args):
    """The value of fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the kernels must fail alike
        return type(exc)


OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


@settings(max_examples=300, deadline=None)
@given(x=pairs, y=pairs)
def test_binary_operators_match_the_oracle(x, y):
    nx, ox = both(*x)
    ny, oy = both(*y)
    for op in OPERATORS:
        new, old = outcome(op, nx, ny), outcome(op, ox, oy)
        if isinstance(old, type):
            assert new is old
        else:
            assert_same(new, old)


@settings(max_examples=300, deadline=None)
@given(x=pairs, scalar=components)
def test_mixed_int_and_fraction_operands_match_the_oracle(x, scalar):
    nx, ox = both(*x)
    for op in OPERATORS:
        for new, old in (
            (outcome(op, nx, scalar), outcome(op, ox, scalar)),
            (outcome(op, scalar, nx), outcome(op, scalar, ox)),
        ):
            if isinstance(old, type):
                assert new is old
            else:
                assert_same(new, old)
    assert (nx == scalar) == (ox == scalar)
    assert (scalar == nx) == (scalar == ox)


@settings(max_examples=200, deadline=None)
@given(x=st.tuples(small_components, small_components), exponent=st.integers(0, 6))
def test_power_conjugate_and_norm_match_the_oracle(x, exponent):
    nx, ox = both(*x)
    assert_same(nx ** exponent, ox ** exponent)
    assert_same(nx.conjugate(), ox.conjugate())
    assert_same(-nx, -ox)
    assert_same(nx * nx.conjugate(), ox * ox.conjugate())
    assert nx.is_zero() == ox.is_zero() and bool(nx) == bool(ox)


@settings(max_examples=300, deadline=None)
@given(x=pairs, y=pairs)
def test_equality_and_hash_match_the_oracle(x, y):
    nx, ox = both(*x)
    ny, oy = both(*y)
    assert (nx == ny) == (ox == oy)
    assert (nx != ny) == (ox != oy)
    assert hash(nx) == hash(ox)
    if not x[1]:
        assert nx == x[0] and hash(nx) == hash(x[0])


@settings(max_examples=300, deadline=None)
@given(x=pairs)
def test_str_parse_repr_and_complex_match_the_oracle(x):
    nx, ox = both(*x)
    assert str(nx) == str(ox)
    assert repr(nx) == repr(ox)
    assert GaussianRational.parse(str(nx)) == nx
    assert_same(GaussianRational.parse(str(nx)), oracle.GaussianRational.parse(str(ox)))
    assert outcome(complex, nx) == outcome(complex, ox)


entry_pairs = st.tuples(small_components, small_components)


def matrix_pair(rows):
    new = ExactMatrix([[GaussianRational(re, im) for re, im in row] for row in rows])
    old = oracle.ExactMatrix(
        [[oracle.GaussianRational(re, im) for re, im in row] for row in rows]
    )
    return new, old


def assert_same_matrix(new, old):
    assert type(new) is ExactMatrix
    assert (new.rows, new.cols) == (old.rows, old.cols)
    for new_row, old_row in zip(new.entries, old.entries):
        for n, o in zip(new_row, old_row):
            assert_same(n, o)


def grid(rows, cols):
    return st.lists(
        st.lists(entry_pairs, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def factor_pairs(draw):
    """Rows of an n x k and a k x m matrix, with n, k, m in 1..4."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(grid(n, k)), draw(grid(k, m))


@settings(max_examples=150, deadline=None)
@given(factors=factor_pairs())
def test_matrix_algebra_matches_the_oracle(factors):
    a, oa = matrix_pair(factors[0])
    b, ob = matrix_pair(factors[1])
    assert_same_matrix(a * b, oa * ob)
    assert a.rank() == oa.rank()
    if a.rows == a.cols:
        assert_same(a.det(), oa.det())
        new, old = outcome(ExactMatrix.inverse, a), outcome(oracle.ExactMatrix.inverse, oa)
        if old is StructureError:
            assert new is StructureError
            assert a.det() == 0
        else:
            assert_same_matrix(new, old)

