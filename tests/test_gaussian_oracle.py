"""Gaussian arithmetic in i modulo i^2 + 1, and the rational matrices, agree
with the Fraction-pair oracle.

The oracle keeps the Gaussian rational scalars that polynomials in the
variable i replaced, with the division the library does not have, and the
Gaussian elimination the rational matrices replaced, so it stays the
reference for both.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import gaussian_oracle as oracle
from lgorbit.errors import StructureError
from lgorbit.gaussian import ExactMatrix
from lgorbit.poly import MultiHomPoly, modulo_i, variables

(I,) = variables("i")

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
    """re + im i on the variable i, and the oracle's scalar."""
    return MultiHomPoly.constant(I.variables, re) + I * im, oracle.GaussianRational(re, im)


def parts(f):
    """The real and imaginary parts of f modulo i^2 + 1."""
    terms = modulo_i(f).terms
    assert set(terms) <= {(0,), (1,)}
    assert all(type(c) in (int, Fraction) for c in terms.values())
    return terms.get((0,), 0), terms.get((1,), 0)


def assert_same(new, old):
    assert parts(new) == (old.re, old.im)


def outcome(fn, *args):
    """The value of fn(*args), or the type of the exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the kernels must fail alike
        return type(exc)


OPERATORS = (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b)


@settings(max_examples=300, deadline=None)
@given(x=pairs, y=pairs)
def test_binary_operators_match_the_oracle(x, y):
    nx, ox = both(*x)
    ny, oy = both(*y)
    for op in OPERATORS:
        assert_same(op(nx, ny), op(ox, oy))
    assert outcome(lambda: nx / ny) is TypeError


@settings(max_examples=300, deadline=None)
@given(x=pairs, scalar=components)
def test_mixed_int_and_fraction_operands_match_the_oracle(x, scalar):
    nx, ox = both(*x)
    for op in OPERATORS:
        assert_same(op(nx, scalar), op(ox, scalar))
        assert_same(op(scalar, nx), op(scalar, ox))
    assert outcome(lambda: scalar / nx) is TypeError
    assert outcome(lambda: nx / scalar) is TypeError


@settings(max_examples=200, deadline=None)
@given(x=st.tuples(small_components, small_components), exponent=st.integers(0, 6))
def test_power_conjugate_and_norm_match_the_oracle(x, exponent):
    nx, ox = both(*x)
    assert_same(nx ** exponent, ox ** exponent)
    assert_same(nx.conjugate(), ox.conjugate())
    assert_same(-nx, -ox)
    assert_same(nx * nx.conjugate(), ox * ox.conjugate())
    assert bool(modulo_i(nx)) == bool(ox)


@settings(max_examples=300, deadline=None)
@given(x=pairs, y=pairs)
def test_equality_and_hash_match_the_oracle(x, y):
    nx, ox = both(*x)
    ny, oy = both(*y)
    assert (modulo_i(nx) == modulo_i(ny)) == (ox == oy)
    assert (modulo_i(nx) != modulo_i(ny)) == (ox != oy)
    # a coefficient hashes as the oracle's component, so real values hash alike
    re, im = parts(nx)
    assert (hash(re), hash(im)) == (hash(ox.re), hash(ox.im))
    if not x[1]:
        assert hash(re) == hash(ox) == hash(x[0])


def matrix_pair(rows):
    return ExactMatrix(rows), oracle.ExactMatrix(rows)


def assert_same_entry(new, old):
    assert type(new) in (int, Fraction) and (type(new) is int) == (old.re.denominator == 1)
    assert new == old.re and not old.im


def assert_same_matrix(new, old):
    assert type(new) is ExactMatrix
    assert (new.rows, new.cols) == (old.rows, old.cols)
    for new_row, old_row in zip(new.entries, old.entries):
        for n, o in zip(new_row, old_row):
            assert_same_entry(n, o)


def grid(rows, cols):
    return st.lists(
        st.lists(small_components, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def factor_pairs(draw):
    """Rows of an n x k and a k x m rational matrix, with n, k, m in 1..4."""
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(grid(n, k)), draw(grid(k, m))


@settings(max_examples=150, deadline=None)
@given(factors=factor_pairs())
def test_matrix_algebra_matches_the_oracle(factors):
    a, oa = matrix_pair(factors[0])
    b, ob = matrix_pair(factors[1])
    assert_same_matrix(a * b, oa * ob)
    reduced, pivots, factor = a.echelon()
    old_reduced, old_rank, old_factor = oa._eliminated()
    for new_row, old_row in zip(reduced, old_reduced, strict=True):
        for n, o in zip(new_row, old_row, strict=True):
            assert_same_entry(n, o)
    assert pivots == [next(c for c, e in enumerate(row) if e) for row in old_reduced[:old_rank]]
    assert factor == old_factor.re and a.rank() == oa.rank() == old_rank
    if a.rows == a.cols:
        assert type(a.det()) is Fraction
        assert a.det() == oa.det().re
        new, old = outcome(ExactMatrix.inverse, a), outcome(oracle.ExactMatrix.inverse, oa)
        if old is StructureError:
            assert new is StructureError
            assert a.det() == 0
        else:
            assert_same_matrix(new, old)
