"""Gaussian rationals as polynomials in i modulo i^2 + 1, and rational matrices.

The library has one coefficient field: a Gaussian rational re + im i is the
polynomial re + im * i on the variable i, read modulo i^2 + 1 by
``poly.modulo_i``.  Matrices take int and Fraction entries only.
"""

from fractions import Fraction

import pytest

import gaussian_oracle as oracle
from lgorbit.errors import StructureError
from lgorbit.gaussian import ExactMatrix
from lgorbit.poly import MultiHomPoly, modulo_i, variables
from lgorbit.symplectic import su2_basis

(I,) = variables("i")


def gauss(re, im=0):
    """re + im i on the variable i."""
    return MultiHomPoly.constant(I.variables, re) + I * im


def test_basic_arithmetic():
    a = gauss(Fraction(1, 2), Fraction(3, 4))
    b = gauss(2, -1)
    assert a + b == gauss(Fraction(5, 2), Fraction(-1, 4))
    assert a - b == gauss(Fraction(-3, 2), Fraction(7, 4))
    assert modulo_i(a * b) == gauss(Fraction(7, 4), 1)
    assert -a + a == gauss(0)


def test_i_squares_to_minus_one():
    assert modulo_i(I * I) == gauss(-1)
    assert modulo_i(I * I * I * I) == gauss(1)
    assert modulo_i(I * I * I) == -I


def test_mixed_scalar_coercion():
    a = gauss(1, 1)
    assert 2 * a == gauss(2, 2)
    assert a + Fraction(1, 3) == gauss(Fraction(4, 3), 1)
    assert a - 1 == gauss(0, 1)
    assert 1 - a == gauss(0, -1)
    # no polynomial divides
    with pytest.raises(TypeError):
        Fraction(1, 2) / a


def test_conjugate_and_norm():
    a = gauss(Fraction(3, 5), Fraction(-4, 5))
    assert a.conjugate() == gauss(Fraction(3, 5), Fraction(4, 5))
    assert modulo_i(a * a.conjugate()) == gauss(1)


def test_division_by_zero():
    # polynomials have no division, and the elimination divides only by a
    # nonzero pivot; the oracle's scalars raise on zero
    with pytest.raises(TypeError):
        gauss(1) / gauss(1)
    with pytest.raises(StructureError, match="matrix is singular"):
        ExactMatrix([[0]]).inverse()
    with pytest.raises(ZeroDivisionError):
        oracle.ONE / oracle.ZERO


def test_pow_requires_nonnegative_integer_exponent():
    assert modulo_i(I ** 2) == gauss(-1)
    for exponent in (0.5, -1):
        with pytest.raises(StructureError):
            I ** exponent
    with pytest.raises(StructureError):
        oracle.ONE ** 0.5
    with pytest.raises(StructureError):
        oracle.GaussianRational(0, 1) ** -1


def test_complex_conversion():
    # the float sampler reads su(2) at 1j: the oracle's exact basis in floats
    exact = su2_basis(oracle.GaussianRational(0, 1))
    assert su2_basis(1j) == tuple(tuple(tuple(complex(e) for e in row) for row in a)
                                  for a in exact)
    assert complex(oracle.GaussianRational(Fraction(1, 2), 3)) == 0.5 + 3j


def test_matrix_constructors_and_indexing():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert m.entries[0][1] == 2
    assert ExactMatrix.identity(2) == ExactMatrix([[1, 0], [0, 1]])


def test_matrix_ragged_rows_rejected():
    with pytest.raises(StructureError):
        ExactMatrix([[1, 2], [3]])


@pytest.mark.parametrize("rows", [[], [[]]])
def test_matrix_needs_a_row_and_a_column(rows):
    with pytest.raises(StructureError, match="at least one row and one column"):
        ExactMatrix(rows)


def test_matrix_product_and_trace():
    a = ExactMatrix([[1, 1], [0, 1]])
    b = ExactMatrix([[1, 0], [1, 1]])
    assert (a * b) == ExactMatrix([[2, 1], [1, 1]])
    assert (b * a) == ExactMatrix([[1, 1], [1, 2]])
    product = a * b
    assert product.entries[0][0] + product.entries[1][1] == 3


def test_matrix_shape_mismatch():
    a = ExactMatrix([[1, 2]])
    with pytest.raises(StructureError):
        a * ExactMatrix([[1, 2]])
    with pytest.raises(StructureError):
        a + ExactMatrix([[1], [2]])
    with pytest.raises(StructureError):  # one dimension off is enough
        a + ExactMatrix([[1, 2, 3]])
    with pytest.raises(StructureError):
        ExactMatrix([[1], [2]]) + ExactMatrix([[1], [2], [3]])


def test_matrix_sum_is_entrywise():
    assert ExactMatrix([[1, 2]]) + ExactMatrix([[Fraction(1, 2), -2]]) == ExactMatrix(
        [[Fraction(3, 2), 0]]
    )


def test_det_rank_inverse():
    m = ExactMatrix([[2, 1], [1, 1]])
    assert m.det() == 1 and type(m.det()) is Fraction
    assert m.rank() == 2
    assert m.inverse() * m == ExactMatrix.identity(2)
    assert m * m.inverse() == ExactMatrix.identity(2)


def test_det_with_gaussian_entries():
    # the library's matrices are rational; the oracle's take Gaussian entries
    with pytest.raises(StructureError):
        ExactMatrix([[I, 1], [1, I]])
    i = oracle.GaussianRational(0, 1)
    m = oracle.ExactMatrix([[i, 1], [1, i]])
    # det = i*i - 1 = -2
    assert m.det() == oracle.GaussianRational(-2)
    assert oracle.ExactMatrix.diagonal([-2, -2]) * m.inverse() == oracle.ExactMatrix(
        [[i, -1], [-1, i]]
    )


def test_singular_matrix():
    s = ExactMatrix([[1, 2], [2, 4]])
    assert s.rank() == 1
    assert s.det() == 0 and type(s.det()) is Fraction
    with pytest.raises(StructureError, match="matrix is singular"):
        s.inverse()


def test_rank_rectangular():
    m = ExactMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert m.rank() == 2


# ----------------------------------------------- the type contract of the kernel


def test_public_components_are_fractions():
    # the components of re + im i are coefficients: ints, or Fractions when not integral
    for value in (gauss(3, -2), gauss(Fraction(1, 2), 0), gauss(0), I):
        assert all(type(c) in (int, Fraction) for c in value.terms.values())
    assert type(gauss(Fraction(1, 2), 1).terms[(0,)]) is Fraction


def test_integer_division_stays_exact():
    # the elimination divides ints by ints: Fractions, and ints where integral
    inverse = ExactMatrix([[3, 0], [0, -1]]).inverse()
    assert inverse.entries == ((Fraction(1, 3), 0), (0, -1))
    assert [type(e) for row in inverse.entries for e in row] == [Fraction, int, int, int]
    reduced, pivots, factor = ExactMatrix([[6, 4], [3, 2]]).echelon()
    assert (reduced, pivots, factor) == ([[1, Fraction(2, 3)], [0, 0]], [0], 6)
    assert [type(e) for row in reduced for e in row] == [int, Fraction, int, int]


def test_inverse_of_an_integer_matrix_is_exact():
    inverse = ExactMatrix([[2, 1], [1, 2]]).inverse()
    third = Fraction(1, 3)
    assert inverse == ExactMatrix([[2 * third, -third], [-third, 2 * third]])
    assert all(type(e) is Fraction for row in inverse.entries for e in row)


def test_integral_values_compare_and_hash_as_integers():
    # a Fraction coefficient with denominator 1 equals and hashes as its int
    assert gauss(Fraction(4, 2)) == gauss(2)
    assert gauss(Fraction(1, 2), 3) * 2 == gauss(1, 6)
    assert gauss(Fraction(4, 2)).terms == {(0,): 2}
    assert hash(Fraction(4, 2)) == hash(2)


def test_integral_components_are_stored_as_int():
    # the kernel's speed rests on integral entries staying machine integers
    assert type((ExactMatrix([[Fraction(1, 2)]]) * ExactMatrix([[4]])).entries[0][0]) is int
    assert type(ExactMatrix([[Fraction(4, 2)]]).entries[0][0]) is int


def test_non_exact_operands_are_rejected():
    with pytest.raises(TypeError):
        gauss(1) + 0.5
    with pytest.raises(TypeError):
        gauss(1) * 1j
    assert gauss(1) != 1.0
    with pytest.raises(StructureError):
        ExactMatrix([[0.5]])


@pytest.mark.parametrize("entry", [oracle.GaussianRational(0, 1), oracle.GaussianRational(1),
                                   True, 0.5])
def test_matrix_entries_are_ints_or_fractions(entry):
    # a Gaussian entry, even a real one, a bool and a float are all refused
    with pytest.raises(StructureError):
        ExactMatrix([[1, entry]])


def test_echelon_reads_rank_det_and_pivot_columns():
    m = ExactMatrix([[0, 2, 4], [1, 1, 1], [2, 4, 6]])
    reduced, pivots, factor = m.echelon()
    assert reduced == [[1, 0, -1], [0, 1, 2], [0, 0, 0]]
    assert pivots == [0, 1] and m.rank() == 2
    # one row swap and pivots 1 and 2: the factor is -2, but the matrix is singular
    assert factor == -2 and m.det() == 0
    swapped = ExactMatrix([[0, 1], [1, 0]])
    assert swapped.det() == -1 and swapped.echelon()[1] == [0, 1]
