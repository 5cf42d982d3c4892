"""Exact Gaussian rational scalars and matrices."""

from fractions import Fraction

import pytest

from lgorbit.errors import StructureError
from lgorbit.gaussian import ONE, ZERO, ExactMatrix, GaussianRational

I = GaussianRational(0, 1)


def test_basic_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussianRational(2, -1)
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(-1, 4))
    assert a - b == GaussianRational(Fraction(-3, 2), Fraction(7, 4))
    assert a * b == GaussianRational(Fraction(7, 4), 1)
    assert (a * b) / b == a
    assert -a + a == ZERO


def test_i_squares_to_minus_one():
    assert I * I == GaussianRational(-1)
    assert I ** 4 == ONE
    assert I ** 3 == -I


def test_mixed_scalar_coercion():
    a = GaussianRational(1, 1)
    assert 2 * a == GaussianRational(2, 2)
    assert a + Fraction(1, 3) == GaussianRational(Fraction(4, 3), 1)
    assert 1 - a == GaussianRational(0, -1)
    assert Fraction(1, 2) / GaussianRational(0, 1) == GaussianRational(0, Fraction(-1, 2))


def test_conjugate_and_norm():
    a = GaussianRational(Fraction(3, 5), Fraction(-4, 5))
    assert a.conjugate() == GaussianRational(Fraction(3, 5), Fraction(4, 5))
    assert a * a.conjugate() == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_pow_requires_nonnegative_integer_exponent():
    with pytest.raises(StructureError):
        ONE ** 0.5
    with pytest.raises(StructureError):
        I ** -1


def test_complex_conversion():
    assert complex(GaussianRational(Fraction(1, 2), 3)) == 0.5 + 3j


def test_matrix_constructors_and_indexing():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert m[0, 1] == GaussianRational(2)
    assert ExactMatrix.identity(2) == ExactMatrix.diagonal([1, 1])


def test_matrix_ragged_rows_rejected():
    with pytest.raises(StructureError):
        ExactMatrix([[1, 2], [3]])


def test_matrix_product_and_trace():
    a = ExactMatrix([[1, 1], [0, 1]])
    b = ExactMatrix([[1, 0], [1, 1]])
    assert (a * b) == ExactMatrix([[2, 1], [1, 1]])
    assert (b * a) == ExactMatrix([[1, 1], [1, 2]])
    product = a * b
    assert product[0, 0] + product[1, 1] == GaussianRational(3)


def test_matrix_shape_mismatch():
    a = ExactMatrix([[1, 2]])
    with pytest.raises(StructureError):
        a * ExactMatrix([[1, 2]])
    with pytest.raises(StructureError):
        a + ExactMatrix([[1], [2]])


def test_det_rank_inverse():
    m = ExactMatrix([[2, 1], [1, 1]])
    assert m.det() == ONE
    assert m.rank() == 2
    assert m.inverse() * m == ExactMatrix.identity(2)
    assert m * m.inverse() == ExactMatrix.identity(2)


def test_det_with_gaussian_entries():
    m = ExactMatrix([[I, 1], [1, I]])
    # det = i*i - 1 = -2
    assert m.det() == GaussianRational(-2)
    assert ExactMatrix.diagonal([-2, -2]) * m.inverse() == ExactMatrix([[I, -ONE], [-ONE, I]])


def test_singular_matrix():
    s = ExactMatrix([[1, 2], [2, 4]])
    assert s.rank() == 1
    assert s.det() == ZERO
    with pytest.raises(StructureError, match="matrix is singular"):
        s.inverse()


def test_rank_rectangular():
    m = ExactMatrix([[1, 0, 1], [0, 1, 1], [1, 1, 2]])
    assert m.rank() == 2


# ----------------------------------------------- the type contract of the kernel


def test_public_components_are_fractions():
    for value in (GaussianRational(3, -2), GaussianRational(Fraction(1, 2), 0), ZERO, I):
        assert type(value.re) is Fraction
        assert type(value.im) is Fraction


def test_integer_division_stays_exact():
    assert GaussianRational(1) / 3 == GaussianRational(Fraction(1, 3))
    assert GaussianRational(6, -4) / 2 == GaussianRational(3, -2)
    assert 1 / GaussianRational(3) == GaussianRational(Fraction(1, 3))
    assert GaussianRational(1) / GaussianRational(1, 1) == GaussianRational(
        Fraction(1, 2), Fraction(-1, 2)
    )


def test_inverse_of_an_integer_matrix_is_exact():
    inverse = ExactMatrix([[2, 1], [1, 2]]).inverse()
    third = Fraction(1, 3)
    assert inverse == ExactMatrix([[2 * third, -third], [-third, 2 * third]])
    for row in inverse.entries:
        for e in row:
            assert type(e.re) is Fraction and type(e.im) is Fraction


def test_integral_values_compare_and_hash_as_integers():
    assert GaussianRational(Fraction(4, 2)) == 2
    assert GaussianRational(Fraction(4, 2)) == GaussianRational(2)
    assert hash(GaussianRational(2)) == hash(2) == hash(Fraction(2))
    assert hash(GaussianRational(Fraction(4, 2))) == hash(2)
    assert hash(GaussianRational(Fraction(1, 2), 3)) == hash((Fraction(1, 2), Fraction(3)))


def test_integral_components_are_stored_as_int():
    # the kernel's speed rests on integral parts staying machine integers
    for value in (
        GaussianRational(Fraction(4, 2), Fraction(-3, 1)),
        GaussianRational(Fraction(1, 2)) * 2,
        GaussianRational(Fraction(1, 3), Fraction(2, 3)) + GaussianRational(
            Fraction(2, 3), Fraction(1, 3)
        ),
        (ExactMatrix([[Fraction(1, 2)]]) * ExactMatrix([[4]]))[0, 0],
    ):
        assert type(value._re) is int and type(value._im) is int


def test_non_exact_operands_are_rejected():
    with pytest.raises(TypeError):
        GaussianRational(1) + 0.5
    with pytest.raises(TypeError):
        GaussianRational(1) * 1j
    assert GaussianRational(1) != 1.0
    with pytest.raises(StructureError):
        ExactMatrix([[0.5]])
