"""Critical sets, Morse counts, and exact orbit membership."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lie_oracle
from lgorbit import compactification as cg
from lgorbit import lie
from lgorbit.errors import PreconditionError, StructureError
from lgorbit.gaussian import ExactMatrix
from lgorbit.lie import (
    CartanDiagonal,
    bracket,
    critical_count,
    critical_points,
    diagonal,
    height,
    hessian_determinant,
    hessian_identities,
    hessian_matrix,
    sl2_critical_identities,
)
from lgorbit.poly import certify, product, variables
from lie_oracle import conjugate_exact, orbit_contains_exact, random_sl_integer
from negative_controls import _swapped_adjugate

H0_SL2 = CartanDiagonal((1, -1))
H_SL2 = CartanDiagonal((1, -1))


def test_cartan_regularity():
    assert H_SL2.regular
    assert CartanDiagonal((1, 1, -2)).regular is False
    assert CartanDiagonal((3, 1, -4)).regular


def test_cartan_must_be_traceless():
    with pytest.raises(StructureError):
        CartanDiagonal((1, 1))


def test_sl2_critical_set():
    pts = critical_points(H0_SL2, H_SL2)
    assert pts == {(Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(1))}
    assert certify(sl2_critical_identities) is None
    # at the orbit coordinates (x, 0, 0) of each critical diagonal every
    # difference and every relation of the certificate vanishes
    for d in pts:
        for difference, terms in sl2_critical_identities(d[0], 0, 0):
            assert difference == 0 and all(relation == 0 for relation, _ in terms)


def test_sl2_bracket_moves_an_off_diagonal_orbit_point():
    # (0, 1, 1) is on the orbit x^2 + yz = 1, and [X, H] = [[0, -2y], [2z, 0]] there
    x = ((0, 1), (1, 0))
    assert bracket(x, diagonal(H_SL2.diag)) == ((0, -2), (2, 0))


def test_sl2_critical_heights():
    heights = {height(H_SL2, diagonal(d)) for d in critical_points(H0_SL2, H_SL2)}
    assert heights == {Fraction(2), Fraction(-2)}


def test_critical_points_need_regular_height():
    with pytest.raises(PreconditionError):
        critical_points(CartanDiagonal((1, 1, -2)), CartanDiagonal((1, 1, -2)))


def enumerate_critical(h0, h):
    return len(critical_points(h0, h))


def test_counts_match_enumeration():
    h3_reg = CartanDiagonal((2, 1, -3))
    h3_deg = CartanDiagonal((1, 1, -2))
    h4_deg = CartanDiagonal((1, 1, -1, -1))
    h_reg3 = CartanDiagonal((3, -1, -2))
    h_reg4 = CartanDiagonal((5, 1, -2, -4))
    assert critical_count(h3_reg, h_reg3) == 6 == enumerate_critical(h3_reg, h_reg3)
    assert critical_count(h3_deg, h_reg3) == 3 == enumerate_critical(h3_deg, h_reg3)
    assert critical_count(h4_deg, h_reg4) == 6 == enumerate_critical(h4_deg, h_reg4)


def test_count_formula_is_orbit_size():
    # n! over the product of multiplicities counts distinct permutations
    h = CartanDiagonal((1, 1, -2))
    h_reg = CartanDiagonal((3, -1, -2))
    perms = {tuple(p) for p in itertools.permutations((1, 1, -2))}
    assert critical_count(h, h_reg) == len(perms) == 3


def test_hessian_nondegenerate_sl2():
    for point in critical_points(H0_SL2, H_SL2):
        # one root pair, entry (p_1 - p_0)(h_1 - h_0) = 4 off the diagonal
        assert hessian_determinant(H0_SL2, H_SL2, point) == -16


def test_hessian_entries_and_determinant_are_fractions():
    # exact rationals, never floats: ints for integral diagonals, and a
    # Fraction determinant once an entry is a half
    for h0, h, kind in (((2, 1, -3), (3, -1, -2), int),
                        ((Fraction(1, 2), Fraction(-1, 2)), (1, -1), Fraction)):
        h0, h = CartanDiagonal(h0), CartanDiagonal(h)
        for point in critical_points(h0, h):
            det = hessian_determinant(h0, h, point)
            assert type(det) is kind and det != 0
            for row in hessian_matrix(h0, h, point):
                assert all(type(e) in (int, Fraction) for e in row)


def test_conjugate_exact_inverts_integer_matrices_exactly():
    rng = random.Random(7)
    a = ExactMatrix([[3, 1, 0], [0, -1, 2], [1, 0, -2]])
    for _ in range(5):
        g = random_sl_integer(3, rng)
        assert g.inverse() * g == ExactMatrix.identity(3)
        assert lie_oracle.trace(conjugate_exact(g, a)) == lie_oracle.trace(a)


def test_hessian_nondegenerate_sl3():
    h0 = CartanDiagonal((2, 1, -3))
    h = CartanDiagonal((3, -1, -2))
    for point in critical_points(h0, h):
        assert hessian_determinant(h0, h, point) != 0


HESSIAN_CASES = [
    (H0_SL2, H_SL2),
    (CartanDiagonal((2, 1, -3)), CartanDiagonal((3, -1, -2))),
    (CartanDiagonal((1, 1, -2)), CartanDiagonal((3, -1, -2))),
    (CartanDiagonal((1, 0, -1)), CartanDiagonal((1, 0, -1))),
    (CartanDiagonal((1, 1, -1, -1)), CartanDiagonal((5, 1, -2, -4))),
    (CartanDiagonal((1, 1, -1, -1)), CartanDiagonal((3, 1, -1, -3))),
]


@pytest.mark.parametrize("h0, h", HESSIAN_CASES)
def test_closed_form_hessian_matches_finite_differences(h0, h):
    for point in critical_points(h0, h):
        exact = hessian_matrix(h0, h, point)
        approx = lie_oracle.expm_hessian_matrix(h0, h, point, step=1e-4)
        closed = np.array([[complex(e) for e in row] for row in exact])
        assert np.max(np.abs(closed - approx)) < 1e-6


@pytest.mark.parametrize("h0, h", HESSIAN_CASES)
def test_hessian_equals_the_closed_form(h0, h):
    # (p_j - p_i)(h_j - h_i) pairs E_ij with E_ji; every other entry is zero
    for point in critical_points(h0, h):
        directions = [
            (i, j) for i in range(h0.n) for j in range(h0.n) if i != j and point[i] != point[j]
        ]
        closed = [
            [
                (point[j] - point[i]) * (h.diag[j] - h.diag[i]) if (k, l) == (j, i) else 0
                for (k, l) in directions
            ]
            for (i, j) in directions
        ]
        assert hessian_matrix(h0, h, point) == tuple(map(tuple, closed))


@pytest.mark.parametrize("h0, h", HESSIAN_CASES)
def test_hessian_identity_certifies_the_matrix_and_elimination_agrees(h0, h):
    for point in critical_points(h0, h):
        u = variables(" ".join(f"u{a}" for a in range(len(hessian_matrix(h0, h, point)))))
        assert certify(hessian_identities(h0, h, point, *u)) is None
        assert ExactMatrix(hessian_matrix(h0, h, point)).det() == hessian_determinant(h0, h, point)


def test_a_non_regular_height_leaves_a_degenerate_hessian():
    # every diagonal point is critical for a diagonal H; H = diag(1, 1, -2) pairs
    # E_01 with E_10 by 0, so the Hessian is certified and singular
    h0, h = CartanDiagonal((2, 1, -3)), CartanDiagonal((1, 1, -2))
    u = variables(" ".join(f"u{a}" for a in range(6)))
    assert certify(hessian_identities(h0, h, (2, 1, -3), *u)) is None
    assert hessian_determinant(h0, h, (2, 1, -3)) == 0


def test_hessian_needs_a_diagonal_point_of_the_orbit():
    with pytest.raises(PreconditionError):
        hessian_matrix(H0_SL2, H_SL2, (2, -2))
    with pytest.raises(PreconditionError):
        hessian_matrix(H0_SL2, CartanDiagonal((1, 0, -1)), (1, -1))
    with pytest.raises(StructureError):  # one symbol per chart direction
        hessian_identities(H0_SL2, H_SL2, (1, -1), *variables("u"))


def test_sl2_charts_differ_by_the_linear_change_of_coordinates():
    # (y, z) = (-2a u, 2a v) to first order at diag(a, -a), so the exp chart's
    # determinant is (4 a^2)^2 times the orbit-equation chart's
    for point in critical_points(H0_SL2, H_SL2):
        a = point[0]
        chart_det = lie_oracle.hessian_determinant(H0_SL2, H_SL2, point, step=1e-4)
        expected = float(hessian_determinant(H0_SL2, H_SL2, point) / (16 * a**4))
        assert abs(chart_det - expected) < 1e-6


def test_gradient_vanishes_at_critical_points():
    for point in critical_points(H0_SL2, H_SL2):
        assert lie_oracle.gradient_norm(H0_SL2, H_SL2, point) < 1e-6


def test_gradient_norm_rejects_sl2_chart_gap():
    with pytest.raises(PreconditionError):
        lie_oracle.gradient_norm(H0_SL2, H_SL2, (Fraction(0), Fraction(1), Fraction(0)))


def test_orbit_membership_exact_positive():
    rng = random.Random(7)
    h0 = ExactMatrix([[1, 0], [0, -1]])
    for _ in range(20):
        g = random_sl_integer(2, rng)
        assert orbit_contains_exact(H0_SL2, conjugate_exact(g, h0))


def test_orbit_membership_exact_negative():
    assert not orbit_contains_exact(H0_SL2, ExactMatrix([[2, 0], [0, -2]]))
    # nilpotent: right trace, wrong characteristic polynomial
    nil = ExactMatrix([[0, 1], [0, 0]])
    assert not orbit_contains_exact(H0_SL2, nil)


def test_sl2_orbit_coordinates_roundtrip():
    rng = random.Random(3)
    h0 = ExactMatrix([[1, 0], [0, -1]])
    for _ in range(10):
        a = conjugate_exact(random_sl_integer(2, rng), h0)
        (x, y), (z, w) = a.entries
        assert w == -x and x * x + y * z == 1


def test_random_sl_integer_has_det_one():
    rng = random.Random(0)
    for n in (2, 3, 4):
        g = random_sl_integer(n, rng)
        assert g.det() == 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_seeded_conjugates_agree_with_the_membership_certificate(seed):
    g = random_sl_integer(2, random.Random(seed))
    (x, z), (y, w) = g.entries
    conjugate = conjugate_exact(g, ExactMatrix([[1, 0], [0, -1]]))
    assert orbit_contains_exact(H0_SL2, conjugate)
    # the certificate's matrix is this conjugate, and on det = 1 (R = 0) each
    # of its differences vanishes with its cofactor times R
    m = product(product(lie.group_matrix(x, y, z, w), diagonal((1, -1))), lie.adjugate(x, y, z, w))
    assert ExactMatrix(m) == conjugate
    for difference, ((relation, cofactor),) in lie.orbit_membership_identities(x, y, z, w):
        assert relation == 0
        assert difference == cofactor * relation == 0


def test_orbit_membership_certificate_fails_for_a_wrong_adjugate(monkeypatch):
    assert certify(lie.orbit_membership_identities) is None
    monkeypatch.setattr(lie, "adjugate", _swapped_adjugate)
    assert certify(lie.orbit_membership_identities) == 0


def test_adjugate_inverts_the_shear():
    shear = (1, 0, 1, 1)  # entries (x, y, z, w) of [[x, z], [y, w]] = [[1, 1], [0, 1]]
    a = ExactMatrix([[1, 1], [0, 1]])
    assert ExactMatrix(lie.group_matrix(*shear)) == a
    assert lie.determinant(lie.group_matrix(*shear)) == a.det() == 1
    assert ExactMatrix(lie.adjugate(*shear)) * a == ExactMatrix.identity(2)


def test_the_base_points_have_singular_matrices():
    # each base point pairs a line of P1 with itself, so as a 2x2 matrix of
    # coordinate rows it has determinant 0: both lie on the diagonal
    assert all(lie.determinant(pt) == 0 for pt in cg.base_locus())


def test_replaced_sampler_name_is_a_stand_in():
    # perfbench/tracer.py looks the name up; the sampler lives in lie_oracle
    assert lie.random_sl_integer is not random_sl_integer
    with pytest.raises(NotImplementedError):
        lie.random_sl_integer(2, random.Random(0))
