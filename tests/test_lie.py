"""Critical sets, Morse counts, and exact orbit membership."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lie_oracle
from lgorbit import lie
from lgorbit import compactification as cg
from lgorbit.errors import PreconditionError, StructureError
from lgorbit.gaussian import ExactMatrix, GaussianRational
from lgorbit.lie import (
    CartanDiagonal,
    critical_count,
    critical_points,
    height_exact,
    hessian_determinant,
    hessian_matrix,
    sl2_orbit_coordinates,
)
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
    coords = {
        tuple(sl2_orbit_coordinates(CartanDiagonal(d).as_exact_matrix()))
        for d in pts
    }
    one, zero = GaussianRational(1), GaussianRational(0)
    assert coords == {(one, zero, zero), (-one, zero, zero)}


def test_sl2_critical_heights():
    heights = {
        height_exact(H_SL2, CartanDiagonal(d).as_exact_matrix())
        for d in critical_points(H0_SL2, H_SL2)
    }
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
    # the polarization halves q(...) differences; with int components this
    # must stay a Fraction, never a float
    h0 = CartanDiagonal((2, 1, -3))
    h = CartanDiagonal((3, -1, -2))
    for point in critical_points(h0, h):
        det = hessian_determinant(h0, h, point)
        assert type(det) is Fraction and det != 0
        for row in hessian_matrix(h0, h, point).entries:
            assert all(type(e.re) is Fraction and e.im == 0 for e in row)


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
        closed = np.array(
            [[complex(exact[i, j]) for j in range(exact.cols)] for i in range(exact.rows)]
        )
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
        assert hessian_matrix(h0, h, point) == ExactMatrix(closed)


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
    h0 = ExactMatrix.diagonal([1, -1])
    for _ in range(20):
        g = random_sl_integer(2, rng)
        assert orbit_contains_exact(H0_SL2, conjugate_exact(g, h0))


def test_orbit_membership_exact_negative():
    assert not orbit_contains_exact(H0_SL2, ExactMatrix.diagonal([2, -2]))
    # nilpotent: right trace, wrong characteristic polynomial
    nil = ExactMatrix([[0, 1], [0, 0]])
    assert not orbit_contains_exact(H0_SL2, nil)


def test_sl2_orbit_coordinates_roundtrip():
    rng = random.Random(3)
    h0 = ExactMatrix.diagonal([1, -1])
    for _ in range(10):
        a = conjugate_exact(random_sl_integer(2, rng), h0)
        x, y, z = sl2_orbit_coordinates(a)
        assert x * x + y * z == GaussianRational(1)


def test_random_sl_integer_has_det_one():
    rng = random.Random(0)
    for n in (2, 3, 4):
        g = random_sl_integer(n, rng)
        assert g.det() == GaussianRational(1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_seeded_conjugates_agree_with_the_membership_certificate(seed):
    g = random_sl_integer(2, random.Random(seed))
    x, y, z, w = g[0, 0], g[1, 0], g[0, 1], g[1, 1]
    conjugate = conjugate_exact(g, ExactMatrix.diagonal([1, -1]))
    assert orbit_contains_exact(H0_SL2, conjugate)
    # the certificate's matrix is this conjugate, and on det = 1 (R = 0) each
    # of its differences vanishes with its cofactor times R
    m = cg.product(cg.product(cg.group_matrix(x, y, z, w), ((1, 0), (0, -1))),
                   cg.adjugate(x, y, z, w))
    assert ExactMatrix(m) == conjugate
    relation = x * w - y * z - 1
    assert relation == 0
    for difference, cofactor in cg.orbit_membership_certificate(x, y, z, w):
        assert difference == cofactor * relation == 0


def test_orbit_membership_certificate_fails_for_a_wrong_adjugate(monkeypatch):
    assert cg.certify_cofactors(cg.orbit_membership_certificate)
    monkeypatch.setattr(cg, "adjugate", _swapped_adjugate)
    assert not cg.certify_cofactors(cg.orbit_membership_certificate)


def test_replaced_sampler_name_is_a_stand_in():
    # perfbench/tracer.py looks the name up; the sampler lives in lie_oracle
    assert lie.random_sl_integer is not random_sl_integer
    with pytest.raises(NotImplementedError):
        lie.random_sl_integer(2, random.Random(0))
