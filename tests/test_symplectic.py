"""Lagrangian checks for the sphere and the thimbles, plus chart gluing."""

from fractions import Fraction

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symplectic_oracle
from lgorbit import cli, symplectic
from lgorbit.errors import PreconditionError
from lgorbit.gaussian import GaussianRational
from lgorbit.report import Config, run
from lgorbit.symplectic import (
    RATIONAL_SPHERE_POINTS,
    _rank_is_two,
    check_sphere_lagrangian,
    check_thimble_lagrangian,
    commutator_triple,
    cylinder_chart,
    exact_sphere_omega_residuals,
    lambda_grid,
    matching_circles_distance,
    omega_value,
    orbit_residual,
    sphere_point,
    su2_basis,
    thimble,
)


def test_sphere_lagrangian_sampled():
    report = check_sphere_lagrangian(n_samples=1000, seed=0)
    assert report.samples >= 1000
    assert report.max_omega < 1e-9
    assert report.rank_failures == 0
    assert report.max_taming_violation == 0.0
    assert report.max_tangency_residual < 1e-9
    assert report.passed


def test_rank_two_test_rejects_other_ranks():
    assert _rank_is_two([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)])
    assert not _rank_is_two([(1.0, 2.0, 3.0), (2.0, 4.0, 6.0), (-1.0, -2.0, -3.0)])
    assert not _rank_is_two([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    assert not _rank_is_two([(0.0, 0.0, 0.0)] * 3)


def test_sphere_exact_residuals_vanish():
    residuals = exact_sphere_omega_residuals()
    assert residuals
    assert all(r == Fraction(0) for r in residuals)


def test_sphere_point_exact():
    x, y, z = sphere_point(Fraction(3, 5), Fraction(4, 5), Fraction(0))
    assert orbit_residual((x, y, z)) == 0


def test_sphere_point_float():
    p = sphere_point(0.6, 0.8, 0.0)
    assert abs(orbit_residual(p)) < 1e-12


def test_sphere_point_rejects_off_sphere():
    with pytest.raises(PreconditionError):
        sphere_point(Fraction(1), Fraction(1), Fraction(0))


def test_rational_sphere_points_are_unit():
    for p, q, r in RATIONAL_SPHERE_POINTS:
        assert p * p + q * q + r * r == 1


def test_taming_positive_on_sphere_tangents():
    # omega(u, iu) > 0 certifies the compatible pairing along the sample
    point = sphere_point(0.6, 0.0, 0.8)
    for a in su2_basis():
        u = commutator_triple(point, a)
        iu = tuple(1j * c for c in u)
        val = omega_value(u, iu)
        assert val.imag == pytest.approx(0.0, abs=1e-12)
        assert val.real > 0


def test_thimble_lagrangian_grid():
    report = check_thimble_lagrangian(n_t=64)
    assert report.grid == (9, 64)
    assert report.max_fiber_residual < 1e-12
    assert report.max_omega < 1e-9
    assert report.min_taming > 0
    assert report.passed


def test_lambda_grid_pulls_the_ends_in_from_the_critical_values():
    assert lambda_grid(9) == (-0.99, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 0.99)
    assert lambda_grid(1) == (0.0,)
    assert lambda_grid(2) == (-0.99, 0.99)
    grid = lambda_grid(33)
    assert grid[0] == -0.99 and grid[-1] == 0.99 and grid[16] == 0.0
    assert grid[1:-1] == tuple(-1 + k / 16 for k in range(1, 32))


def test_thimble_points_land_in_claimed_fiber():
    pt = thimble(0.5, 0.3)
    x = pt[0]
    # fiber coordinate is the first entry; the height there is 2x
    assert abs((2 * x).imag) < 1e-12


def test_matching_circles_glue():
    assert matching_circles_distance(n_t=64) < 1e-9


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
gaussians = st.builds(GaussianRational, rationals, rationals)


@given(lam=gaussians, y=gaussians.filter(lambda g: not g.is_zero()))
@settings(max_examples=80, deadline=None)
def test_cylinder_chart_pointwise(lam, y):
    # at exact points the chart lands on the orbit, in the fiber x = lam,
    # and reading off y inverts it
    point = cylinder_chart(lam, y, 1 / y)
    assert orbit_residual(point) == 0
    assert point[:2] == (lam, y)


def _wrong_sign_chart(lam, y, u):
    return (lam, y, (1 + lam * lam) * u)


def test_cylinder_chart_certificate_fails_for_a_wrong_chart(monkeypatch, capsys):
    assert symplectic.cylinder_chart_certificate()
    monkeypatch.setattr(symplectic, "cylinder_chart", _wrong_sign_chart)
    assert not symplectic.cylinder_chart_certificate()
    status = {r.id: r.status for r in run("symplectic", Config()).results}
    assert status["symplectic.cylinder-chart"] == "fail"
    assert cli.main(["symplectic"]) == 1
    assert "FAIL       symplectic.cylinder-chart\n" in capsys.readouterr().out
exact_points = st.tuples(gaussians, gaussians, gaussians) | st.sampled_from(
    [sphere_point(*p) for p in RATIONAL_SPHERE_POINTS]
)
traceless = st.builds(lambda a, b, c: ((a, b), (c, -a)), gaussians, gaussians, gaussians)


@given(point=exact_points, a=traceless | st.sampled_from(su2_basis()))
@settings(max_examples=80, deadline=None)
def test_closed_form_commutator_matches_the_matrix_product_exactly(point, a):
    assert commutator_triple(point, a) == symplectic_oracle.commutator_triple(point, a)


unit = st.floats(-1.0, 1.0)


@given(raw=st.tuples(unit, unit, unit).filter(lambda v: math.hypot(*v) > 1e-3),
       a=st.sampled_from(su2_basis()))
@settings(max_examples=80, deadline=None)
def test_closed_form_commutator_matches_the_matrix_product_on_float_sphere(raw, a):
    norm = math.hypot(*raw)
    point = sphere_point(*(c / norm for c in raw))
    closed = commutator_triple(point, a)
    oracle = symplectic_oracle.commutator_triple(point, a)
    assert all(isinstance(c, complex) for c in closed)
    assert max(abs(u - v) for u, v in zip(closed, oracle)) <= 1e-12
