"""Lagrangian checks for the sphere and the thimbles, plus chart gluing."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symplectic_oracle
from gaussian_oracle import GaussianRational
from lgorbit import symplectic
from lgorbit.errors import PreconditionError
from lgorbit.lie import orbit_residual
from lgorbit.poly import certify, variables
from lgorbit.report import Config, run
from lgorbit.symplectic import (
    check_sphere_lagrangian,
    commutator_triple,
    cylinder_chart,
    hermitian_pairing,
    matching_circles_distance,
    sphere_embedding,
    sphere_frame_identities,
    sphere_lagrangian_identities,
    sphere_point,
    su2_basis,
    thimble,
    thimble_chart,
)
from negative_controls import (
    CONTROLS,
    _flipped_commutator,
    _hermitian_first_generator,
    _one_generator_thrice,
    _wrong_sign_chart,
)
from symplectic_oracle import RATIONAL_SPHERE_POINTS, exact_sphere_point

I = GaussianRational(0, 1)
# the float samples read su(2) at 1j
COMPLEX_BASIS = su2_basis(1j)


def _holds(identities):
    # the call shape of the report: the identity function on one symbol per
    # parameter, the unit among them named i
    return certify(identities) is None


def test_sphere_lagrangian_sampled():
    report = symplectic_oracle.check_sphere_lagrangian(n_samples=1000, seed=0)
    assert report.samples >= 1000
    assert report.max_omega < 1e-9
    assert report.rank_failures == 0
    assert report.min_taming > 0
    assert report.max_tangency_residual < 1e-9
    assert report.passed


@pytest.mark.parametrize("seed", [0, 7919])
def test_oracle_sampler_agrees_with_the_certificates_and_the_taming_minimum(seed):
    # the goldens' two seeds: the full sampler sees no pairing, tangency or
    # Hermitian defect and no rank failure, and its taming minimum is the
    # library's, bit for bit
    report = symplectic_oracle.check_sphere_lagrangian(1000, seed)
    assert report.max_omega == 0.0 and report.max_tangency_residual == 0.0
    assert report.rank_failures == 0 and report.passed
    assert report.min_taming.hex() == check_sphere_lagrangian(1000, seed).hex()


def test_rank_two_test_rejects_other_ranks():
    rank_is_two = symplectic_oracle.rank_is_two
    assert rank_is_two([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)])
    assert not rank_is_two([(1.0, 2.0, 3.0), (2.0, 4.0, 6.0), (-1.0, -2.0, -3.0)])
    assert not rank_is_two([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    assert not rank_is_two([(0.0, 0.0, 0.0)] * 3)


def test_sphere_frame_holds_at_every_rational_sphere_point():
    # over the Gaussian rationals every difference of the certificate is 0
    assert _holds(sphere_frame_identities)
    for p, q, r in RATIONAL_SPHERE_POINTS:
        identities = sphere_frame_identities(*map(GaussianRational, (p, q, r)), I)
        assert len(identities) == 11
        assert all(difference == 0 for difference, _ in identities)


@pytest.mark.parametrize("target, replacement, position", [
    # the first tangent's tangency residual is -4i yz with z negated
    ("commutator_triple", _flipped_commutator, 0),
    # diag(1, -1) for diag(i, -i): the first tangent (0, -2y, 2z) has z = -conj(y)
    ("su2_basis", _hermitian_first_generator, 2),
    # three equal tangents: the minors vanish, so the rank-2 identity is the last to fail
    ("su2_basis", _one_generator_thrice, 10),
])
def test_sphere_frame_fails_at_the_broken_identity(monkeypatch, target, replacement, position):
    monkeypatch.setattr(symplectic, target, replacement)
    assert certify(sphere_frame_identities) == position
    rows = {r.id: r for r in run("symplectic", Config()).results}
    assert rows["symplectic.sphere-tangent-frame"].status == "fail"


def test_sphere_exact_residuals_vanish():
    assert _holds(sphere_lagrangian_identities)
    residuals = symplectic_oracle.exact_sphere_omega_residuals()
    assert len(residuals) == 3 * len(RATIONAL_SPHERE_POINTS)
    assert all(r == Fraction(0) for r in residuals)


def _sphere_pairings(p, q, r, i):
    # the certificate's pairings, over any ring: symbols or exact values
    point = sphere_embedding(p, q, r, i)
    tangents = [commutator_triple(point, a) for a in su2_basis(i)]
    return [hermitian_pairing(u, v) for u, v in itertools.combinations(tangents, 2)]


def test_pointwise_pairings_agree_with_the_identity():
    # the identity's pairings, at each rational point, are the oracle's
    # entry-by-entry pairings there, and each is real
    symbolic = _sphere_pairings(*variables("p q r i"))
    assert all(h == h.conjugate() and h for h in symbolic)
    for p, q, r in RATIONAL_SPHERE_POINTS:
        pointwise = symplectic_oracle.sphere_pairings(exact_sphere_point(p, q, r))
        assert _sphere_pairings(*map(GaussianRational, (p, q, r)), I) == pointwise
        assert all(h.im == 0 for h in pointwise)


def test_hermitian_generator_fails_the_exact_sphere_row(monkeypatch):
    monkeypatch.setattr(symplectic, "su2_basis", _hermitian_first_generator)
    assert not _holds(sphere_lagrangian_identities)
    rows = {r.id: r for r in run("symplectic", Config()).results}
    assert rows["symplectic.sphere-lagrangian-exact"].status == "fail"


def test_sphere_point_exact():
    # the embedding over the Gaussian rationals lands on the orbit
    p, q, r = map(GaussianRational, (Fraction(3, 5), Fraction(4, 5), Fraction(0)))
    x, y, z = sphere_embedding(p, q, r, I)
    assert orbit_residual((x, y, z)) == 0
    assert (x, y, z) == exact_sphere_point(Fraction(3, 5), Fraction(4, 5), Fraction(0))


def test_sphere_point_float():
    p = sphere_point(0.6, 0.8, 0.0)
    assert abs(orbit_residual(p)) < 1e-12


def test_sphere_point_rejects_off_sphere():
    with pytest.raises(PreconditionError):
        sphere_point(Fraction(1), Fraction(1), Fraction(0))


def test_rational_sphere_points_are_unit():
    assert len(RATIONAL_SPHERE_POINTS) == 12
    for p, q, r in RATIONAL_SPHERE_POINTS:
        assert p * p + q * q + r * r == 1


def test_taming_positive_on_sphere_tangents():
    # omega(u, iu) = -Im h(u, iu) = h(u, u) > 0, in floats and exactly
    point = sphere_point(0.6, 0.0, 0.8)
    for a in COMPLEX_BASIS:
        u = commutator_triple(point, a)
        assert -hermitian_pairing(u, tuple(1j * c for c in u)).imag > 0
    point = exact_sphere_point(Fraction(3, 5), 0, Fraction(4, 5))
    for a in su2_basis(I):
        u = commutator_triple(point, a)
        taming = -hermitian_pairing(u, tuple(I * c for c in u)).im
        assert taming == hermitian_pairing(u, u).re > 0


def _indefinite_pairing(u, v):
    return u[1] * v[1].conjugate() - u[2] * v[2].conjugate()


def test_sampled_taming_fails_for_a_pairing_that_is_zero_on_the_sphere(monkeypatch):
    # u1 conj(v1) - u2 conj(v2) vanishes on every Hermitian tangent (z = conj(y)),
    # so every sampled pairing is 0, which tames nothing
    monkeypatch.setattr(symplectic, "hermitian_pairing", _indefinite_pairing)
    assert check_sphere_lagrangian(100) == 0.0
    rows = {r.id: r for r in run("symplectic", Config()).results}
    assert rows["symplectic.taming"].status == "fail"


@pytest.mark.parametrize("n_samples", [0, -1])
def test_sampled_taming_needs_a_sample(n_samples):
    # with no sample the minimum would be inf: taming would pass as inf > 0,
    # and json.dumps would write the token Infinity
    with pytest.raises(PreconditionError, match="n_samples must be at least 1"):
        check_sphere_lagrangian(n_samples)
    assert 0 < check_sphere_lagrangian(1) < math.inf


@pytest.mark.parametrize("n_samples", [0, -1])
def test_oracle_sampler_needs_a_sample(n_samples):
    # the oracle refuses no sample as the library does, rather than report a
    # pass with an infinite taming minimum
    with pytest.raises(PreconditionError, match="n_samples must be at least 1"):
        symplectic_oracle.check_sphere_lagrangian(n_samples)
    report = symplectic_oracle.check_sphere_lagrangian(1)
    assert report.passed and 0 < report.min_taming < math.inf


def test_thimble_lagrangian_grid():
    report = symplectic_oracle.check_thimble_lagrangian(n_t=64)
    assert report.grid == (9, 64)
    assert report.max_fiber_residual < 1e-12
    assert report.max_omega < 1e-9
    assert report.min_taming > 0
    assert report.passed


def test_oracle_grid_agrees_with_the_certificate():
    # at every grid point the float chart's tangents are c d_lam and d_t of the
    # oracle's analytic derivatives, and their norms are the certificate's
    # values on the relations: h(c d_lam) = 2 and h(d_t) = 2c^2
    for lam in symplectic_oracle.lambda_grid(9):
        c = math.sqrt(1 - lam * lam)
        for k in range(64):
            t = 2 * math.pi * k / 64
            u = complex(math.cos(t), math.sin(t))
            point, c_d_lam, d_t = thimble_chart(lam, c, u, u.conjugate(), 1j)
            oracle_lam, oracle_t = symplectic_oracle.thimble_tangents(lam, t)
            assert max(abs(a - b) for a, b in zip(point, thimble(lam, t))) < 1e-12
            assert max(abs(a - c * b) for a, b in zip(c_d_lam, oracle_lam)) < 1e-12
            assert max(abs(a - b) for a, b in zip(d_t, oracle_t)) < 1e-12
            assert abs(c * c * hermitian_pairing(oracle_lam, oracle_lam) - 2) < 1e-9
            assert abs(hermitian_pairing(oracle_t, oracle_t) - 2 * c * c) < 1e-12


def test_lambda_grid_pulls_the_ends_in_from_the_critical_values():
    lambda_grid = symplectic_oracle.lambda_grid
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


# the certificate behind each row the registry's controls fail
def _tamed():
    return _holds(symplectic.taming_identities)


def _thimble():
    return _holds(symplectic.thimble_identities)


ROW_CERTIFICATES = {
    "thimble-grid": _thimble,
    "taming": _tamed,
    "thimble-taming": lambda: _tamed() and _thimble(),
}
NEGATIVE_CONTROLS = [
    (row.split(".", 1)[1], target, replacement)
    for row, controls in CONTROLS.items()
    if row.split(".", 1)[1] in ROW_CERTIFICATES
    for owner, target, replacement in controls
]


@pytest.mark.parametrize(
    "row, target, replacement", NEGATIVE_CONTROLS,
    ids=[f"{row}-{fn.__name__.strip('_')}" for row, _, fn in NEGATIVE_CONTROLS],
)
def test_symplectic_negative_controls(monkeypatch, row, target, replacement):
    # tests/test_negative_controls.py fails the row and the command
    assert ROW_CERTIFICATES[row]()
    monkeypatch.setattr(symplectic, target, replacement)
    assert not ROW_CERTIFICATES[row]()


def test_cylinder_chart_certificate_fails_for_a_wrong_chart(monkeypatch):
    assert certify(symplectic.cylinder_chart_identities) is None
    monkeypatch.setattr(symplectic, "cylinder_chart", _wrong_sign_chart)
    assert certify(symplectic.cylinder_chart_identities) == 0


exact_points = st.tuples(gaussians, gaussians, gaussians) | st.sampled_from(
    [exact_sphere_point(*p) for p in RATIONAL_SPHERE_POINTS]
)
traceless = st.builds(lambda a, b, c: ((a, b), (c, -a)), gaussians, gaussians, gaussians)


@given(point=exact_points, a=traceless | st.sampled_from(su2_basis(I)))
@settings(max_examples=80, deadline=None)
def test_closed_form_commutator_matches_the_matrix_product_exactly(point, a):
    assert commutator_triple(point, a) == symplectic_oracle.commutator_triple(point, a)


unit = st.floats(-1.0, 1.0)


@given(raw=st.tuples(unit, unit, unit).filter(lambda v: math.hypot(*v) > 1e-3),
       a=st.sampled_from(COMPLEX_BASIS))
@settings(max_examples=80, deadline=None)
def test_closed_form_commutator_matches_the_matrix_product_on_float_sphere(raw, a):
    norm = math.hypot(*raw)
    point = sphere_point(*(c / norm for c in raw))
    closed = commutator_triple(point, a)
    oracle = symplectic_oracle.commutator_triple(point, a)
    assert all(isinstance(c, complex) for c in closed)
    assert max(abs(u - v) for u, v in zip(closed, oracle)) <= 1e-12
