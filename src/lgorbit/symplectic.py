"""Symplectic geometry of the affine quadric orbit x^2 + yz = 1.

Points are triples (x, y, z), identified with traceless matrices
[[x, y], [z, -x]].  The real two-form is

    Omega(u, v) = -Im tr(M_u . M_v^dagger)
                = -Im (2 u1 conj(v1) + u2 conj(v2) + u3 conj(v3)),

the imaginary part of the Hermitian extension of the trace pairing.  The
sign makes Omega(u, iu) = tr(M_u M_u^dagger) > 0, so the complex structure
is tamed.  All checks run in floats on sampled data and exactly on
Gaussian-rational data; the formulas are shared.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

from .errors import PreconditionError
from .gaussian import GaussianRational

Scalar = Union[complex, GaussianRational]
Triple = Tuple[Scalar, Scalar, Scalar]

ORBIT_TOL = 1e-9


def _conj(value: Scalar) -> Scalar:
    return value.conjugate()


def _imag(value: Scalar):
    if isinstance(value, GaussianRational):
        return value.im
    return complex(value).imag


def _is_exact(values: Sequence[Scalar]) -> bool:
    return all(isinstance(v, GaussianRational) for v in values)


def orbit_residual(point: Triple):
    x, y, z = point
    return x * x + y * z - 1


def tangency_residual(point: Triple, vec: Triple):
    """Differential of the orbit equation applied to vec: 2x u1 + z u2 + y u3."""
    x, y, z = point
    u1, u2, u3 = vec
    return 2 * x * u1 + z * u2 + y * u3


def hermitian_pairing(u: Triple, v: Triple) -> Scalar:
    """tr(M_u . M_v^dagger) written out on triples."""
    return 2 * (u[0] * _conj(v[0])) + u[1] * _conj(v[1]) + u[2] * _conj(v[2])


def omega_value(u: Triple, v: Triple):
    """The two-form on raw coordinate triples; exact when both are exact."""
    return -_imag(hermitian_pairing(u, v))


# ------------------------------------------------------------------- sphere


def sphere_point(p, q, r) -> Triple:
    """Embed a point of the unit two-sphere as (x, y, z) = (r, -p+iq, -p-iq).

    Exact inputs (ints or Fractions) give an exact Gaussian-rational triple,
    floats give a complex triple.  Off-sphere input is rejected.
    """
    if all(isinstance(c, (int, Fraction)) for c in (p, q, r)):
        p, q, r = Fraction(p), Fraction(q), Fraction(r)
        if p * p + q * q + r * r != 1:
            raise PreconditionError("point is not on the unit sphere")
        return (
            GaussianRational(r),
            GaussianRational(-p, q),
            GaussianRational(-p, -q),
        )
    if abs(p * p + q * q + r * r - 1) > ORBIT_TOL:
        raise PreconditionError("point is not on the unit sphere")
    return (complex(r), complex(-p, q), complex(-p, -q))


def su2_basis() -> Tuple[Tuple[Tuple[Scalar, ...], ...], ...]:
    """Three anti-Hermitian traceless 2x2 matrices spanning su(2), exact."""
    i = GaussianRational(0, 1)
    one = GaussianRational(1)
    zero = GaussianRational(0)
    return (
        ((i, zero), (zero, -i)),
        ((zero, one), (-one, zero)),
        ((zero, i), (i, zero)),
    )


def matrix_from_triple(t: Triple):
    x, y, z = t
    return ((x, y), (z, -x))


def _complex_matrix(a):
    return tuple(tuple(complex(e) for e in row) for row in a)


def commutator_triple(point: Triple, a) -> Triple:
    """[S, A] as a coordinate triple, where S is the matrix of ``point``."""
    if not _is_exact(point) and _is_exact(a[0] + a[1]):
        a = _complex_matrix(a)
    s = matrix_from_triple(point)
    rows = []
    for i in range(2):
        row = []
        for j in range(2):
            sa = s[i][0] * a[0][j] + s[i][1] * a[1][j]
            as_ = a[i][0] * s[0][j] + a[i][1] * s[1][j]
            row.append(sa - as_)
        rows.append(row)
    return (rows[0][0], rows[0][1], rows[1][0])


def _hermitian_coords(t: Triple) -> Tuple[float, float, float]:
    # a Hermitian traceless matrix [[r, -p+iq], [-p-iq, -r]] -> (p, q, r)
    u1, u2, _ = (complex(c) for c in t)
    return (-u2.real, u2.imag, u1.real)


def _cross(u: Sequence[float], v: Sequence[float]) -> Tuple[float, float, float]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _rank_is_two(rows: Sequence[Sequence[float]]) -> bool:
    """Whether three real 3-vectors span exactly a plane.

    Rank at most two is a determinant within 1e-9 of zero; rank at least
    two is a pair of rows whose cross product is longer than 1e-9.
    """
    a, b, c = rows
    det = sum(x * y for x, y in zip(a, _cross(b, c)))
    return abs(det) <= 1e-9 and any(
        math.hypot(*_cross(u, v)) > 1e-9 for u, v in ((a, b), (a, c), (b, c))
    )


@dataclass
class SphereReport:
    samples: int
    max_omega: float
    max_taming_violation: float
    rank_failures: int
    passed: bool


def check_sphere_lagrangian(
    n_samples: int = 1000, seed: int = 0, tol: float = 1e-9
) -> SphereReport:
    """Sample the sphere; the su(2) commutators must span an Omega-null plane.

    At each sample S the three tangent vectors [S, A_k] stay Hermitian, so
    the pairing is real and Omega vanishes; the report records the worst
    float residual, the worst taming defect, and any rank-2 span failure.
    """
    rng = random.Random(seed)
    # the samples are floats, so convert the exact basis once, not per sample
    basis = [_complex_matrix(a) for a in su2_basis()]
    max_omega = 0.0
    max_taming = 0.0
    rank_failures = 0
    for _ in range(n_samples):
        while True:
            raw = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            norm = math.sqrt(sum(c * c for c in raw))
            if norm > 1e-6:
                break
        p, q, r = (c / norm for c in raw)
        point = sphere_point(p, q, r)
        tangents = [commutator_triple(point, a) for a in basis]
        for i in range(3):
            for j in range(i + 1, 3):
                max_omega = max(max_omega, abs(omega_value(tangents[i], tangents[j])))
        for t in tangents:
            if sum(abs(c) for c in t) > 1e-9:
                taming = omega_value(t, tuple(1j * c for c in t))
                max_taming = max(max_taming, -min(0.0, taming))
        if not _rank_is_two([_hermitian_coords(t) for t in tangents]):
            rank_failures += 1
    passed = max_omega < tol and rank_failures == 0 and max_taming == 0.0
    return SphereReport(n_samples, max_omega, max_taming, rank_failures, passed)


# Exact solutions of p^2 + q^2 + r^2 = 1 sampling all sign patterns and both
# poles, where the eigenline formulas of the compactification need their
# fallback branch.
RATIONAL_SPHERE_POINTS: Tuple[Tuple[Fraction, Fraction, Fraction], ...] = tuple(
    (Fraction(a), Fraction(b), Fraction(c))
    for a, b, c in (
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (0, 0, -1),
        (Fraction(3, 5), Fraction(4, 5), 0),
        (0, Fraction(3, 5), Fraction(4, 5)),
        (Fraction(4, 5), 0, Fraction(-3, 5)),
        (Fraction(3, 5), 0, Fraction(-4, 5)),
        (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(-2, 3), Fraction(2, 3)),
        (Fraction(2, 7), Fraction(3, 7), Fraction(-6, 7)),
    )
)


def exact_sphere_omega_residuals(points=RATIONAL_SPHERE_POINTS) -> List[Fraction]:
    """All pairwise Omega values of the su(2) tangents at rational points.

    Every returned Fraction is exactly zero when the sphere is Lagrangian.
    """
    basis = su2_basis()
    residuals: List[Fraction] = []
    for p, q, r in points:
        point = sphere_point(p, q, r)
        tangents = [commutator_triple(point, a) for a in basis]
        for i in range(3):
            for j in range(i + 1, 3):
                residuals.append(omega_value(tangents[i], tangents[j]))
    return residuals


# ------------------------------------------------------------------ thimble


def thimble(lam: float, t: float) -> Triple:
    """Point of the matching-path thimble over height 2*lam.

    The circle at parameter t in the fiber over lam is
    (lam, e^{it} sqrt(1-lam^2), e^{-it} sqrt(1-lam^2)); lam runs through
    [-1, 1] along the real segment joining the two critical values.
    """
    if isinstance(lam, complex) or not -1.0 <= lam <= 1.0:
        raise PreconditionError("lam must be real in [-1, 1]")
    c = math.sqrt(max(0.0, 1.0 - lam * lam))
    return (complex(lam), cmath.exp(1j * t) * c, cmath.exp(-1j * t) * c)


def thimble_tangents(lam: float, t: float) -> Tuple[Triple, Triple]:
    """Analytic derivative vectors (d/dlam, d/dt) of the thimble chart."""
    if isinstance(lam, complex) or not -1.0 < lam < 1.0:
        raise PreconditionError("derivatives need lam strictly inside (-1, 1)")
    c = math.sqrt(1.0 - lam * lam)
    e_plus = cmath.exp(1j * t)
    e_minus = cmath.exp(-1j * t)
    d_lam = (1 + 0j, -lam / c * e_plus, -lam / c * e_minus)
    d_t = (0j, 1j * c * e_plus, -1j * c * e_minus)
    return d_lam, d_t


def sphere_membership_residual(point: Triple) -> float:
    """Distance of an orbit point from the embedded sphere's defining relations.

    The sphere is cut out by: x real, z = conj(y), x^2 + |y|^2 = 1.
    """
    x, y, z = (complex(c) for c in point)
    return max(
        abs(x.imag),
        abs(z - y.conjugate()),
        abs(x.real**2 + abs(y) ** 2 - 1),
    )


DEFAULT_LAMBDAS = (-0.99, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 0.99)


def lambda_grid(n: int) -> Tuple[float, ...]:
    """The thimble grid's n lambdas: DEFAULT_LAMBDAS when n is their count,
    0 alone when n is 1, and otherwise n evenly spaced values in [-0.99, 0.99]."""
    if n == len(DEFAULT_LAMBDAS):
        return DEFAULT_LAMBDAS
    if n == 1:
        return (0.0,)
    return tuple(-0.99 + 1.98 * k / (n - 1) for k in range(n))


@dataclass
class ThimbleReport:
    grid: Tuple[int, int]
    max_fiber_residual: float
    max_omega: float
    max_sphere_residual: float
    max_tangency_residual: float
    min_taming: float
    passed: bool


def check_thimble_lagrangian(
    lambdas: Sequence[float] = DEFAULT_LAMBDAS,
    n_t: int = 64,
    tol: float = 1e-9,
    fiber_tol: float = 1e-12,
) -> ThimbleReport:
    """Grid check: thimble points sit in the right fiber, inside the sphere
    union, and the two chart derivatives are Omega-orthogonal."""
    max_fiber = 0.0
    max_omega = 0.0
    max_sphere = 0.0
    max_tangent = 0.0
    min_taming = float("inf")
    for lam in lambdas:
        for k in range(n_t):
            t = 2 * math.pi * k / n_t
            point = thimble(lam, t)
            max_fiber = max(max_fiber, abs(orbit_residual(point)))
            max_fiber = max(max_fiber, abs(2 * point[0] - 2 * lam))
            max_sphere = max(max_sphere, sphere_membership_residual(point))
            d_lam, d_t = thimble_tangents(lam, t)
            for vec in (d_lam, d_t):
                max_tangent = max(max_tangent, abs(tangency_residual(point, vec)))
                iu = tuple(1j * c for c in vec)
                min_taming = min(min_taming, omega_value(vec, iu))
            max_omega = max(max_omega, abs(omega_value(d_lam, d_t)))
    passed = (
        max_fiber < fiber_tol
        and max_omega < tol
        and max_sphere < fiber_tol
        and max_tangent < tol
        and min_taming > 0
    )
    return ThimbleReport(
        (len(lambdas), n_t),
        max_fiber,
        max_omega,
        max_sphere,
        max_tangent,
        min_taming,
        passed,
    )


def matching_circles_distance(n_t: int = 64) -> float:
    """The two thimble halves meet along the lam = 0 circle; max mismatch."""
    worst = 0.0
    for k in range(n_t):
        t = 2 * math.pi * k / n_t
        lower = thimble(0.0, t)   # lam -> 0 from the height -2 side
        upper = thimble(-0.0, t)  # lam -> 0 from the height +2 side
        worst = max(worst, max(abs(a - b) for a, b in zip(lower, upper)))
    return worst


# ----------------------------------------------------------------- cylinder


def fiber_to_cylinder(y: complex) -> Tuple[complex, float]:
    """Chart (y/|y|, ln|y|) identifying the punctured fiber line with a cylinder."""
    y = complex(y)
    if y == 0:
        raise PreconditionError("cylinder chart is undefined at y = 0")
    r = abs(y)
    return (y / r, math.log(r))


def cylinder_to_fiber(u: complex, s: float) -> complex:
    u = complex(u)
    if abs(abs(u) - 1) > 1e-9:
        raise PreconditionError("first cylinder coordinate must be unimodular")
    return u * math.exp(s)


def cylinder_round_trip_residual(n_samples: int = 1000, seed: int = 0) -> float:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n_samples):
        y = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(y) < 1e-6:
            continue
        u, s = fiber_to_cylinder(y)
        worst = max(worst, abs(cylinder_to_fiber(u, s) - y))
    return worst
