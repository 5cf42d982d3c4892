"""Symplectic geometry of the affine quadric orbit x^2 + yz = 1.

Points are triples (x, y, z), identified with traceless matrices
[[x, y], [z, -x]].  The real two-form is

    Omega(u, v) = -Im tr(M_u . M_v^dagger)
                = -Im (2 u1 conj(v1) + u2 conj(v2) + u3 conj(v3)),

the imaginary part of the Hermitian extension of the trace pairing.  The
sign makes Omega(u, iu) = tr(M_u M_u^dagger) > 0, so the complex structure
is tamed.  The sampled checks run the formulas in floats; the exact claims
are polynomial identities, the same formulas run on real symbols with
conjugation acting on coefficients only.  Every float bound is a
pinned constant, not an option: FLOAT_TOL = 1e-9 bounds the residuals of
sampled geometry (the pairing, tangency and gluing rows of the report) and
the unit-norm, rank and nonzero tests, and FIBER_TOL = 1e-12 bounds the
closed-form thimble fiber and sphere-membership residuals.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import NamedTuple, Sequence, Tuple, Union

from .errors import PreconditionError
from .gaussian import GaussianRational

Scalar = Union[complex, GaussianRational]
Triple = Tuple[Scalar, Scalar, Scalar]

FLOAT_TOL = 1e-9
FIBER_TOL = 1e-12  # thimble fiber and sphere membership, closed forms in floats

# The sphere's coordinates p, q, r as polynomial variables, read as real.
SPHERE_BLOCKS = (("p", "q", "r"),)


def orbit_residual(point: Triple):
    x, y, z = point
    return x * x + y * z - 1


def tangency_residual(point: Triple, vec: Triple):
    """Differential of the orbit equation applied to vec: 2x u1 + z u2 + y u3."""
    x, y, z = point
    u1, u2, u3 = vec
    return 2 * x * u1 + z * u2 + y * u3


def hermitian_pairing(u: Triple, v: Triple) -> Scalar:
    """tr(M_u . M_v^dagger) written out on triples of one scalar type.

    On polynomial triples ``conjugate`` reads the variables as real.
    """
    return 2 * (u[0] * v[0].conjugate()) + u[1] * v[1].conjugate() + u[2] * v[2].conjugate()


# ------------------------------------------------------------------- sphere


def sphere_embedding(p, q, r, i) -> Triple:
    """The point (x, y, z) = (r, -p + iq, -p - iq), over any ring with unit ``i``.

    For real p, q, r it is the Hermitian matrix [[r, -p + iq], [-p - iq, -r]];
    its orbit residual is p^2 + q^2 + r^2 - 1, so the unit sphere lands on the
    orbit.
    """
    return (r, -p + i * q, -p - i * q)


def sphere_point(p: float, q: float, r: float) -> Triple:
    """Embed a float point of the unit two-sphere; off-sphere input is rejected."""
    if abs(p * p + q * q + r * r - 1) > FLOAT_TOL:
        raise PreconditionError("point is not on the unit sphere")
    return sphere_embedding(p, q, r, 1j)


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


def commutator_triple(point: Triple, matrix) -> Triple:
    """[S, A] as a coordinate triple, where S is the matrix of ``point``.

    For S = [[x, y], [z, -x]] and a traceless A = [[a, b], [c, -a]] the
    commutator is [[yc - bz, 2(xb - ay)], [2(az - cx), bz - yc]].
    """
    x, y, z = point
    (a, b), (c, _) = matrix
    return (y * c - b * z, 2 * (x * b - a * y), 2 * (a * z - c * x))


def _cross(u: Sequence[float], v: Sequence[float]) -> Tuple[float, float, float]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _rank_is_two(rows: Sequence[Sequence[float]]) -> bool:
    """Whether three real 3-vectors span exactly a plane.

    Rank at most two is a determinant within FLOAT_TOL of zero; rank at
    least two is a pair of rows whose cross product is longer than FLOAT_TOL.
    """
    a, b, c = rows
    det = sum(x * y for x, y in zip(a, _cross(b, c)))
    return abs(det) <= FLOAT_TOL and any(
        math.hypot(*_cross(u, v)) > FLOAT_TOL for u, v in ((a, b), (a, c), (b, c))
    )


class SphereReport(NamedTuple):
    samples: int
    max_omega: float
    max_taming_violation: float
    max_tangency_residual: float
    rank_failures: int
    passed: bool


def check_sphere_lagrangian(n_samples: int = 1000, seed: int = 0) -> SphereReport:
    """Sample the sphere; the su(2) commutators must span an Omega-null plane.

    At each sample S the three tangent vectors [S, A_k] must be tangent and
    Hermitian, so the pairing is real and Omega vanishes; the report records
    the worst float residual, taming defect and tangency or Hermitian
    defect, and any rank-2 span failure.
    """
    import random

    rng = random.Random(seed)
    # the samples are floats, so convert the exact basis once, not per sample
    basis = [tuple(tuple(complex(e) for e in row) for row in a) for a in su2_basis()]
    max_omega = 0.0
    max_taming = 0.0
    max_tangent = 0.0
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
        for u, v in itertools.combinations(tangents, 2):
            max_omega = max(max_omega, abs(hermitian_pairing(u, v).imag))
        for u in tangents:
            u0, u1, u2 = u
            hermitian = max(abs(u0.imag), abs(u2 - u1.conjugate()))  # x real, z = conj(y)
            max_tangent = max(max_tangent, abs(tangency_residual(point, u)), hermitian)
            if abs(u0) + abs(u1) + abs(u2) > FLOAT_TOL:
                taming = -hermitian_pairing(u, (1j * u0, 1j * u1, 1j * u2)).imag
                max_taming = max(max_taming, -min(0.0, taming))
        # a Hermitian traceless [[r, -p+iq], [-p-iq, -r]] has coordinates (p, q, r)
        if not _rank_is_two([(-u1.real, u1.imag, u0.real) for u0, u1, _ in tangents]):
            rank_failures += 1
    passed = (
        max(max_omega, max_tangent) < FLOAT_TOL and rank_failures == 0 and max_taming == 0.0
    )
    return SphereReport(n_samples, max_omega, max_taming, max_tangent, rank_failures, passed)


def sphere_lagrangian_certificate() -> bool:
    """Omega vanishes on the su(2) tangents of the sphere, as an identity.

    Over real symbols p, q, r, each pairing of two tangents [S, A_k] at
    S = sphere_embedding(p, q, r, i) must equal its own conjugate.  Then its
    imaginary part, minus Omega, is the zero polynomial on all of R^3.
    """
    from .poly import MultiHomPoly

    p, q, r = (MultiHomPoly.variable(SPHERE_BLOCKS, v) for v in "pqr")
    point = sphere_embedding(p, q, r, GaussianRational(0, 1))
    tangents = [commutator_triple(point, a) for a in su2_basis()]
    pairings = (hermitian_pairing(u, v) for u, v in itertools.combinations(tangents, 2))
    return all(h == h.conjugate() for h in pairings)


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


def lambda_grid(n: int) -> Tuple[float, ...]:
    """The thimble grid's n lambdas: 0 alone when n is 1, and otherwise n
    evenly spaced values in [-1, 1] with the two ends pulled in to -0.99 and
    0.99, where the chart derivatives still exist."""
    if n == 1:
        return (0.0,)
    return tuple(max(-0.99, min(0.99, -1 + 2 * k / (n - 1))) for k in range(n))


class ThimbleReport(NamedTuple):
    grid: Tuple[int, int]
    max_fiber_residual: float
    max_omega: float
    max_sphere_residual: float
    max_tangency_residual: float
    min_taming: float
    passed: bool


def check_thimble_lagrangian(
    lambdas: Sequence[float] = lambda_grid(9), n_t: int = 64
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
                iu = (1j * vec[0], 1j * vec[1], 1j * vec[2])
                min_taming = min(min_taming, -hermitian_pairing(vec, iu).imag)
            max_omega = max(max_omega, abs(hermitian_pairing(d_lam, d_t).imag))
    passed = (
        max_fiber < FIBER_TOL
        and max_omega < FLOAT_TOL
        and max_sphere < FIBER_TOL
        and max_tangent < FLOAT_TOL
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


def cylinder_chart(lam, y, u):
    """The point (lam, y, (1 - lam^2) u) of the fiber x = lam; u stands for 1/y."""
    return (lam, y, (1 - lam * lam) * u)


def cylinder_chart_certificate() -> bool:
    """The chart and (x, y, z) -> y are inverse maps between C* and the fiber x = lam.

    Over (lam, x, y, z, u), modulo yu - 1: the chart's orbit residual is
    (1 - lam^2)(yu - 1), and z minus the chart's z is -z(yu - 1)
    + u orbit_residual((x, y, z)) - u(x + lam)(x - lam).  For lam^2 != 1 the
    fiber has no point with y = 0, since yz = 1 - lam^2 there.
    """
    from .poly import MultiHomPoly

    lam, x, y, z, u = (MultiHomPoly.variable((tuple("lxyzu"),), v) for v in "lxyzu")
    unit = y * u - 1
    chart = cylinder_chart(lam, y, u)
    return orbit_residual(chart) == (1 - lam * lam) * unit and (
        z - chart[2] == -z * unit + u * orbit_residual((x, y, z)) - u * (x + lam) * (x - lam)
    )
