"""Matrix-product and pointwise versions of the symplectic formulas, kept as
the test oracle.

``lgorbit.symplectic.commutator_triple`` writes [S, A] in closed form for a
traceless A.  This is the product it replaced: S A - A S entry by entry,
which holds for any A and checks each operand for exact or float entries.

``lgorbit.symplectic.sphere_lagrangian_identities`` proves Omega = 0 on the
sphere as an identity over real symbols.  Before it, the report evaluated the
pairings at the twelve rational sphere points below; those points and that
pointwise evaluation live here, with the pairing written as a sum over the
matrix entries rather than the library's closed form.

``sphere_frame_identities`` proves that the su(2) tangents are tangent,
Hermitian and of rank two, and ``check_sphere_lagrangian`` keeps only the
taming minimum.  Before them, the report ran the seeded float sampler below
(``check_sphere_lagrangian`` here): at each sample it also recorded the worst
pairing, tangency and Hermitian residuals and the rank-2 span failures.

``thimble_identities`` and ``taming_identities`` prove the thimble and
taming claims as identities.  Before them, the report ran the float grid at
the end of this file: the thimble's points and analytic tangents at
``lambda_grid(9)`` x 64 parameters, checked against ``FIBER_TOL`` and
``FLOAT_TOL``.
"""

import cmath
import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

from gaussian_oracle import GaussianRational
from lgorbit import symplectic
from lgorbit.errors import PreconditionError
from lgorbit.lie import orbit_residual
from lgorbit.symplectic import (
    FLOAT_TOL,
    Triple,
    hermitian_pairing,
    sphere_embedding,
    sphere_point,
    su2_basis,
    tangency_residual,
    thimble,
)

I = GaussianRational(0, 1)

# Exact solutions of p^2 + q^2 + r^2 = 1 sampling all sign patterns and both
# poles, where the eigenline formulas of the compactification need their
# fallback branch.
RATIONAL_SPHERE_POINTS = tuple(
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


def _is_exact(values):
    return all(isinstance(v, GaussianRational) for v in values)


def matrix_from_triple(t):
    x, y, z = t
    return ((x, y), (z, -x))


def commutator_triple(point, a):
    """[S, A] as a coordinate triple, where S is the matrix of ``point``."""
    if not _is_exact(point) and _is_exact(a[0] + a[1]):
        a = tuple(tuple(complex(e) for e in row) for row in a)
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


def exact_sphere_point(p, q, r):
    """The orbit point of a rational sphere point, in Gaussian rationals."""
    p, q, r = Fraction(p), Fraction(q), Fraction(r)
    if p * p + q * q + r * r != 1:
        raise PreconditionError("point is not on the unit sphere")
    return sphere_embedding(*map(GaussianRational, (p, q, r)), I)


def trace_pairing(u, v):
    """tr(M_u M_v^dagger), summed over the four matrix entries."""
    mu, mv = matrix_from_triple(u), matrix_from_triple(v)
    return sum(
        (mu[i][j] * mv[i][j].conjugate() for i in range(2) for j in range(2)),
        GaussianRational(0),
    )


def sphere_pairings(point):
    """The pairing of each two su(2) tangents [S, A_k] at an exact point."""
    tangents = [commutator_triple(point, a) for a in su2_basis(I)]
    return [trace_pairing(u, v) for u, v in itertools.combinations(tangents, 2)]


def exact_sphere_omega_residuals(points=RATIONAL_SPHERE_POINTS):
    """Omega = -Im of each pairing, at each point; all zero on a Lagrangian sphere."""
    return [-h.im for pt in points for h in sphere_pairings(exact_sphere_point(*pt))]


# ------------------------------------------------------------ sphere sampler


def _cross(u: Sequence[float], v: Sequence[float]) -> Tuple[float, float, float]:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def rank_is_two(rows: Sequence[Sequence[float]]) -> bool:
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
    min_taming: float
    max_tangency_residual: float
    rank_failures: int
    passed: bool


def check_sphere_lagrangian(n_samples: int = 1000, seed: int = 0) -> SphereReport:
    """Sample the sphere; the su(2) commutators must span an Omega-null plane.

    The draws are the library's: the same seeded points and the library's
    ``commutator_triple``.  At each sample S the three tangent vectors
    [S, A_k] must be tangent and Hermitian, so the pairing is real and Omega
    vanishes; the report records the worst float residual and tangency or
    Hermitian defect, the smallest pairing of a nonzero tangent against its
    complex rotation, which must be positive, and any rank-2 span failure.
    """
    import random

    rng = random.Random(seed)
    basis = su2_basis(1j)
    max_omega = 0.0
    min_taming = math.inf
    max_tangent = 0.0
    rank_failures = 0
    for _ in range(n_samples):
        while True:
            raw = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            norm = math.sqrt(raw[0] * raw[0] + raw[1] * raw[1] + raw[2] * raw[2])
            if norm > 1e-6:
                break
        point = sphere_point(*(c / norm for c in raw))
        tangents = [symplectic.commutator_triple(point, a) for a in basis]
        for u, v in itertools.combinations(tangents, 2):
            max_omega = max(max_omega, abs(hermitian_pairing(u, v).imag))
        for u in tangents:
            u0, u1, u2 = u
            hermitian = max(abs(u0.imag), abs(u2 - u1.conjugate()))  # x real, z = conj(y)
            max_tangent = max(max_tangent, abs(tangency_residual(point, u)), hermitian)
            if abs(u0) + abs(u1) + abs(u2) > FLOAT_TOL:
                taming = -hermitian_pairing(u, (1j * u0, 1j * u1, 1j * u2)).imag
                min_taming = min(min_taming, taming)
        # a Hermitian traceless [[r, -p+iq], [-p-iq, -r]] has coordinates (p, q, r)
        if not rank_is_two([(-u1.real, u1.imag, u0.real) for u0, u1, _ in tangents]):
            rank_failures += 1
    passed = (
        max(max_omega, max_tangent) < FLOAT_TOL and rank_failures == 0 and min_taming > 0
    )
    return SphereReport(n_samples, max_omega, min_taming, max_tangent, rank_failures, passed)


# ------------------------------------------------------------ thimble grid

FIBER_TOL = 1e-12  # thimble fiber and sphere membership, closed forms in floats


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
