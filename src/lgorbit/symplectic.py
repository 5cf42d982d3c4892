"""Symplectic geometry of the affine quadric orbit x^2 + yz = 1.

Points are triples (x, y, z), identified with traceless matrices
[[x, y], [z, -x]].  The real two-form is

    Omega(u, v) = -Im tr(M_u . M_v^dagger)
                = -Im (2 u1 conj(v1) + u2 conj(v2) + u3 conj(v3)),

the imaginary part of the Hermitian extension of the trace pairing.  The
sign makes Omega(u, iu) = tr(M_u M_u^dagger) > 0, so the complex structure
is tamed.  The sampled checks run the formulas in floats; the exact claims
are polynomial identities, the same formulas run on real symbols with
conjugation acting on coefficients only: Omega vanishes on the sphere's
su(2) tangents, the thimble chart lies in the sphere with Omega-null
tangents of positive norm, and omega(v, iv) = h(v, v) is a positive-weight
sum of squares on C^3.  The one float bound is a pinned constant, not an
option: FLOAT_TOL = 1e-9 bounds the residuals of sampled geometry (the
pairing, tangency and gluing rows of the report) and the unit-norm, rank
and nonzero tests.
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
    min_taming: float
    max_tangency_residual: float
    rank_failures: int
    passed: bool


def check_sphere_lagrangian(n_samples: int = 1000, seed: int = 0) -> SphereReport:
    """Sample the sphere; the su(2) commutators must span an Omega-null plane.

    At each sample S the three tangent vectors [S, A_k] must be tangent and
    Hermitian, so the pairing is real and Omega vanishes; the report records
    the worst float residual and tangency or Hermitian defect, the smallest
    pairing of a nonzero tangent against its complex rotation, which must be
    positive, and any rank-2 span failure.
    """
    import random

    rng = random.Random(seed)
    # the samples are floats, so convert the exact basis once, not per sample
    basis = [tuple(tuple(complex(e) for e in row) for row in a) for a in su2_basis()]
    max_omega = 0.0
    min_taming = math.inf
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
                min_taming = min(min_taming, taming)
        # a Hermitian traceless [[r, -p+iq], [-p-iq, -r]] has coordinates (p, q, r)
        if not _rank_is_two([(-u1.real, u1.imag, u0.real) for u0, u1, _ in tangents]):
            rank_failures += 1
    passed = (
        max(max_omega, max_tangent) < FLOAT_TOL and rank_failures == 0 and min_taming > 0
    )
    return SphereReport(n_samples, max_omega, min_taming, max_tangent, rank_failures, passed)


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


def thimble_chart(lam, c, u, ubar, i):
    """The thimble point (lam, c u, c ubar) and its tangents (c d/dlam, d/dt).

    Written over any ring with unit ``i``: with c = sqrt(1 - lam^2) and
    u = e^{it}, ubar = e^{-it} it is the circle over height 2*lam.  The
    lam-tangent is scaled by c, which c dc/dlam = -lam keeps polynomial:
    (c, -lam u, -lam ubar); the t-tangent is (0, i c u, -i c ubar).
    """
    point = (lam, c * u, c * ubar)
    return point, (c, -lam * u, -lam * ubar), (0, i * c * u, -i * c * ubar)


def thimble(lam: float, t: float) -> Triple:
    """Point of the matching-path thimble over height 2*lam.

    The circle at parameter t in the fiber over lam is
    (lam, e^{it} sqrt(1-lam^2), e^{-it} sqrt(1-lam^2)); lam runs through
    [-1, 1] along the real segment joining the two critical values.
    """
    if isinstance(lam, complex) or not -1.0 <= lam <= 1.0:
        raise PreconditionError("lam must be real in [-1, 1]")
    c = math.sqrt(max(0.0, 1.0 - lam * lam))
    return thimble_chart(complex(lam), c, cmath.exp(1j * t), cmath.exp(-1j * t), 1j)[0]


def thimble_certificate() -> bool:
    """The thimbles are Lagrangian disks in the sphere, as identities.

    Over real symbols lam, c, a, b with u = a + ib, modulo D = c^2 + lam^2 - 1
    and C = a^2 + b^2 - 1 (so c = sqrt(1 - lam^2) and u is on the unit
    circle), each identity lhs - rhs = q_D D + q_C C holds with the explicit
    cofactors below: the chart's orbit residual is D + c^2 C; x = lam and z
    is the conjugate of y, so the circle over 2 lam lies in the sphere; the
    tangencies of c d/dlam and d/dt are -2 lam c C and 0; their pairing is 0,
    so Omega vanishes; and their own pairings are 2 + 2D + 2 lam^2 C and
    2c^2 + 2c^2 C, that is 2 and 2(1 - lam^2), positive for |lam| < 1.
    """
    from .poly import MultiHomPoly

    lam, c, a, b = (MultiHomPoly.variable((tuple("lcab"),), v) for v in "lcab")
    i = GaussianRational(0, 1)
    u = a + i * b
    disk, circle = c * c + lam * lam - 1, a * a + b * b - 1
    point, d_lam, d_t = thimble_chart(lam, c, u, u.conjugate(), i)
    identities = (  # (lhs - rhs, q_D, q_C)
        (orbit_residual(point), 1, c * c),
        (point[0] - lam, 0, 0),
        (point[2] - point[1].conjugate(), 0, 0),
        (tangency_residual(point, d_lam), 0, -2 * lam * c),
        (tangency_residual(point, d_t), 0, 0),
        (hermitian_pairing(d_lam, d_t), 0, 0),
        (hermitian_pairing(d_lam, d_lam) - 2, 2, 2 * lam * lam),
        (hermitian_pairing(d_t, d_t) - 2 * c * c, 0, 2 * c * c),
    )
    return all(diff == disk * q_d + circle * q_c for diff, q_d, q_c in identities)


def taming_certificate() -> bool:
    """omega(v, Jv) = h(v, v), a positive-weight sum of squares on all of C^3.

    For v = (p0 + i q0, p1 + i q1, p2 + i q2) over real symbols,
    h(v, iv) = -i h(v, v), so omega(v, iv) = -Im h(v, iv) = h(v, v), and
    h(v, v) = 2(p0^2 + q0^2) + (p1^2 + q1^2) + (p2^2 + q2^2).
    """
    from .poly import MultiHomPoly

    names = ("p0", "q0", "p1", "q1", "p2", "q2")
    p0, q0, p1, q1, p2, q2 = (MultiHomPoly.variable((names,), v) for v in names)
    i = GaussianRational(0, 1)
    v = (p0 + i * q0, p1 + i * q1, p2 + i * q2)
    norm = hermitian_pairing(v, v)
    return hermitian_pairing(v, tuple(i * e for e in v)) == -i * norm and norm == (
        2 * (p0 * p0 + q0 * q0) + (p1 * p1 + q1 * q1) + (p2 * p2 + q2 * q2)
    )


def _replaced_grid(*args, **kwargs):
    raise NotImplementedError("the thimble grid was replaced by exact certificates")


# perfbench/tracer.py still looks up the grid check the certificates replaced.
# The name stays bound to a stand-in that nothing calls, so the tracer finds it
# and times no other code under it.
check_thimble_lagrangian = _replaced_grid


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
