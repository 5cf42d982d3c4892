"""Symplectic geometry of the affine quadric orbit x^2 + yz = 1.

Points are triples (x, y, z), the traceless matrices [[x, y], [z, -x]],
on which ``lie.orbit_residual`` is the orbit equation.  The real two-form is

    Omega(u, v) = -Im tr(M_u . M_v^dagger)
                = -Im (2 u1 conj(v1) + u2 conj(v2) + u3 conj(v3)),

the imaginary part of the Hermitian extension of the trace pairing.  The
sign makes Omega(u, iu) = tr(M_u M_u^dagger) > 0, so the complex structure
is tamed.  The exact claims are identity functions: the same formulas, over
any ring with unit i, give (difference, ((relation, cofactor), ...)) pairs
that ``poly.certify`` checks on real symbols and a symbol i, modulo i^2 + 1,
with conjugation sending i to -i and fixing the real symbols.  The sphere's
su(2) tangents are tangent, Hermitian and span exactly a plane, Omega
vanishes on them, the thimble chart lies in the sphere with Omega-null
tangents of positive norm, omega(v, iv) = h(v, v) is a positive-weight sum
of squares on C^3, and the cylinder chart inverts (x, y, z) -> y on a fiber.
Two checks run the formulas in floats: the seeded taming cross-check and
the gluing distance.  Their one bound is a pinned constant, not an option:
FLOAT_TOL = 1e-9 bounds the gluing row's residual and the unit-norm and
nonzero tests of the sampled sphere points and tangents.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from typing import Tuple

from .errors import PreconditionError
from .lie import determinant, orbit_residual

# a complex number, or a polynomial over real symbols and i
Triple = Tuple[object, object, object]

FLOAT_TOL = 1e-9


def tangency_residual(point: Triple, vec: Triple):
    """Differential of the orbit equation applied to vec: 2x u1 + z u2 + y u3."""
    x, y, z = point
    u1, u2, u3 = vec
    return 2 * x * u1 + z * u2 + y * u3


def hermitian_pairing(u: Triple, v: Triple):
    """tr(M_u . M_v^dagger) written out on triples of one scalar type.

    On polynomial triples ``conjugate`` sends i to -i and reads the other
    variables as real.
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


def su2_basis(i) -> Tuple[Tuple[Tuple[object, ...], ...], ...]:
    """Three anti-Hermitian traceless 2x2 matrices spanning su(2), over any ring with unit ``i``."""
    return (((i, 0), (0, -i)), ((0, 1), (-1, 0)), ((0, i), (i, 0)))


def commutator_triple(point: Triple, matrix) -> Triple:
    """[S, A] as a coordinate triple, where S is the matrix of ``point``.

    For S = [[x, y], [z, -x]] and a traceless A = [[a, b], [c, -a]] the
    commutator is [[yc - bz, 2(xb - ay)], [2(az - cx), bz - yc]].
    """
    x, y, z = point
    (a, b), (c, _) = matrix
    return (y * c - b * z, 2 * (x * b - a * y), 2 * (a * z - c * x))


def check_sphere_lagrangian(n_samples: int = 1000, seed: int = 0) -> float:
    """The smallest pairing of a nonzero su(2) tangent [S, A_k] against its
    complex rotation, over n_samples seeded points S of the sphere.

    It is the float cross-check of ``taming_identities``, and it must be
    positive; ``sphere_frame_identities`` and ``sphere_lagrangian_identities``
    certify the tangents themselves.
    """
    import random

    if n_samples < 1:  # the minimum over no sample would be inf
        raise PreconditionError("n_samples must be at least 1")
    rng = random.Random(seed)
    basis = su2_basis(1j)
    min_taming = math.inf
    for _ in range(n_samples):
        while True:
            raw = (rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            # left to right on every Python: from 3.12 sum() compensates floats
            norm = math.sqrt(raw[0] * raw[0] + raw[1] * raw[1] + raw[2] * raw[2])
            if norm > 1e-6:
                break
        point = sphere_point(*(c / norm for c in raw))
        for a in basis:
            u = commutator_triple(point, a)
            if abs(u[0]) + abs(u[1]) + abs(u[2]) > FLOAT_TOL:
                min_taming = min(min_taming, -hermitian_pairing(u, tuple(1j * c for c in u)).imag)
    return min_taming


def sphere_frame_identities(p, q, r, i):
    """The su(2) tangents frame the sphere's tangent plane, as identities.

    Over real symbols p, q, r, each tangent u = [S, A_k] at
    S = sphere_embedding(p, q, r, i) has tangency residual 0, u0 - conj(u0) = 0
    and u2 - conj(u1) = 0: it is tangent to the orbit and Hermitian, with real
    coordinates (Re u0, Re u1, Im u1).  On those three rows the determinant is
    0, and the squares of the nine 2x2 minors sum to 16 (S + 1)^2, where
    S = p^2 + q^2 + r^2 - 1; the identity states that sum minus 16 as
    16 S (S + 2).  So the rank is at most 2 on all of R^3 and exactly 2 on
    the sphere S = 0.
    """
    point = sphere_embedding(p, q, r, i)
    tangents = [commutator_triple(point, a) for a in su2_basis(i)]
    half = Fraction(1, 2)
    frame = [((u0 + u0.conjugate()) * half, (u1 + u1.conjugate()) * half,
              (u1.conjugate() - u1) * i * half) for u0, u1, _ in tangents]
    # each pair of rows and its three minors, the components of their cross product
    minors = [[determinant(((u[j], u[k]), (v[j], v[k]))) for j, k in ((1, 2), (2, 0), (0, 1))]
              for u, v in itertools.combinations(frame, 2)]
    differences = [d for u in tangents for d in (tangency_residual(point, u),
                                                 u[0] - u[0].conjugate(), u[2] - u[1].conjugate())]
    s = p * p + q * q + r * r - 1
    differences += [sum(c * m for c, m in zip(frame[2], minors[0])),
                    sum(m * m for pair in minors for m in pair) - 16 - 16 * s * (s + 2)]
    return [(d, ()) for d in differences]


def sphere_lagrangian_identities(p, q, r, i):
    """Omega vanishes on the su(2) tangents of the sphere, as identities.

    Over real symbols p, q, r, each pairing of two tangents [S, A_k] at
    S = sphere_embedding(p, q, r, i) minus its own conjugate is 0.  Then its
    imaginary part, minus Omega, is the zero polynomial on all of R^3.
    """
    point = sphere_embedding(p, q, r, i)
    tangents = [commutator_triple(point, a) for a in su2_basis(i)]
    pairings = (hermitian_pairing(u, v) for u, v in itertools.combinations(tangents, 2))
    return [(h - h.conjugate(), ()) for h in pairings]


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


def thimble_identities(lam, c, a, b, i):
    """The thimbles are Lagrangian disks in the sphere, as identities.

    Over real symbols lam, c, a, b with u = a + ib, modulo D = c^2 + lam^2 - 1
    and C = a^2 + b^2 - 1 (so c = sqrt(1 - lam^2) and u is on the unit
    circle), each identity lhs - rhs = q_D D + q_C C has the explicit
    cofactors below: the chart's orbit residual is D + c^2 C; x = lam and z
    is the conjugate of y, so the circle over 2 lam lies in the sphere; the
    tangencies of c d/dlam and d/dt are -2 lam c C and 0; their pairing is 0,
    so Omega vanishes; and their own pairings are 2 + 2D + 2 lam^2 C and
    2c^2 + 2c^2 C, that is 2 and 2(1 - lam^2), positive for |lam| < 1.
    """
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
    return [(diff, ((disk, q_d), (circle, q_c))) for diff, q_d, q_c in identities]


def taming_identities(p0, q0, p1, q1, p2, q2, i):
    """omega(v, Jv) = h(v, v), a positive-weight sum of squares on all of C^3.

    For v = (p0 + i q0, p1 + i q1, p2 + i q2) over real symbols,
    h(v, iv) = -i h(v, v), so omega(v, iv) = -Im h(v, iv) = h(v, v), and
    h(v, v) = 2(p0^2 + q0^2) + (p1^2 + q1^2) + (p2^2 + q2^2).
    """
    v = (p0 + i * q0, p1 + i * q1, p2 + i * q2)
    norm = hermitian_pairing(v, v)
    return [
        (hermitian_pairing(v, tuple(i * e for e in v)) + i * norm, ()),
        (norm - (2 * (p0 * p0 + q0 * q0) + (p1 * p1 + q1 * q1) + (p2 * p2 + q2 * q2)), ()),
    ]


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


def cylinder_chart_identities(lam, x, y, z, u):
    """The chart and (x, y, z) -> y are inverse maps between C* and the fiber x = lam.

    Over (lam, x, y, z, u), modulo yu - 1: the chart's orbit residual is
    (1 - lam^2)(yu - 1), and z minus the chart's z is -z(yu - 1)
    + u orbit_residual((x, y, z)) - u(x + lam)(x - lam).  For lam^2 != 1 the
    fiber has no point with y = 0, since yz = 1 - lam^2 there.
    """
    unit = y * u - 1
    chart = cylinder_chart(lam, y, u)
    return [
        (orbit_residual(chart), ((unit, 1 - lam * lam),)),
        (z - chart[2], ((unit, -z), (orbit_residual((x, y, z)), u), (x - lam, -u * (x + lam)))),
    ]
