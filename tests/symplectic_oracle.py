"""Matrix-product and pointwise versions of the symplectic formulas, kept as
the test oracle.

``lgorbit.symplectic.commutator_triple`` writes [S, A] in closed form for a
traceless A.  This is the product it replaced: S A - A S entry by entry,
which holds for any A and checks each operand for exact or float entries.

``lgorbit.symplectic.sphere_lagrangian_certificate`` proves Omega = 0 on the
sphere as an identity over real symbols.  Before it, the report evaluated the
pairings at the twelve rational sphere points below; those points and that
pointwise evaluation live here, with the pairing written as a sum over the
matrix entries rather than the library's closed form.
"""

import itertools
from fractions import Fraction

from lgorbit.errors import PreconditionError
from lgorbit.gaussian import GaussianRational
from lgorbit.symplectic import sphere_embedding, su2_basis

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
    return tuple(GaussianRational.coerce(c) for c in sphere_embedding(p, q, r, I))


def trace_pairing(u, v):
    """tr(M_u M_v^dagger), summed over the four matrix entries."""
    mu, mv = matrix_from_triple(u), matrix_from_triple(v)
    return sum(
        (mu[i][j] * mv[i][j].conjugate() for i in range(2) for j in range(2)),
        GaussianRational(0),
    )


def sphere_pairings(point):
    """The pairing of each two su(2) tangents [S, A_k] at an exact point."""
    tangents = [commutator_triple(point, a) for a in su2_basis()]
    return [trace_pairing(u, v) for u, v in itertools.combinations(tangents, 2)]


def exact_sphere_omega_residuals(points=RATIONAL_SPHERE_POINTS):
    """Omega = -Im of each pairing, at each point; all zero on a Lagrangian sphere."""
    return [-h.im for pt in points for h in sphere_pairings(exact_sphere_point(*pt))]
