"""Adjoint orbits of sl(n, C): height functions, critical points, Hessians.

The orbit of a diagonal traceless matrix H0 under conjugation is studied
through the height function A -> tr(H A) attached to a regular diagonal H.
It owns the sl(2) orbit x^2 + yz = 1 of diag(1, -1) and the 2x2 algebra of
SL(2).  Matrices are nested tuples over any ring (``poly.product``), and each
polynomial claim is an identity function that ``poly.certify`` checks: orbit
membership, the sl(2) critical locus and heights, and the chart Hessian at a
diagonal point.  Counts, Hessian entries and determinants are exact rationals.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import List, Sequence, Set, Tuple

from .errors import PreconditionError, StructureError
from .poly import Rational, exact, product


class CartanDiagonal(namedtuple("CartanDiagonal", "diag")):
    """Diagonal traceless data, kept exact: ints where integral, else Fractions."""

    __slots__ = ()

    def __new__(cls, diag: Sequence):
        entries = tuple(exact(Fraction(d)) for d in diag)
        if len(entries) < 2:
            raise StructureError("need at least a 2x2 diagonal")
        if sum(entries) != 0:
            raise StructureError(f"diagonal {entries} does not sum to zero")
        return super().__new__(cls, entries)

    @property
    def n(self) -> int:
        return len(self.diag)

    @property
    def regular(self) -> bool:
        return len(set(self.diag)) == len(self.diag)


SL2_BASE = CartanDiagonal((1, -1))  # the sl(2) orbit's base point, also its height direction


def diagonal(values: Sequence) -> tuple:
    n = len(values)
    return tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n))


def bracket(a, b) -> tuple:
    """The commutator [a, b] = ab - ba of two square nested-tuple matrices."""
    return tuple(tuple(s - t for s, t in zip(r, q)) for r, q in zip(product(a, b), product(b, a)))


def height(h: CartanDiagonal, a):
    """The height tr(H A) of a square matrix A."""
    return sum(d * a[i][i] for i, d in enumerate(h.diag))


def orbit_residual(point):
    """x^2 + yz - 1 at (x, y, z) over any ring: zero exactly on the sl(2) orbit."""
    x, y, z = point
    return x * x + y * z - 1


# The 2x2 algebra of a = [[x, z], [y, w]] in SL(2), written once over any ring
# on the four entries: callers pass exact entries, certificates symbols.
def trace(m):
    return m[0][0] + m[1][1]


def determinant(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def group_matrix(x, y, z, w):
    return ((x, z), (y, w))


def adjugate(x, y, z, w):
    """Adjugate of [[x, z], [y, w]], its inverse when the determinant is 1."""
    return ((w, -z), (-y, x))


def modulo_r(x, y, z, w, *pairs):
    """Each (difference, q) as the identity difference = q R, R = det(a) - 1."""
    relation = determinant(group_matrix(x, y, z, w)) - 1
    return [(difference, ((relation, q),)) for difference, q in pairs]


def orbit_membership_identities(x, y, z, w):
    """M = a diag(1, -1) adj(a), a conjugate on SL(2), has trace 0 and
    x^2 + yz - 1 = R (R + 2) on its coordinates: every one is on the orbit."""
    m = product(product(group_matrix(x, y, z, w), diagonal((1, -1))), adjugate(x, y, z, w))
    residual = orbit_residual((m[0][0], m[0][1], m[1][0]))
    return modulo_r(x, y, z, w, (trace(m), 0), (residual, x * w - y * z + 1))


def sl2_critical_identities(x, y, z):
    """The critical locus of tr(H .) on the sl(2) orbit x^2 + yz = 1: at
    X = [[x, y], [z, -x]] and H = diag(1, -1), [X, H] = [[0, -2y], [2z, 0]],
    so a critical X has y = z = 0, and then x^2 - 1 = (x^2 + yz - 1) - y z
    vanishes: x = 1 or -1, at the heights tr(H X) = 2x = 2 and -2.

    Lemma (every n; Gasparim, Grama and San Martin, Forum Math. 28, 2016):
    X on the orbit is critical for tr(H .) iff [X, H] = 0.  For regular
    diagonal H, [X, H] has entries (h_j - h_i) x_ij, so X is diagonal, and a
    diagonal matrix has H0's characteristic polynomial iff its entries are a
    permutation of H0's (Vieta).  ``critical_points`` lists those.
    """
    h, a = SL2_BASE, ((x, y), (z, -x))
    c = bracket(a, diagonal(h.diag))
    return [(c[0][0], ()), (c[0][1] + 2 * y, ()), (c[1][0] - 2 * z, ()), (c[1][1], ()),
            (height(h, a) - 2 * x, ()), (x * x - 1, ((orbit_residual((x, y, z)), 1), (y, -z)))]


def _regular_height(h0: CartanDiagonal, h: CartanDiagonal) -> None:
    if h0.n != h.n:
        raise StructureError("H0 and H must have one size")
    if not h.regular:
        raise PreconditionError("height diagonal H must be regular")


def critical_points(h0: CartanDiagonal, h: CartanDiagonal) -> Set[Tuple[Rational, ...]]:
    """Diagonals of the critical points of tr(H .) on the orbit of H0: for
    regular H, the permutations of H0's diagonal (``sl2_critical_identities``
    states the lemma); repeated H0 entries collapse the set."""
    _regular_height(h0, h)
    return set(itertools.permutations(h0.diag))


def critical_count(h0: CartanDiagonal, h: CartanDiagonal) -> int:
    """n! divided by the factorials of the multiplicities of H0's entries."""
    _regular_height(h0, h)
    count = math.factorial(h0.n)
    for value in set(h0.diag):
        count //= math.factorial(h0.diag.count(value))
    return count


def _chart_directions(point: Sequence) -> List[Tuple[int, int]]:
    return [(i, j) for i, p in enumerate(point) for j, q in enumerate(point) if p != q]


def hessian_matrix(h0: CartanDiagonal, h: CartanDiagonal, point: Sequence) -> tuple:
    """Exact Hessian of the height at a diagonal point P of the orbit, which
    commutes with H and so is critical for every diagonal H.

    The chart is u -> exp(Z) P exp(-Z), Z = sum u_ij E_ij over the directions
    with p_i != p_j in ``_chart_directions`` order.  (p_j - p_i)(h_j - h_i)
    pairs each E_ij with E_ji, and ``hessian_identities`` certifies that.
    """
    pt = tuple(exact(Fraction(p)) for p in point)
    if h.n != h0.n or sorted(pt) != sorted(h0.diag):
        raise PreconditionError(f"{pt} is not a diagonal point of the orbit of H0 for H")
    directions = _chart_directions(pt)
    return tuple(tuple((pt[j] - pt[i]) * (h.diag[j] - h.diag[i]) if (k, l) == (j, i) else 0
                       for k, l in directions) for i, j in directions)


def hessian_identities(h0: CartanDiagonal, h: CartanDiagonal, point: Sequence, *u):
    """q(Z) = tr(H [Z, [Z, P]]) minus sum_ab M_ab u_a u_b is 0, at Z = sum u_a E_a
    over the chart directions and M = ``hessian_matrix``.  The height in the
    chart is tr(H P) + q(Z) / 2 + O(Z^3), as tr(H [Z, P]) = 0 for diagonal H
    and P, so M is its Hessian."""
    matrix = hessian_matrix(h0, h, point)
    if len(u) != len(matrix):
        raise StructureError(f"need one symbol per chart direction, {len(matrix)}")
    coordinate = dict(zip(_chart_directions(point), u))
    z = tuple(tuple(coordinate.get((i, j), 0) for j in range(h.n)) for i in range(h.n))
    q = height(h, bracket(z, bracket(z, diagonal(point))))
    quadratic = sum(e * u[a] * u[b] for a, row in enumerate(matrix) for b, e in enumerate(row) if e)
    return [(q - quadratic, ())]


def hessian_determinant(h0: CartanDiagonal, h: CartanDiagonal, point: Sequence) -> Rational:
    """Determinant of ``hessian_matrix``: row E_ij has its one nonzero entry in
    column E_ji, so it is that pairing's sign times the product of those entries."""
    matrix = hessian_matrix(h0, h, point)
    directions = _chart_directions(point)
    pairing = [directions.index((j, i)) for i, j in directions]
    return (-1) ** (len(directions) // 2) * math.prod(row[b] for row, b in zip(matrix, pairing))


# perfbench/tracer.py still looks up the sampler that the orbit-membership
# certificate replaced.  The name stays bound to a stand-in that nothing
# calls, so the tracer finds it and times no other code under it.
def random_sl_integer(*args, **kwargs):
    raise NotImplementedError("the seeded sampler was replaced by an exact certificate")
