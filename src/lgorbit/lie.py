"""Adjoint orbits of sl(n, C): height functions, critical points, Hessians.

The orbit of a diagonal traceless matrix H0 under conjugation is studied
through the height function A -> tr(H A) attached to a regular diagonal H.
Critical points are the diagonal matrices with permuted H0 entries; their
count, their heights and their chart Hessians are exact, all over the
Gaussian rationals.  Orbit membership of the conjugates is certified as a
cofactor identity in ``compactification``, not computed here.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import List, Sequence, Set, Tuple

from .errors import PreconditionError, StructureError
from .gaussian import ZERO, ExactMatrix, GaussianRational


class CartanDiagonal(namedtuple("CartanDiagonal", "diag")):
    """Diagonal traceless data, kept exact as Fractions."""

    __slots__ = ()

    def __new__(cls, diag: Sequence):
        entries = tuple(Fraction(d) for d in diag)
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

    def as_exact_matrix(self) -> ExactMatrix:
        return ExactMatrix.diagonal([GaussianRational(d) for d in self.diag])


def height_exact(h: CartanDiagonal, a: ExactMatrix) -> GaussianRational:
    if a.rows != h.n or a.cols != h.n:
        raise StructureError("size mismatch between H and A")
    total = ZERO
    for i in range(h.n):
        total = total + GaussianRational(h.diag[i]) * a[i, i]
    return total


def sl2_orbit_coordinates(a: ExactMatrix) -> Tuple[GaussianRational, ...]:
    """Read (x, y, z) off a 2x2 traceless matrix [[x, y], [z, -x]]."""
    if a.rows != 2 or a.cols != 2:
        raise StructureError("expected a 2x2 matrix")
    if a[0, 0] != -a[1, 1]:
        raise StructureError("matrix is not traceless")
    return (a[0, 0], a[0, 1], a[1, 0])


# ----------------------------------------------------------- critical points


def critical_points(h0: CartanDiagonal, h: CartanDiagonal) -> Set[Tuple[Fraction, ...]]:
    """Diagonals of the critical points of the height tr(H .) on the orbit of H0.

    For regular H these are exactly the coordinate permutations of H0's
    diagonal; repeated H0 entries collapse the set.
    """
    if h0.n != h.n:
        raise StructureError("H0 and H must have one size")
    if not h.regular:
        raise PreconditionError("height diagonal H must be regular")
    return set(itertools.permutations(h0.diag))


def critical_count(h0: CartanDiagonal, h: CartanDiagonal) -> int:
    """n! divided by the factorials of the multiplicities of H0's entries."""
    if h0.n != h.n:
        raise StructureError("H0 and H must have one size")
    if not h.regular:
        raise PreconditionError("height diagonal H must be regular")
    count = math.factorial(h0.n)
    for value in set(h0.diag):
        count //= math.factorial(h0.diag.count(value))
    return count


def _chart_directions(point: Sequence[Fraction]) -> List[Tuple[int, int]]:
    n = len(point)
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j and point[i] != point[j]
    ]


def _require_critical(h0: CartanDiagonal, h: CartanDiagonal, point: Sequence) -> Tuple[Fraction, ...]:
    pt = tuple(Fraction(p) for p in point)
    if pt not in critical_points(h0, h):
        raise PreconditionError(f"{pt} is not a critical point of this height")
    return pt


def hessian_matrix(h0: CartanDiagonal, h: CartanDiagonal, point: Sequence) -> ExactMatrix:
    """Exact Hessian of the height at a critical point P in the exp(ad) chart.

    The chart is u -> exp(Z) P exp(-Z) with Z = sum u_ij E_ij over the root
    directions (i, j) with p_i != p_j, in ``_chart_directions`` order.  The
    quadratic term of tr(H .) is q(Z) / 2 with q(Z) = tr(H [Z, [Z, P]]); the
    entries are q(E_a) on the diagonal and the polarization
    (q(E_a + E_b) - q(E_a) - q(E_b)) / 2 off it, evaluated with exact
    commutators.  In closed form the Hessian pairs each E_ij with E_ji by
    (p_j - p_i)(h_j - h_i) and has no other entries (Gasparim, Grama and
    San Martin, Forum Math. 2016).
    """
    pt = _require_critical(h0, h, point)
    directions = _chart_directions(pt)
    if not directions:
        raise PreconditionError("critical point admits no moving directions")
    n = len(pt)
    p = ExactMatrix.diagonal([GaussianRational(x) for x in pt])

    def q(*support: Tuple[int, int]) -> Fraction:
        z = ExactMatrix([[1 if (r, s) in support else 0 for s in range(n)] for r in range(n)])
        zp = z * p - p * z
        return height_exact(h, z * zp - zp * z).re

    square = [q(d) for d in directions]
    entries = [[Fraction(0)] * len(directions) for _ in directions]
    for a, da in enumerate(directions):
        entries[a][a] = square[a]
        for b in range(a + 1, len(directions)):
            mixed = (q(da, directions[b]) - square[a] - square[b]) / 2
            entries[a][b] = entries[b][a] = mixed
    return ExactMatrix(entries)


def hessian_determinant(h0: CartanDiagonal, h: CartanDiagonal, point: Sequence) -> Fraction:
    """Determinant of the exact chart Hessian; its entries are rational, so is it."""
    return hessian_matrix(h0, h, point).det().re


# perfbench/tracer.py still looks up the sampler that the orbit-membership
# certificate replaced.  The name stays bound to a stand-in that nothing
# calls, so the tracer finds it and times no other code under it.
def random_sl_integer(*args, **kwargs):
    raise NotImplementedError("the seeded sampler was replaced by an exact certificate")
