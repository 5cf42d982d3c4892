"""Finite-difference Hessians and seeded conjugates, kept as the test oracle.

The float chart computations are those that ``lgorbit.lie`` replaced with
the exact closed-form Hessian.  They share only the chart directions and
the critical-point test with the library, and need numpy and scipy, which
only the tests depend on.  The central-difference truncation error is
O(step^2).

The seeded integer conjugates and the power-sum membership test are the
sample loop that ``compactification.orbit_membership_certificate``
replaced; they use ``ExactMatrix`` products and ``ExactMatrix.inverse``
and share nothing with the certificate.
"""

import random
from fractions import Fraction
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

from lgorbit.errors import PreconditionError, StructureError
from lgorbit.gaussian import ZERO, ExactMatrix, GaussianRational
from lgorbit.lie import CartanDiagonal, _chart_directions, _require_critical

Chart = Tuple[Callable[[np.ndarray], complex], int]


def _sl2_chart_value(h: CartanDiagonal, a: Fraction, y: complex, z: complex) -> complex:
    # branch of x = sqrt(a^2 - yz) through x(0, 0) = a
    root = complex(a) * np.sqrt(1 - (y * z) / complex(a) ** 2)
    k = complex(h.diag[0])
    return 2 * k * root


def _expm_chart_value(
    h: CartanDiagonal, point: Sequence[Fraction], directions, u: np.ndarray
) -> complex:
    n = h.n
    z = np.zeros((n, n), dtype=complex)
    for coord, (i, j) in zip(u, directions):
        z[i, j] = coord
    g = expm(z)
    p = np.diag([complex(c) for c in point])
    conj = g @ p @ expm(-z)
    return complex(sum(complex(h.diag[i]) * conj[i, i] for i in range(n)))


def _chart(h: CartanDiagonal, pt: Tuple[Fraction, ...], sl2: bool) -> Chart:
    """The height in a chart at ``pt`` and the chart's dimension.

    The sl(2) chart solves the orbit equation for x near the first entry;
    the other chart is exp(ad) along the root directions that move ``pt``,
    the chart of ``lgorbit.lie.hessian_matrix``.
    """
    if sl2:
        a = pt[0]
        if a == 0:
            raise PreconditionError("sl(2) chart needs a nonzero first entry")
        return (lambda u: _sl2_chart_value(h, a, u[0], u[1])), 2
    directions = _chart_directions(pt)
    if not directions:
        raise PreconditionError("point admits no moving directions")
    return (lambda u: _expm_chart_value(h, pt, directions, u)), len(directions)


def _central_hessian(f: Callable[[np.ndarray], complex], dim: int, step: float) -> np.ndarray:
    hess = np.zeros((dim, dim), dtype=complex)
    f0 = f(np.zeros(dim))
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = step
        hess[i, i] = (f(ei) - 2 * f0 + f(-ei)) / step**2
        for j in range(i + 1, dim):
            ej = np.zeros(dim)
            ej[j] = step
            value = (
                f(ei + ej) - f(ei - ej) - f(-ei + ej) + f(-ei - ej)
            ) / (4 * step**2)
            hess[i, j] = value
            hess[j, i] = value
    return hess


def hessian_matrix(
    h0: CartanDiagonal, h: CartanDiagonal, point: Sequence, step: float = 1e-4
) -> np.ndarray:
    """Complex Hessian at a critical point: the sl(2) chart for n = 2,
    exp(ad) for larger n."""
    pt = _require_critical(h0, h, point)
    return _central_hessian(*_chart(h, pt, h0.n == 2), step)


def expm_hessian_matrix(
    h0: CartanDiagonal, h: CartanDiagonal, point: Sequence, step: float = 1e-4
) -> np.ndarray:
    """Complex Hessian at a critical point in the exp(ad) chart for every n."""
    pt = _require_critical(h0, h, point)
    return _central_hessian(*_chart(h, pt, False), step)


def hessian_determinant(
    h0: CartanDiagonal, h: CartanDiagonal, point: Sequence, step: float = 1e-4
) -> complex:
    return complex(np.linalg.det(hessian_matrix(h0, h, point, step)))


def gradient_norm(
    h0: CartanDiagonal,
    h: CartanDiagonal,
    point: Sequence,
    step: float = 1e-5,
) -> float:
    """Max first-difference of the height in the chart directions at ``point``.

    Unlike the Hessian entry points this accepts non-critical diagonals, so
    tests can watch the gradient fail to vanish away from the critical set.
    """
    pt = tuple(Fraction(p) for p in point)
    f, dim = _chart(h, pt, h0.n == 2)
    worst = 0.0
    for i in range(dim):
        ei = np.zeros(dim)
        ei[i] = step
        worst = max(worst, abs((f(ei) - f(-ei)) / (2 * step)))
    return worst


# ------------------------------------------------------ seeded conjugates


def trace(a: ExactMatrix) -> GaussianRational:
    return sum((a[i, i] for i in range(a.rows)), ZERO)


def random_sl_integer(n: int, rng: random.Random, length: int = 8) -> ExactMatrix:
    """Random integer matrix of determinant one, a product of shears."""
    if n < 2:
        raise StructureError("need n >= 2")
    rows = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
    for _ in range(length):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        c = rng.choice((-2, -1, 1, 2))
        # right multiplication by the shear I + c E_ij adds c * column i to column j
        for row in rows:
            row[j] += c * row[i]
    return ExactMatrix(rows)


def conjugate_exact(g: ExactMatrix, a: ExactMatrix) -> ExactMatrix:
    return g * a * g.inverse()


def orbit_contains_exact(h0: CartanDiagonal, a: ExactMatrix) -> bool:
    """Compare power sums tr(A^k), k = 1..n (Newton identities).

    Over a field of characteristic zero equal power sums up to n are
    equivalent to an equal characteristic polynomial, hence to an equal
    eigenvalue multiset.  For n = 2 this is the x^2 + yz = const test
    written invariantly.
    """
    n = h0.n
    if a.rows != n or a.cols != n:
        raise StructureError("size mismatch between H0 and A")
    power = a
    for k in range(1, n + 1):
        target = sum((GaussianRational(d) ** k for d in h0.diag), ZERO)
        if trace(power) != target:
            return False
        if k < n:
            power = power * a
    return True
