"""Finite-difference Hessians and gradients of the height, kept as the test oracle.

These are the float chart computations that ``lgorbit.lie`` replaced with
the exact closed-form Hessian.  They share only the chart directions and
the critical-point test with the library, and need numpy and scipy, which
only the tests depend on.  The central-difference truncation error is
O(step^2).
"""

from fractions import Fraction
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

from lgorbit.errors import PreconditionError
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
