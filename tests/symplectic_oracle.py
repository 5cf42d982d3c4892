"""The generic 2x2 matrix-product commutator, kept as the test oracle.

``lgorbit.symplectic.commutator_triple`` writes [S, A] in closed form for a
traceless A.  This is the product it replaced: S A - A S entry by entry,
which holds for any A and checks each operand for exact or float entries.
"""

from lgorbit.gaussian import GaussianRational


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
