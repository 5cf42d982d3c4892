"""Seeded sample scans of the orbit identities, kept as the test oracle.

These are the loops that ``lgorbit.compactification`` replaced with
symbolic certificates modulo xw - yz - 1, and the value-by-value test of
degenerate fibers that its determinant certificate replaced, and the
eigenline pairs of twelve rational sphere points that its sphere certificate
replaced.  The scans draw
integer elements of SL(2), as entry tuples (x, y, z, w) of [[x, z], [y, w]],
and integer points of P1 x P1 or of the value line, and test each identity
at those points with ``ExactMatrix`` products and ``ExactMatrix.inverse``.
They share with the certificates only the formulas under test
(``tensor_entries``, ``moment_map``, ``rational_extension``,
``graph_equation``, ``is_singular_value``), evaluated at exact entries.
"""

import random
from fractions import Fraction
from typing import Iterator, Tuple

from lgorbit.compactification import (
    MultiProjPoint,
    base_locus,
    graph_equation,
    is_singular_value,
    moment_map,
    product,
    rational_extension,
    tensor_entries,
)
from lgorbit.errors import IndeterminatePointError, StructureError
from lgorbit.gaussian import ONE, ExactMatrix, GaussianRational
from lie_oracle import random_sl_integer, trace
from symplectic_oracle import RATIONAL_SPHERE_POINTS, exact_sphere_point

_HALF_DIAG = ExactMatrix([[Fraction(1, 2), 0], [0, Fraction(-1, 2)]])
_HEIGHT_DIAG = ExactMatrix([[1, 0], [0, -1]])

# The entries (x, y, z, w) of a group element [[x, z], [y, w]]
Entries = Tuple[GaussianRational, GaussianRational, GaussianRational, GaussianRational]


def exact_matrix(a: Entries) -> ExactMatrix:
    x, y, z, w = a
    return ExactMatrix([[x, z], [y, w]])


def random_group_elements(count: int, seed: int = 0) -> Tuple[Entries, ...]:
    """Seeded integer elements of SL(2), products of integer shears."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = random_sl_integer(2, rng)
        out.append((m[0, 0], m[1, 0], m[0, 1], m[1, 1]))
    return tuple(out)


def random_pairs(rng: random.Random) -> Iterator[MultiProjPoint]:
    """Endless seeded points of P1 x P1 with integer coordinates in [-5, 5]."""
    while True:
        coords = [rng.randint(-5, 5) for _ in range(4)]
        if any(coords[:2]) and any(coords[2:]):
            yield MultiProjPoint((coords[:2], coords[2:]))


def tensor_fixed_vectors_check(a: Entries) -> bool:
    """The projector has trace 1, fixes column one and annihilates column two."""
    x, y, z, w = a
    m = ExactMatrix(tensor_entries(*a))
    if trace(m) != GaussianRational(1):
        return False
    first = ExactMatrix([[x], [y]])
    second = ExactMatrix([[z], [w]])
    return m * first == first and m * second == ExactMatrix([[0], [0]])


def moment_orbit_check(a: Entries) -> bool:
    """Moment matrix equals conjugation of diag(1/2, -1/2), column one an eigenvector."""
    x, y, _, _ = a
    m = ExactMatrix(moment_map(*a))
    g = exact_matrix(a)
    if m != g * _HALF_DIAG * g.inverse():
        return False
    col = ExactMatrix([[x], [y]])
    return m * col == ExactMatrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]]) * col


def moment_orbit_scan(count: int = 100, seed: int = 0) -> bool:
    return all(moment_orbit_check(a) for a in random_group_elements(count, seed))


def base_locus_scan(samples: int = 25, seed: int = 0) -> bool:
    """Over the torus-fixed and seeded points the map fails exactly on the base points."""
    fixed = ((1, 0), (0, 1))
    candidates = [MultiProjPoint((f1, f2)) for f1 in fixed for f2 in fixed]
    points = random_pairs(random.Random(seed))
    candidates += [next(points) for _ in range(samples)]
    locus = [MultiProjPoint(pt) for pt in base_locus()]
    for pt in candidates:
        try:
            rational_extension(pt)
            failed = False
        except IndeterminatePointError:
            failed = True
        if failed != (pt == locus[0] or pt == locus[1]):
            return False
    return True


def scaling_invariance_check(count: int = 25, seed: int = 1) -> bool:
    """Rescaling either factor's representative never moves the value."""
    rng = random.Random(seed)
    points = random_pairs(rng)
    done = 0
    while done < count:
        pt = next(points)
        try:
            value = rational_extension(pt)
        except IndeterminatePointError:
            continue
        scalars = []
        while len(scalars) < 2:
            candidate = GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))
            if not candidate.is_zero():
                scalars.append(candidate)
        scaled = MultiProjPoint(
            (
                tuple(c * scalars[0] for c in pt.factors[0]),
                tuple(c * scalars[1] for c in pt.factors[1]),
            )
        )
        if rational_extension(scaled) != value:
            return False
        done += 1
    return True


def orbit_value_identity(count: int = 100, seed: int = 2) -> bool:
    """On eigenline pairs of orbit matrices the extension is [height : 1]."""
    for x, y, z, w in random_group_elements(count, seed):
        height = trace(_HEIGHT_DIAG * ExactMatrix(moment_map(x, y, z, w)))
        if rational_extension(MultiProjPoint(((x, y), (z, w)))) != MultiProjPoint(((height, 1),)):
            return False
    return True


def graph_vanishing_check(samples: int = 20, seed: int = 3) -> bool:
    """The graph equation vanishes on (point, extension value) pairs."""
    points = random_pairs(random.Random(seed))
    done = 0
    while done < samples:
        pt = next(points)
        try:
            value = rational_extension(pt)
        except IndeterminatePointError:
            continue
        (x, y), (z, w) = pt.factors
        (r, s) = value.factors[0]
        if graph_equation(x, y, z, w, r, s):
            return False
        done += 1
    return True


def singular_value_agrees(r: int, s: int, scalar: GaussianRational) -> bool:
    """The determinant test over [r : s] matches the closed form r^2 = s^2.

    Rescaling the value pair by ``scalar`` must leave the answer unchanged,
    since the test is of a point of P1.
    """
    singular = is_singular_value(r, s)
    return singular == (r * r == s * s) and is_singular_value(r * scalar, s * scalar) == singular


def sphere_point_orbit_pair(p: Fraction, q: Fraction, r: Fraction) -> MultiProjPoint:
    """Eigenline pair of the orbit matrix attached to a rational sphere point.

    The point maps to X = r, Y = -p + qi, Z = -p - qi, which satisfies
    X^2 + YZ = 1; a point off the sphere is rejected.  The eigenlines for 1
    and -1 are (Y, 1 - X) and (Y, -(X + 1)), and at the poles, where Y = 0
    makes one of them zero, (X + 1, Z) and (X - 1, Z).
    """
    big_x, big_y, big_z = exact_sphere_point(p, q, r)
    if big_y.is_zero() and big_x == ONE:
        plus = (big_x + ONE, big_z)
    else:
        plus = (big_y, ONE - big_x)
    if big_y.is_zero() and big_x == -ONE:
        minus = (big_x - ONE, big_z)
    else:
        minus = (big_y, -(big_x + ONE))
    pair = MultiProjPoint((plus, minus))
    matrix = ((big_x, big_y), (big_z, -big_x))
    for line, eigenvalue in ((plus, ONE), (minus, -ONE)):
        if product(matrix, tuple((e,) for e in line)) != tuple((eigenvalue * e,) for e in line):
            raise StructureError("eigenline certificates failed")
    return pair


def sphere_avoids_base_locus(points=RATIONAL_SPHERE_POINTS) -> bool:
    """Each point's eigenline pair is off the diagonal and is neither base point."""
    locus = [MultiProjPoint(pt) for pt in base_locus()]
    for p, q, r in points:
        pair = sphere_point_orbit_pair(p, q, r)
        (u1, u2), (v1, v2) = pair.factors
        if (u1 * v2 - u2 * v1).is_zero():
            return False
        if pair == locus[0] or pair == locus[1]:
            return False
    return True
