"""Seeded sample scans of the orbit identities, kept as the test oracle.

These are the loops that ``lgorbit.compactification`` replaced with
symbolic certificates modulo xw - yz - 1, the value-by-value test of
degenerate fibers that its determinant certificate replaced, the
monomial-choice enumeration of the base locus that its two identities
replaced, and the eigenline pairs of twelve rational sphere points that its
sphere certificate replaced.  The scans draw integer elements of SL(2), as
entry tuples (x, y, z, w) of [[x, z], [y, w]], and integer points of
P1 x P1 or of the value line, and test each identity at those points with
``ExactMatrix`` products and ``ExactMatrix.inverse``.  A point is a pair of
coordinate pairs, compared factor by factor with ``parallel``.  The scans
share with the certificates only the formulas under test
(``tensor_entries``, ``moment_map``, ``height_forms``,
``rational_extension``, ``graph_equation``, ``coefficient_matrix``),
evaluated at exact entries.
"""

import functools
import itertools
import random
from fractions import Fraction
from typing import Iterator, Tuple

from gaussian_oracle import ONE, GaussianRational
from lgorbit import compactification as cg
from lgorbit.compactification import (
    coefficient_matrix,
    graph_equation,
    moment_map,
    parallel,
    rational_extension,
    tensor_entries,
)
from lgorbit.errors import IndeterminatePointError, PreconditionError, StructureError
from lgorbit.gaussian import ExactMatrix
from lgorbit.lie import determinant
from lgorbit.poly import product, variables
from lie_oracle import random_sl_integer, trace
from symplectic_oracle import RATIONAL_SPHERE_POINTS, exact_sphere_point

_HALF_DIAG = ExactMatrix([[Fraction(1, 2), 0], [0, Fraction(-1, 2)]])
_HEIGHT_DIAG = ExactMatrix([[1, 0], [0, -1]])

# The entries (x, y, z, w) of a group element [[x, z], [y, w]]
Entries = Tuple[GaussianRational, GaussianRational, GaussianRational, GaussianRational]
# A point ((x, y), (z, w)) of P1 x P1
Point = Tuple[Tuple[GaussianRational, GaussianRational], Tuple[GaussianRational, GaussianRational]]


def same_point(a, b) -> bool:
    """Projective equality of two points of a product of lines, factor by factor."""
    return len(a) == len(b) and all(map(parallel, a, b))


def exact_matrix(a: Entries) -> ExactMatrix:
    x, y, z, w = a
    return ExactMatrix([[x, z], [y, w]])


def random_group_elements(count: int, seed: int = 0) -> Tuple[Entries, ...]:
    """Seeded integer elements of SL(2), products of integer shears."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = random_sl_integer(2, rng)
        (x, z), (y, w) = m.entries
        out.append((x, y, z, w))
    return tuple(out)


def random_pairs(rng: random.Random) -> Iterator[Point]:
    """Endless seeded points of P1 x P1 with integer coordinates in [-5, 5]."""
    while True:
        coords = [rng.randint(-5, 5) for _ in range(4)]
        if any(coords[:2]) and any(coords[2:]):
            yield tuple(coords[:2]), tuple(coords[2:])


def tensor_fixed_vectors_check(a: Entries) -> bool:
    """The projector has trace 1, fixes column one and annihilates column two."""
    x, y, z, w = a
    m = ExactMatrix(tensor_entries(*a))
    if trace(m) != 1:
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
    candidates = [(f1, f2) for f1 in fixed for f2 in fixed]
    points = random_pairs(random.Random(seed))
    candidates += [next(points) for _ in range(samples)]
    for pt in candidates:
        try:
            rational_extension(*pt)
            failed = False
        except IndeterminatePointError:
            failed = True
        if failed != any(same_point(pt, q) for q in cg.base_locus()):
            return False
    return True


def base_locus_enumeration() -> bool:
    """The extension is undefined exactly on ``base_locus()``, by enumeration.

    An invertible coefficient matrix on their support makes the forms
    generate its monomials, (xw, yz) as 1/2 is a unit.  Each choice of one
    variable per monomial to vanish gives a point, nothing when it zeroes a
    factor, or a curve when it leaves one free.  The points must be the
    claimed ones, and at the torus-fixed points the extension raises exactly
    there.
    """
    forms = cg.height_forms(*variables("x y z w"))
    support = sorted({key for f in forms for key in f.terms})
    matrix = [[f.terms.get(key, 0) for key in support] for f in forms]
    if len(support) != len(forms) or not determinant(matrix):
        return False
    found = []
    for choice in itertools.product(*([i for i, e in enumerate(k) if e] for k in support)):
        zeroed = [(i in choice, i + 1 in choice) for i in (0, 2)]  # (x, y), (z, w)
        if (True, True) in zeroed:
            continue
        if (False, False) in zeroed:
            return False
        found.append(tuple((int(not u), int(not v)) for u, v in zeroed))
    locus = cg.base_locus()
    if not all(any(same_point(p, q) for q in b) for a, b in ((found, locus), (locus, found))
               for p in a):
        return False
    fixed = ((1, 0), (0, 1))
    for pt in ((f1, f2) for f1 in fixed for f2 in fixed):
        try:
            rational_extension(*pt)
            raised = False
        except IndeterminatePointError:
            raised = True
        if raised != any(same_point(pt, q) for q in locus):
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
            value = rational_extension(*pt)
        except IndeterminatePointError:
            continue
        scalars = []
        while len(scalars) < 2:
            candidate = GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4))
            if not candidate.is_zero():
                scalars.append(candidate)
        scaled = tuple(tuple(c * scalar for c in factor) for factor, scalar in zip(pt, scalars))
        if not parallel(rational_extension(*scaled), value):
            return False
        done += 1
    return True


def orbit_value_identity(count: int = 100, seed: int = 2) -> bool:
    """On eigenline pairs of orbit matrices the extension is [height : 1]."""
    for x, y, z, w in random_group_elements(count, seed):
        height = trace(_HEIGHT_DIAG * ExactMatrix(moment_map(x, y, z, w)))
        if not parallel(rational_extension((x, y), (z, w)), (height, 1)):
            return False
    return True


def graph_vanishing_check(samples: int = 20, seed: int = 3) -> bool:
    """The graph equation vanishes on (point, extension value) pairs."""
    points = random_pairs(random.Random(seed))
    done = 0
    while done < samples:
        pt = next(points)
        try:
            r, s = rational_extension(*pt)
        except IndeterminatePointError:
            continue
        (x, y), (z, w) = pt
        if graph_equation(x, y, z, w, r, s):
            return False
        done += 1
    return True


def is_singular_value(r0, s0) -> bool:
    """Whether the fiber over [r0 : s0] degenerates.

    A bidegree-(1, 1) curve in P1 x P1 is singular exactly when the 2x2
    matrix of its coefficients is singular.
    """
    if not (r0 or s0):
        raise PreconditionError("fiber needs a nonzero value pair")
    return not determinant(coefficient_matrix(functools.partial(graph_equation, r=r0, s=s0)))


def singular_value_agrees(r: int, s: int, scalar: GaussianRational) -> bool:
    """The determinant test over [r : s] matches the closed form r^2 = s^2.

    Rescaling the value pair by ``scalar`` must leave the answer unchanged,
    since the test is of a point of P1.
    """
    singular = is_singular_value(r, s)
    return singular == (r * r == s * s) and is_singular_value(r * scalar, s * scalar) == singular


def sphere_point_orbit_pair(p: Fraction, q: Fraction, r: Fraction) -> Point:
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
    pair = (plus, minus)
    matrix = ((big_x, big_y), (big_z, -big_x))
    for line, eigenvalue in ((plus, ONE), (minus, -ONE)):
        if product(matrix, tuple((e,) for e in line)) != tuple((eigenvalue * e,) for e in line):
            raise StructureError("eigenline certificates failed")
    return pair


def sphere_avoids_base_locus(points=RATIONAL_SPHERE_POINTS) -> bool:
    """Each point's eigenline pair is off the diagonal and is neither base point."""
    for p, q, r in points:
        pair = sphere_point_orbit_pair(p, q, r)
        if parallel(*pair):
            return False
        if any(same_point(pair, b) for b in cg.base_locus()):
            return False
    return True
