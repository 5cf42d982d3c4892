"""Seeded sample scans of the orbit identities, kept as the test oracle.

These are the loops that ``lgorbit.compactification`` replaced with
symbolic certificates modulo xw - yz - 1, and the value-by-value test of
degenerate fibers that its determinant certificate replaced.  They draw
integer elements of SL(2), as entry tuples (x, y, z, w) of [[x, z], [y, w]],
and integer points of P1 x P1 or of the value line, and test each identity
at those points with ``ExactMatrix`` products and ``ExactMatrix.inverse``.
They share with the certificates only the formulas under test
(``tensor_entries``, ``moment_map``, ``rational_extension``,
``graph_surface``, ``is_singular_value``), evaluated at exact entries.
"""

import random
from fractions import Fraction
from typing import Iterator, Tuple

from lgorbit.compactification import (
    MultiProjPoint,
    base_locus,
    graph_surface,
    is_singular_value,
    moment_map,
    rational_extension,
    tensor_entries,
)
from lgorbit.errors import IndeterminatePointError
from lgorbit.gaussian import ExactMatrix, GaussianRational
from lie_oracle import random_sl_integer, trace

_HALF_DIAG = ExactMatrix.diagonal([Fraction(1, 2), Fraction(-1, 2)])
_HEIGHT_DIAG = ExactMatrix.diagonal([1, -1])

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
    return m * col == col.scale(Fraction(1, 2))


def moment_orbit_scan(count: int = 100, seed: int = 0) -> bool:
    return all(moment_orbit_check(a) for a in random_group_elements(count, seed))


def base_locus_scan(samples: int = 25, seed: int = 0) -> bool:
    """Over the torus-fixed and seeded points the map fails exactly on the base points."""
    fixed = ((1, 0), (0, 1))
    candidates = [MultiProjPoint((f1, f2)) for f1 in fixed for f2 in fixed]
    points = random_pairs(random.Random(seed))
    candidates += [next(points) for _ in range(samples)]
    locus = base_locus()
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
    """The graph polynomial vanishes on (point, extension value) pairs."""
    g = graph_surface()
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
        if not g.evaluate({"x": x, "y": y, "z": z, "w": w, "r": r, "s": s}).is_zero():
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
