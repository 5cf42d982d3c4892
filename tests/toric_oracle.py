"""Character-by-character Cech box sum, kept as the test oracle.

``lgorbit.toric._box_sum`` counts one interval per row by the sign-pattern
rule of Cox-Little-Schenck 9.1.3.  This oracle instead assembles the Cech
complex of the four-chart cover for each ray-admissibility pattern, ranks it
with sympy, and classifies every character of the box [-M, M]^2, about
4 M^2 of them.  It shares only the two records with the library; the tests
require both to agree for every half-width.
"""

import itertools
from functools import lru_cache
from typing import Tuple

import numpy
import sympy

from lgorbit.toric import HirzebruchFan, ToricDivisor

# Rays carried by each simplex of the nerve of the four-chart cover.  A
# chart needs both of its cone's rays; an intersection of charts needs the
# rays of the common face.  Opposite charts meet along the torus (no rays).
CONE_RAYS = (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({3, 0}))


def _simplex_rays(vertices: Tuple[int, ...]) -> frozenset:
    return frozenset.intersection(*(CONE_RAYS[v] for v in vertices))


def _rank(rows) -> int:
    return sympy.Matrix(rows).rank() if rows and rows[0] else 0


@lru_cache(maxsize=None)
def pattern_cohomology(bits: Tuple[bool, bool, bool, bool]) -> Tuple[int, int, int]:
    """(h0, h1, h2) of the Cech complex for one ray-admissibility pattern."""
    by_dim = [
        [s for s in itertools.combinations(range(4), p + 1)
         if all(bits[r] for r in _simplex_rays(s))]
        for p in range(4)
    ]
    ranks = []
    for p in range(3):
        cols = {s: k for k, s in enumerate(by_dim[p])}
        rows = []
        for target in by_dim[p + 1]:
            row = [0] * len(cols)
            for drop in range(len(target)):
                face = target[:drop] + target[drop + 1:]
                if face in cols:
                    row[cols[face]] = (-1) ** drop
            rows.append(row)
        ranks.append(_rank(rows))
    ranks = [0, *ranks, 0]
    h = [len(by_dim[p]) - ranks[p + 1] - ranks[p] for p in range(4)]
    assert h[3] == 0, "top Cech cohomology of a surface cover must vanish"
    return (h[0], h[1], h[2])


def box_sum(fan: HirzebruchFan, d: ToricDivisor, half_width: int) -> Tuple[int, int, int]:
    a1, a2, a3, a4 = d.coeffs
    span = numpy.arange(-half_width, half_width + 1, dtype=numpy.int32)
    m1, m2 = span[:, None], span[None, :]
    # pattern index: bit k set when the character is admissible at ray k
    index = numpy.zeros((span.size, span.size), dtype=numpy.uint8)
    for k, admissible in enumerate(
        (m1 >= -a1, m2 >= -a2, -m1 - fan.a * m2 >= -a3, -m2 >= -a4)
    ):
        index |= admissible.astype(numpy.uint8) << k
    counts = numpy.bincount(index.ravel(), minlength=16)
    t = [0, 0, 0]
    for i, n in enumerate(counts.tolist()):
        bits = tuple(bool(i >> k & 1) for k in range(4))
        for k, h in enumerate(pattern_cohomology(bits)):
            t[k] += n * h
    return (t[0], t[1], t[2])
