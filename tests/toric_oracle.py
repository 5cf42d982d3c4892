"""Character-by-character box sum, kept as the test oracle.

This is the double loop that ``lgorbit.toric._box_sum`` replaced with a sum
over row intervals.  It visits every character of the box [-M, M]^2, about
4 M^2 of them, and shares only ``_pattern_cohomology`` with the library;
the tests require both to agree for every half-width.
"""

from typing import Tuple

from lgorbit.toric import HirzebruchFan, ToricDivisor, _pattern_cohomology


def box_sum(fan: HirzebruchFan, d: ToricDivisor, half_width: int) -> Tuple[int, int, int]:
    a1, a2, a3, a4 = d.coeffs
    a = fan.a
    t0 = t1 = t2 = 0
    for m1 in range(-half_width, half_width + 1):
        for m2 in range(-half_width, half_width + 1):
            bits = (
                m1 >= -a1,
                m2 >= -a2,
                -m1 - a * m2 >= -a3,
                -m2 >= -a4,
            )
            h0, h1, h2 = _pattern_cohomology(bits)
            t0 += h0
            t1 += h1
            t2 += h2
    return (t0, t1, t2)
