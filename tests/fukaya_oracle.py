"""Brute-force oracles for the A-infinity check and the shift matcher.

``lgorbit.fukaya`` decides both by finite arguments.  The oracles walk
instead, and share only the category's table lookups and ``shift_table``
with the library:

- ``check_a_infinity`` walks every arity from 1 to ``k_max`` and every term
  of each relation, where the library walks only the arities whose
  relation can have a nonzero term.
- ``tables_equal`` tries all (2w + 1)^n assignments of shifts in [-w, w]
  to the n objects, where the library solves the shifts along the
  nonempty homs and compares once.
"""

import itertools
from collections import defaultdict
from typing import Dict

from lgorbit.fukaya import DirectedAInfCategory, Table, shift_table


def check_a_infinity(cat: DirectedAInfCategory, k_max: int) -> bool:
    """The A-infinity relations on all composable chains of length <= k_max."""
    for n in range(1, k_max + 1):
        for chain in cat.composable_chains(n):
            total: Dict[str, int] = defaultdict(int)
            degrees = [cat.gen_info(a)[2] for a in chain]
            for s in range(1, n + 1):
                for r in range(0, n - s + 1):
                    t = n - s - r
                    sign = (-1) ** (r + s * t + (s % 2) * sum(degrees[:r]))
                    for name, coeff in cat.apply(chain[r : r + s]).items():
                        outer = cat.apply(chain[:r] + (name,) + chain[r + s :])
                        for out_name, out_coeff in outer.items():
                            total[out_name] += sign * coeff * out_coeff
            if any(total.values()):
                return False
    return True


def _normalized(table: Table):
    return {pair: sorted((d, r) for d, r in ranks.items() if r) for pair, ranks in table.items()}


def tables_equal(table_a: Table, table_b: Table, shift_window: int) -> bool:
    """Whether some assignment of shifts in [-w, w] turns table_a into table_b."""
    if set(table_a) != set(table_b):
        return False
    target = _normalized(table_b)
    n_objects = max(max(pair) for pair in table_a) + 1 if table_a else 0
    return any(
        _normalized(shift_table(table_a, assignment)) == target
        for assignment in itertools.product(
            range(-shift_window, shift_window + 1), repeat=n_objects
        )
    )
