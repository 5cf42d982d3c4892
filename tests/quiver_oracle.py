"""The tilting blocks by long-exact-sequence chases, an oracle for the twisted Hom.

``lgorbit.quiver.end_algebra_dims_tilting`` reads End(O + X) off Hom
between twisted complexes over the thimble category.  The oracle instead
chases the Ext table of the exceptional pair on F_2 through the four long
exact sequences of 0 -> O -> X -> N -> 0.  A chase cannot see the
connecting map, so the one chase whose connecting rank is free takes it as
the pin ``first_connecting="injective"`` and reports that it did.
"""

from typing import NamedTuple, Optional, Tuple

from lgorbit.errors import DiagnosticError, PreconditionError
from lgorbit.toric import EXCEPTIONAL_PAIR, HirzebruchFan, ext_dims


class ChaseResult(NamedTuple):
    middle: Tuple[int, int, int]
    ranks: Tuple[int, ...]
    used_injective_connecting: bool


def les_chase(
    outer: Tuple[int, int, int, int, int, int],
    first_connecting: Optional[str] = None,
) -> ChaseResult:
    """Solve a nine-term exact sequence for its three unknown middle terms.

    The sequence is 0 -> A0 -> A1 -> A2 -> A3 -> A4 -> A5 -> A6 -> A7 ->
    A8 -> 0 with A0, A2, A3, A5, A6, A8 given (positions 1, 4, 7 unknown).
    The connecting ranks r2: A2 -> A3 and r5: A5 -> A6 are free parameters;
    each is forced to zero when either endpoint vanishes, and r2 may instead
    be pinned by first_connecting="injective" (rank = dim A2).  An
    undetermined or inconsistent chase raises a diagnostic.
    """
    a0, a2, a3, a5, a6, a8 = outer
    if min(outer) < 0:
        raise PreconditionError("dimensions must be nonnegative")
    if first_connecting not in (None, "injective"):
        raise PreconditionError("first_connecting must be None or 'injective'")
    used = False
    if a2 == 0 or a3 == 0:
        r2 = 0
    elif first_connecting == "injective":
        r2 = a2
        used = True
    else:
        raise DiagnosticError("connecting rank A2 -> A3 is undetermined")
    if a5 == 0 or a6 == 0:
        r5 = 0
    else:
        raise DiagnosticError("connecting rank A5 -> A6 is undetermined")
    ranks = (a0, a2 - r2, r2, a3 - r2, a5 - r5, r5, a6 - r5, a8)
    if min(ranks) < 0:
        raise DiagnosticError(f"inconsistent exact sequence: ranks {ranks}")
    r0, r1, _, r3, r4, _, r6, r7 = ranks
    return ChaseResult((r0 + r1, r3 + r4, r6 + r7), ranks, used)


def end_algebra_dims_by_chases(first_connecting: Optional[str] = "injective"):
    """(hom, ext1, ext2, used_pin), each a tuple over the blocks Hom(O, O),
    Hom(O, X), Hom(X, O), Hom(X, X), from four chases of the F_2 Ext table."""
    fan = HirzebruchFan(2)
    classes = tuple(zip("no", EXCEPTIONAL_PAIR))
    table = {(x, y): ext_dims(fan, cx, cy).triple for x, cx in classes for y, cy in classes}

    def chase(left, right, pin=None):
        return les_chase((left[0], right[0], left[1], right[1], left[2], right[2]), pin)

    # Hom(-, O): contravariant, N enters first; the only chase with a free rank
    to_o = chase(table[("n", "o")], table[("o", "o")], first_connecting)
    # Hom(-, N)
    to_n = chase(table[("n", "n")], table[("o", "n")])
    # Hom(O, -): covariant, the sub O enters first
    from_o = chase(table[("o", "o")], table[("o", "n")])
    # Hom(X, -): outer terms come from the two contravariant chases
    from_x = chase(to_o.middle, to_n.middle)
    blocks = (table[("o", "o")], from_o.middle, to_o.middle, from_x.middle)
    hom, ext1, ext2 = (tuple(block[d] for block in blocks) for d in range(3))
    return hom, ext1, ext2, to_o.used_injective_connecting
