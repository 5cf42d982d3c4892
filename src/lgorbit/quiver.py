"""The endomorphism algebra of the tilting object T = O + X on F_2, read
off twisted complexes over the two thimbles, and the Euler form of the
exceptional pair.

X is the nontrivial extension 0 -> O -> X -> O(-E) -> 0.  Over
``lg2_category()``, with (L0, L1) = (O(-E), O), O is L1 and X is the
twisted complex (L0 + L1, delta = x1).  H^0 of End T is the path algebra of
two vertices O and X with one arrow each way, where O -> X -> O is zero and
X -> O -> X is a loop of square zero: dimension five, and <O(-E), O> is
D^b of its modules (Bondal 1989).  Composition is written in chain order:
``twisted_compose(cat, f, g)`` is f followed by g.  The functions here take
the thimble category ``cat`` as an argument, so a caller builds it once.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Sequence, Tuple

from .errors import DiagnosticError
from .fukaya import (
    DirectedAInfCategory,
    Morphism,
    ProductEntry,
    degree_forced_vanishing,
    twisted_cocycles,
    twisted_compose,
    twisted_hom_cohomology,
)
from .gaussian import ExactMatrix
from .toric import EXCEPTIONAL_PAIR, HirzebruchFan, PicClass, ext_dims, ext_hom_table

# ------------------------------------------------------------- tilting


class TiltingReport(NamedTuple):
    hom_dims: Tuple[int, int, int, int]
    ext1: Tuple[int, int, int, int]
    ext2: Tuple[int, int, int, int]

    @property
    def total(self) -> int:
        return sum(self.hom_dims)

    @property
    def higher_ext_vanish(self) -> bool:
        return not any(self.ext1) and not any(self.ext2)


# the thimbles, and the summands O = L1 and X = (L0 + L1, x1) of the tilting
# object, as twisted complexes
L0, L1 = ((0,), ()), ((1,), ())
SUMMANDS = {"O": L1, "X": ((0, 1), ("x1",))}


def end_algebra_dims_tilting(cat: DirectedAInfCategory) -> TiltingReport:
    """Hom and Ext dimensions of the four blocks of End(O + X) over the
    thimble category ``cat``.

    The bundle X sits in 0 -> O -> X -> N -> 0, where (N, O) = (O(-E), O)
    is ``EXCEPTIONAL_PAIR`` and the extension is nontrivial.  The pair's Ext
    table on F_2 must equal the hom table of the thimbles (L0, L1) = (N, O),
    or a DiagnosticError is raised.  That comparison is the transport step:
    it identifies x1 with the class in Ext^1(O(-E), O) that defines X, so X
    is the twisted complex (L0 + L1, delta = x1) and O is L1.  Degrees 0, 1
    and 2 of each twisted Hom give Hom, Ext^1 and Ext^2, in the block order
    Hom(O, O), Hom(O, X), Hom(X, O), Hom(X, X).
    """
    ext = ext_hom_table(HirzebruchFan(2), EXCEPTIONAL_PAIR)
    if ext != cat.hom_table():
        raise DiagnosticError(f"the thimble hom table differs from the Ext table {ext} on F_2")
    blocks = [twisted_hom_cohomology(cat, SUMMANDS[s], SUMMANDS[t])
              for s in SUMMANDS for t in SUMMANDS]
    hom, ext1, ext2 = (tuple(block.get(d, 0) for block in blocks) for d in range(3))
    return TiltingReport(hom, ext1, ext2)


def end_algebra(cat: DirectedAInfCategory) -> Dict[Tuple[str, str], Tuple[Morphism, ...]]:
    """A basis of H^0 of each block Hom(S, T) of End(O + X), keyed (S, T)
    by summand name, in the block order above."""
    return {(s, t): twisted_cocycles(cat, SUMMANDS[s], SUMMANDS[t])
            for s in SUMMANDS for t in SUMMANDS}


def identity(cat: DirectedAInfCategory, summand: str) -> Morphism:
    """The identity of O or X: the sum of the identities of its objects."""
    return {cat.identity_of(i): Fraction(1) for i in SUMMANDS[summand][0]}


def round_trips(cat: DirectedAInfCategory, blocks: Dict[Tuple[str, str], Tuple[Morphism, ...]]):
    """The composites O -> X -> O and X -> O -> X of every pair of basis
    morphisms in ``blocks``, and the square of each X -> O -> X composite."""
    out, back = blocks[("O", "X")], blocks[("X", "O")]
    loops = [twisted_compose(cat, g, f) for g in back for f in out]
    return ([twisted_compose(cat, f, g) for f in out for g in back], loops,
            [twisted_compose(cat, loop, loop) for loop in loops])


def literal_differential(cat: DirectedAInfCategory) -> DirectedAInfCategory:
    """cat with the one slot that grading leaves open filled literally.

    ``degree_forced_vanishing(cat, min_arity=1)`` names the slot, m_1 on x0.
    The Morse model of the circle fills it with zero; this reading sends x0
    to the generator of the slot's degree instead, m_1(x0) = x1.
    """
    [(_, (source,), degree)] = degree_forced_vanishing(cat, min_arity=1)
    [target] = [name for name, d in cat.homs[cat.gen_info(source)[:2]].basis if d == degree]
    return DirectedAInfCategory(
        cat.objects, cat.homs, cat.products() + [ProductEntry((source,), target)]
    )


# --------------------------------------------------------------- K-theory


def euler_form_matrix(classes: Sequence[PicClass]) -> ExactMatrix:
    """Euler-form matrix chi(E_i, E_j) = sum_k (-1)^k dim Ext^k(E_i, E_j)
    of line bundles on the Hirzebruch surface F_2.

    An exceptional collection gives a unitriangular matrix, so the rank is
    the number of free generators its objects contribute to the
    Grothendieck group.
    """
    fan = HirzebruchFan(2)
    return ExactMatrix([[ext_dims(fan, ci, cj).euler for cj in classes] for ci in classes])


def thimble_euler_form(cat: DirectedAInfCategory) -> ExactMatrix:
    """sum_d (-1)^d rank hom^d(L_i, L_j) over the thimbles of ``cat``, the
    Euler form that the exceptional pair's must equal on F_2."""
    table = cat.hom_table()
    return ExactMatrix([[sum((-1) ** d * rank for d, rank in table[(i, j)].items())
                         for j in (0, 1)] for i in (0, 1)])
