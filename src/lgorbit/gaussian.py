"""Exact rational linear algebra: small dense matrices over the rationals.

Everything in this module is exact.  A rational is stored as a plain ``int``
when it is integral and as a reduced ``fractions.Fraction`` only when it is
not, so the integer matrices that most checks build run on machine
integers.  Every constructor and operation normalises its entries this way,
so structural equality is mathematical equality.

``ExactMatrix`` holds ``int`` and ``Fraction`` entries only, since every
matrix the report eliminates (Euler forms, Gram matrices, Hom
differentials) is rational; its ranks and cocycle bases come from
``echelon``, as do ``det`` and ``inverse``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import StructureError
from .poly import Rational, exact


class ExactMatrix:
    """Dense matrix with int and Fraction entries and exact linear algebra."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Sequence[Rational]]):
        rows = tuple(tuple([exact(e) for e in row]) for row in entries)
        if not rows or not rows[0]:
            raise StructureError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise StructureError("ragged rows in matrix")
        self.entries = rows
        self.rows = len(rows)
        self.cols = width

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise StructureError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )
        return ExactMatrix(
            [[a + b for a, b in zip(r, s)] for r, s in zip(self.entries, other.entries)]
        )

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise StructureError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        columns = list(zip(*other.entries))
        return ExactMatrix(
            [[sum([a * b for a, b in zip(row, col)]) for col in columns] for row in self.entries]
        )

    def echelon(self) -> Tuple[List[List[Rational]], List[int], Fraction]:
        """The reduced row echelon form, its pivot columns, and the product of
        the pivots with the sign of the row swaps: the determinant when the
        matrix is square of full rank."""
        work = [list(row) for row in self.entries]
        pivots: List[int] = []
        det = Fraction(1)
        for col in range(self.cols):
            top = len(pivots)
            pivot = next((r for r in range(top, self.rows) if work[r][col]), None)
            if pivot is None:
                continue
            if pivot != top:
                work[top], work[pivot] = work[pivot], work[top]
                det = -det
            lead = work[top][col]
            det *= lead
            work[top] = [exact(Fraction(e, lead)) for e in work[top]]
            for r in range(self.rows):
                factor = work[r][col]
                if r != top and factor:
                    work[r] = [exact(a - factor * b) for a, b in zip(work[r], work[top])]
            pivots.append(col)
            if len(pivots) == self.rows:
                break
        return work, pivots, det

    def rank(self) -> int:
        return len(self.echelon()[1])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise StructureError("determinant of a non-square matrix")
        _, pivots, det = self.echelon()
        return det if len(pivots) == self.rows else Fraction(0)

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise StructureError("inverse of a non-square matrix")
        n = self.rows
        augmented = ExactMatrix(
            [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self.entries)]
        )
        reduced, pivots, _ = augmented.echelon()
        # a singular left block sends a pivot into the right block
        if pivots != list(range(n)):
            raise StructureError("matrix is singular")
        return ExactMatrix([row[n:] for row in reduced])


def cohomology(
    dims: Mapping[int, int], differentials: Mapping[int, Sequence[Sequence[Rational]]]
) -> Dict[int, int]:
    """Nonzero dim H^d = dim C^d - rank d^d - rank d^(d-1) of a cochain complex.

    differentials[d] is the matrix of C^d -> C^(d+1), one row per basis
    vector of C^(d+1); a missing or empty matrix counts as zero.
    """
    ranks = {d: ExactMatrix(m).rank() for d, m in differentials.items() if m and m[0]}
    h = {d: n - ranks.get(d, 0) - ranks.get(d - 1, 0) for d, n in sorted(dims.items())}
    return {d: v for d, v in h.items() if v}
