"""Exact scalars: Gaussian rationals and small dense matrices over them.

Everything in this module is exact.  A component is stored as a plain
``int`` when it is integral and as a reduced ``fractions.Fraction`` only
when it is not, so the integer shears and samples that most checks build
run on machine integers.  Every constructor and operation normalises its
result this way, so structural equality is mathematical equality.  The
public ``re`` and ``im`` always return ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Union

from .errors import StructureError

RatLike = Union[int, Fraction, "GaussianRational"]


def _exact(value):
    """An int when ``value`` is integral, otherwise a reduced Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quotient(x, n):
    """x / n for int or Fraction operands, exact even when both are ints."""
    if type(x) is int and type(n) is int:
        q, r = divmod(x, n)
        return Fraction(x, n) if r else q
    return x / n


class GaussianRational:
    """A complex number re + im*i with rational real and imaginary parts."""

    __slots__ = ("_re", "_im")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        self._re = _exact(re)
        self._im = _exact(im)

    @property
    def re(self) -> Fraction:
        return Fraction(self._re)

    @property
    def im(self) -> Fraction:
        return Fraction(self._im)

    @staticmethod
    def coerce(value: RatLike) -> "GaussianRational":
        lifted = _lift(value)
        if lifted is None:
            raise StructureError(f"cannot coerce {value!r} to GaussianRational")
        return lifted

    def is_zero(self) -> bool:
        return not self._re and not self._im

    def __bool__(self) -> bool:
        return not self.is_zero()

    def conjugate(self) -> "GaussianRational":
        return _gauss(self._re, -self._im)

    # Each binary operator takes a GaussianRational operand directly and lifts
    # an int or Fraction one; anything else is NotImplemented.

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _lift(other)
            if other is None:
                return NotImplemented
        return _gauss(self._re + other._re, self._im + other._im)

    __radd__ = __add__

    def __neg__(self):
        return _gauss(-self._re, -self._im)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _lift(other)
            if other is None:
                return NotImplemented
        return _gauss(self._re - other._re, self._im - other._im)

    def __rsub__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return _gauss(other._re - self._re, other._im - self._im)

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _lift(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self._re, self._im, other._re, other._im
        return _gauss(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _lift(other)
            if other is None:
                return NotImplemented
        a, b, c, d = self._re, self._im, other._re, other._im
        n = c * c + d * d
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return _gauss(_quotient(a * c + b * d, n), _quotient(b * c - a * d, n))

    def __rtruediv__(self, other):
        other = _lift(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise StructureError("exponent must be a nonnegative integer")
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _lift(other)
            if other is None:
                return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self):
        # an int hashes as the equal Fraction, so real values hash as their
        # Fraction and 2 == GaussianRational(2) stays consistent
        if not self._im:
            return hash(self._re)
        return hash((self._re, self._im))

    def __complex__(self) -> complex:
        return complex(float(self._re), float(self._im))

    def __str__(self) -> str:
        re, im = self._re, self._im
        if not im:
            return str(re)
        im_text = f"{im}i" if abs(im) != 1 else ("i" if im > 0 else "-i")
        if not re:
            return im_text
        sign = "+" if im > 0 else ""
        return f"{re}{sign}{im_text}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _gauss(re, im) -> GaussianRational:
    """Build from int or Fraction components without a constructor call."""
    z = _new(GaussianRational)
    z._re = re if type(re) is int else _exact(re)
    z._im = im if type(im) is int else _exact(im)
    return z


def _lift(value):
    """The GaussianRational of an operand, or None when it is not exact."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return _gauss(value, 0)
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


class ExactMatrix:
    """Dense matrix with GaussianRational entries and exact linear algebra."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Sequence[RatLike]]):
        coerce = GaussianRational.coerce
        rows = tuple(
            tuple([e if type(e) is GaussianRational else coerce(e) for e in row])
            for row in entries
        )
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

    @classmethod
    def diagonal(cls, values: Sequence[RatLike]) -> "ExactMatrix":
        n = len(values)
        return cls([[values[i] if i == j else 0 for j in range(n)] for i in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        self._same_shape(other)
        return ExactMatrix(
            [
                [self.entries[i][j] - other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __neg__(self) -> "ExactMatrix":
        return self.scale(GaussianRational(-1))

    def _same_shape(self, other: "ExactMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise StructureError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def scale(self, scalar: RatLike) -> "ExactMatrix":
        scalar = GaussianRational.coerce(scalar)
        return ExactMatrix(
            [[scalar * e for e in row] for row in self.entries]
        )

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise StructureError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            # accumulate the int or Fraction components of each dot product
            # and normalise once per entry
            columns = [[(e._re, e._im) for e in col] for col in zip(*other.entries)]
            product = []
            for row in self.entries:
                left = [(e._re, e._im) for e in row]
                out = []
                for col in columns:
                    re = im = 0
                    for (a, b), (c, d) in zip(left, col):
                        re += a * c - b * d
                        im += a * d + b * c
                    out.append(_gauss(re, im))
                product.append(out)
            return ExactMatrix(product)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def _eliminated(self):
        # returns (row echelon entries, pivot count, determinant factor collected so far)
        work = [list(row) for row in self.entries]
        det = ONE
        pivot_row = 0
        for col in range(self.cols):
            pivot = None
            for r in range(pivot_row, self.rows):
                if not work[r][col].is_zero():
                    pivot = r
                    break
            if pivot is None:
                continue
            if pivot != pivot_row:
                work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
                det = -det
            lead = work[pivot_row][col]
            det = det * lead
            inv = ONE / lead
            work[pivot_row] = [inv * e for e in work[pivot_row]]
            for r in range(self.rows):
                if r != pivot_row and not work[r][col].is_zero():
                    factor = work[r][col]
                    work[r] = [
                        work[r][j] - factor * work[pivot_row][j] for j in range(self.cols)
                    ]
            pivot_row += 1
            if pivot_row == self.rows:
                break
        return work, pivot_row, det

    def rank(self) -> int:
        _, pivots, _ = self._eliminated()
        return pivots

    def det(self) -> GaussianRational:
        if self.rows != self.cols:
            raise StructureError("determinant of a non-square matrix")
        _, pivots, det = self._eliminated()
        return det if pivots == self.rows else ZERO

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise StructureError("inverse of a non-square matrix")
        n = self.rows
        augmented = ExactMatrix(
            [
                list(self.entries[i]) + [1 if i == j else 0 for j in range(n)]
                for i in range(n)
            ]
        )
        reduced, _, _ = augmented._eliminated()
        # pivots can land in the right block when the left block is singular,
        # so confirm the left block reduced to the identity
        for i in range(n):
            for j in range(n):
                expected = ONE if i == j else ZERO
                if reduced[i][j] != expected:
                    raise StructureError("matrix is singular")
        return ExactMatrix([row[n:] for row in reduced])

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.entries) + "]"

    __repr__ = __str__


def cohomology(
    dims: Mapping[int, int], differentials: Mapping[int, Sequence[Sequence[RatLike]]]
) -> Dict[int, int]:
    """Nonzero dim H^d = dim C^d - rank d^d - rank d^(d-1) of a cochain complex.

    differentials[d] is the matrix of C^d -> C^(d+1), one row per basis
    vector of C^(d+1); a missing or empty matrix counts as zero.
    """
    ranks = {d: ExactMatrix(m).rank() for d, m in differentials.items() if m and m[0]}
    h = {d: n - ranks.get(d, 0) - ranks.get(d - 1, 0) for d, n in sorted(dims.items())}
    return {d: v for d, v in h.items() if v}
