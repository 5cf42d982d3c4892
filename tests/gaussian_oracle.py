"""Fraction-pair Gaussian rationals and matrices, kept as the test oracle.

This is the exact kernel that ``lgorbit.gaussian`` replaced: every component
is a ``fractions.Fraction``, and the matrix product sums entry products with
``sum()``.  It shares only ``StructureError`` with the library; the tests
require both kernels to agree value for value.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from typing import Iterable, Sequence, Union

from lgorbit.errors import StructureError

RatLike = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """A complex number re + im*i with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fraction] = 0, im: Union[int, Fraction] = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def coerce(value: RatLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise StructureError(f"cannot coerce {value!r} to GaussianRational")

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except StructureError:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except StructureError:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except StructureError:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except StructureError:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except StructureError:
            return NotImplemented
        n = other.norm_sq()
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        try:
            other = GaussianRational.coerce(other)
        except StructureError:
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
        try:
            other = GaussianRational.coerce(other)
        except StructureError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # real values hash as their Fraction so 2 == GaussianRational(2) stays consistent
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    # the real part must stop at the end or at the imaginary part's sign,
    # otherwise "-2/9i" would split as re="-2/9", im="i"
    _PATTERN = _re.compile(
        r"^(?P<re>[+-]?\d+(?:/\d+)?(?=$|[+-]))?"
        r"(?P<im>[+-]?(?:\d+(?:/\d+)?)?i)?$"
    )

    @classmethod
    def parse(cls, text: str) -> "GaussianRational":
        """Parse the rendering produced by ``str``: ``3``, ``-1/2``, ``i``, ``2-3/4i``."""
        text = text.strip().replace(" ", "")
        m = cls._PATTERN.match(text)
        if not m or (m.group("re") is None and m.group("im") is None):
            raise StructureError(f"cannot parse GaussianRational from {text!r}")
        re_part = Fraction(m.group("re")) if m.group("re") else Fraction(0)
        im_text = m.group("im")
        if im_text is None:
            return cls(re_part)
        im_text = im_text[:-1]
        if im_text in ("", "+"):
            im_part = Fraction(1)
        elif im_text == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(im_text)
        return cls(re_part, im_part)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


class ExactMatrix:
    """Dense matrix with GaussianRational entries and exact linear algebra."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Sequence[RatLike]]):
        rows = tuple(tuple(GaussianRational.coerce(e) for e in row) for row in entries)
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
            return ExactMatrix(
                [
                    [
                        sum(
                            (self.entries[i][k] * other.entries[k][j] for k in range(self.cols)),
                            ZERO,
                        )
                        for j in range(other.cols)
                    ]
                    for i in range(self.rows)
                ]
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def trace(self) -> GaussianRational:
        if self.rows != self.cols:
            raise StructureError("trace of a non-square matrix")
        return sum((self.entries[i][i] for i in range(self.rows)), ZERO)

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
