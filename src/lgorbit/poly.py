"""Polynomials with rational coefficients on one tuple of variables.

A polynomial lives on a fixed tuple of distinct variable names, which
``variables`` builds, for example ``variables("x y z w")``.  Terms are
stored densely: each key is one exponent per variable, in declaration
order.  The public constructor validates what it is given; arithmetic
builds its results from operands already checked, with zero coefficients
popped, and skips that work.  No degree is read off the terms: a claim
such as bihomogeneity is an identity, Euler's relation, like any other.

Coefficients are ``int`` or ``Fraction``.  The imaginary unit is the
variable named ``i``: ``certify`` reads a difference on it modulo
i^2 + 1, and ``conjugate`` substitutes -i for it, so the rational
polynomials in i stand in for those with Gaussian rational coefficients.

``certify`` is the one checker of the library's polynomial claims: other
modules write each claim as identity data over any ring and evaluate it on
``variables``, and none compares two polynomials itself.
"""

from __future__ import annotations

import functools
import operator
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import DiagnosticError, StructureError

Exponents = Tuple[int, ...]
Rational = Union[int, Fraction]


class MultiHomPoly:
    """Polynomial with exact coefficients on a tuple of distinct variables."""

    __slots__ = ("variables", "terms")

    def __init__(
        self,
        names: Iterable[str],
        terms: Mapping[Sequence[int], Rational] = (),
    ):
        self.variables = tuple(names)
        nvars = len(self.variables)
        if not nvars:
            raise StructureError("at least one variable is required")
        if len(set(self.variables)) != nvars:
            raise StructureError("variable names must be distinct")
        clean: Dict[Exponents, Rational] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for exponents, coeff in items:
            key = tuple(exponents)
            if len(key) != nvars:
                raise StructureError(
                    f"exponent vector {key} has length {len(key)}, expected {nvars}"
                )
            if any(not isinstance(e, int) or e < 0 for e in key):
                raise StructureError(f"exponents must be nonnegative integers: {key}")
            if type(coeff) is not int and type(coeff) is not Fraction:
                raise StructureError(f"{coeff!r} is not an int or a Fraction")
            value = clean.get(key, 0) + coeff
            if not value:
                clean.pop(key, None)
            else:
                clean[key] = value
        self.terms = clean

    def _like(self, terms: Dict[Exponents, Rational]) -> "MultiHomPoly":
        """A polynomial on this one's variables; ``terms`` must be clean already."""
        out = MultiHomPoly.__new__(MultiHomPoly)
        out.variables = self.variables
        out.terms = terms
        return out

    # ---------------------------------------------------------------- basics

    @classmethod
    def constant(cls, names: Iterable[str], value: Rational) -> "MultiHomPoly":
        names = tuple(names)
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def variable(cls, names: Iterable[str], name: str) -> "MultiHomPoly":
        names = tuple(names)
        if name not in names:
            raise StructureError(f"unknown variable {name!r}")
        return cls(names, {tuple(int(v == name) for v in names): 1})

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise StructureError(f"unknown variable {name!r}") from None

    def __bool__(self) -> bool:
        return bool(self.terms)

    # ------------------------------------------------------------ arithmetic

    def _check_variables(self, other: "MultiHomPoly") -> None:
        if self.variables != other.variables:
            raise StructureError(
                f"variable mismatch: {self.variables} vs {other.variables}"
            )

    def _combine(self, other, op):
        """The termwise sum (op add) or difference (op sub) with other."""
        if isinstance(other, (int, Fraction)):
            other = MultiHomPoly.constant(self.variables, other)
        if not isinstance(other, MultiHomPoly):
            return NotImplemented
        self._check_variables(other)
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            value = op(merged.get(key, 0), coeff)
            if not value:
                merged.pop(key, None)
            else:
                merged[key] = value
        return self._like(merged)

    def __add__(self, other):
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -coeff for key, coeff in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __rsub__(self, other):
        return (-self) + other

    def conjugate(self) -> "MultiHomPoly":
        """Substitute -i for i, reading every other variable as real: each
        term of odd degree in i changes sign.  Without i it is real."""
        if "i" not in self.variables:
            return self
        k = self.variables.index("i")
        return self._like({key: -coeff if key[k] % 2 else coeff
                           for key, coeff in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return self._like({})
            # a product of nonzero rationals is nonzero
            return self._like({key: other * coeff for key, coeff in self.terms.items()})
        if not isinstance(other, MultiHomPoly):
            return NotImplemented
        self._check_variables(other)
        product: Dict[Exponents, Rational] = {}
        for key_a, coeff_a in self.terms.items():
            for key_b, coeff_b in other.terms.items():
                key = tuple(map(operator.add, key_a, key_b))
                value = product.get(key, 0) + coeff_a * coeff_b
                if not value:
                    product.pop(key, None)
                else:
                    product[key] = value
        return self._like(product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise StructureError("exponent must be a nonnegative integer")
        result = self._like({(0,) * len(self.variables): 1})
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiHomPoly):
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    __hash__ = None  # mutable-ish container semantics, not for dict keys

    # ------------------------------------------------------- transformations

    def partial(self, name: str) -> "MultiHomPoly":
        """Formal partial derivative in one variable."""
        idx = self.var_index(name)
        out: Dict[Exponents, Rational] = {}
        for key, coeff in self.terms.items():
            e = key[idx]
            if e == 0:
                continue
            new_key = key[:idx] + (e - 1,) + key[idx + 1 :]
            value = out.get(new_key, 0) + coeff * e
            if not value:
                out.pop(new_key, None)
            else:
                out[new_key] = value
        return self._like(out)

    def substitute(
        self, images: Mapping[str, Union["MultiHomPoly", Rational]]
    ) -> "MultiHomPoly":
        """Simultaneously replace variables by polynomials on the same tuple.

        Unmapped variables are left alone.  Images given as scalars are read
        as constant polynomials.
        """
        table: Dict[int, MultiHomPoly] = {}
        for name, image in images.items():
            idx = self.var_index(name)
            if not isinstance(image, MultiHomPoly):
                image = MultiHomPoly.constant(self.variables, image)
            else:
                self._check_variables(image)
            table[idx] = image
        result = self._like({})
        for key, coeff in self.terms.items():
            # unmapped variables keep their exponents; mapped ones multiply in
            kept = tuple(0 if idx in table else e for idx, e in enumerate(key))
            term = self._like({kept: coeff})
            for idx, image in table.items():
                if key[idx]:
                    term = term * image ** key[idx]
            result = result + term
        return result

    def __repr__(self) -> str:
        return f"MultiHomPoly({self.variables!r}, {self.terms!r})"


def variables(names: str) -> Tuple[MultiHomPoly, ...]:
    """One variable per space-separated name, all on the tuple of those names."""
    names = tuple(names.split())
    if not names:
        raise StructureError("at least one variable is required")
    return tuple(MultiHomPoly.variable(names, name) for name in names)


def product(a, b) -> tuple:
    """Product of nested-tuple matrices over any ring; b may be a column."""
    columns = tuple(zip(*b))
    return tuple(tuple(functools.reduce(operator.add, map(operator.mul, row, col))
                       for col in columns) for row in a)


def modulo_i(f):
    """The remainder of f on division by the monic i^2 + 1 (Cox, Little and
    O'Shea, ch. 2): each i^e becomes (-1)^(e // 2) i^(e % 2).  Anything that
    is not a polynomial on a variable i is returned as it is."""
    if not isinstance(f, MultiHomPoly) or "i" not in f.variables:
        return f
    k = f.variables.index("i")
    out: Dict[Exponents, Rational] = {}
    for key, coeff in f.terms.items():
        e = key[k]
        key = key[:k] + (e % 2,) + key[k + 1 :]
        value = out.get(key, 0) + (-coeff if e // 2 % 2 else coeff)
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return f._like(out)


def certify(identities: Iterable) -> Optional[int]:
    """The position of the first identity that fails, or None when all hold.

    An identity (difference, ((relation, cofactor), ...)) holds when the
    difference minus each cofactor times its relation is zero, putting the
    difference in the ideal of the relations (Cox, Little and O'Shea,
    Ideals, Varieties, and Algorithms, ch. 1-2).  On a variable i the
    remainder is taken modulo i^2 + 1 as well, by ``modulo_i``.  An empty
    sequence certifies nothing and raises DiagnosticError.
    """
    position = -1
    for position, (difference, terms) in enumerate(identities):
        for relation, cofactor in terms:
            difference = difference - relation * cofactor
        if modulo_i(difference):
            return position
    if position < 0:
        raise DiagnosticError("the certificate lists no identity")
    return None


def certify_charts(
    f: MultiHomPoly, certificates: Mapping[Tuple[str, ...], Callable[..., MultiHomPoly]]
) -> Optional[int]:
    """Smoothness of the hypersurface f = 0: the position of the first chart
    whose certificate fails, or None.

    Each key names the variables set to 1 on an affine chart.  Its
    certificate gets the dehomogenized equation g, the dict d of its
    partials in the other variables, and v, which builds a variable on the
    tuple of f; it must return the constant 1 as a combination of g and d,
    so they have no common zero there.  A certificate that does not fit the
    input, such as one reading a partial the chart lacks, fails its chart.
    """
    v = functools.partial(MultiHomPoly.variable, f.variables)

    def identities():
        for chart, certificate in certificates.items():
            g = f.substitute({name: 1 for name in chart})
            d = {name: g.partial(name) for name in f.variables if name not in chart}
            try:
                one = certificate(g, d, v)
            except (KeyError, StructureError):
                one = 0
            yield one - 1, ()

    return certify(identities())
