"""Line-bundle cohomology on Hirzebruch surfaces in closed form.

The fan of the a-th Hirzebruch surface is taken with rays

    u1 = (1, 0),  u2 = (0, 1),  u3 = (-1, -a),  u4 = (0, -1)

and maximal cones spanned by cyclically adjacent pairs.  With this choice
the divisor class conventions hold simultaneously:

    [D4] = E with E.E = -a,   [D1] = [D3] = F,   [D2] = E + a F,
    div(x^(1,0)) = D1 - D3,   div(x^(0,1)) = D2 - a D3 - D4,
    K = -2 E - (a + 2) F.

(The reflection m2 -> -m2 identifies this with the fan whose third ray is
(-1, a); there the roles of D2 and D4 trade places.)

Cohomology of the torus-invariant divisor sum a_rho D_rho splits by
character (Cox-Little-Schenck, Toric Varieties, Thm 9.1.3): H^p at the
character m is the reduced H^(p-1) of the complex that the rays with
<m, u_rho> < -a_rho span inside the cones of the fan.  Four rays in a cycle
give only four such complexes with cohomology: no ray (the empty complex,
h0), all four (a circle, h2), and either pair of opposite rays, {u1, u3} or
{u2, u4} (two points, h1).  Along the row m2 the membership of u2 and u4
is fixed: neither belongs on the rows -a2 <= m2 <= a4 (a "section row"),
both belong on the rows a4 < m2 < -a2, and on every other row exactly one
does, so the row carries nothing.  With right = a3 - a*m2, the row's one
nonzero interval is [-a1, right], of width right + a1 + 1, when
right >= -a1 (neither u1 nor u3: h0 on a section row, h1 otherwise), and
(right, -a1), of width -a1 - right - 1, when not (both: h1 on a section
row, h2 otherwise).  Clipped to the character box, a sum costs
O(|a2| + |a4| + 1) rows, whatever the box size.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from .errors import PreconditionError, StructureError
from .poly import MultiHomPoly, certify, certify_charts, variables

Vec = Tuple[int, int]


# ----------------------------------------------------------------- the fan


class HirzebruchFan(namedtuple("HirzebruchFan", "a")):
    """Complete smooth fan with four rays; a is the negative-section weight."""

    __slots__ = ()

    def __new__(cls, a: int):
        self = super().__new__(cls, a)
        if not isinstance(self.a, int) or self.a < 0:
            raise StructureError("the Hirzebruch parameter must be a nonnegative integer")
        for (i, j) in self.cones:
            u, v = self.rays[i], self.rays[j]
            if u[0] * v[1] - u[1] * v[0] != 1:
                raise StructureError("adjacent rays must span the lattice positively")
        return self

    @property
    def rays(self) -> Tuple[Vec, Vec, Vec, Vec]:
        return ((1, 0), (0, 1), (-1, -self.a), (0, -1))

    @property
    def cones(self) -> Tuple[Tuple[int, int], ...]:
        # maximal cones as index pairs into rays, cyclic counterclockwise
        return ((0, 1), (1, 2), (2, 3), (3, 0))

    def ray_self_intersection(self, i: int) -> int:
        """D_i . D_i from the wall relation u_{i-1} + u_{i+1} = b * u_i."""
        prev = self.rays[(i - 1) % 4]
        nxt = self.rays[(i + 1) % 4]
        mid = self.rays[i]
        s = (prev[0] + nxt[0], prev[1] + nxt[1])
        if s[0] * mid[1] - s[1] * mid[0] != 0:
            raise StructureError("neighbor sum not collinear with the ray")
        if mid[0] != 0:
            b, r = divmod(s[0], mid[0])
        else:
            b, r = divmod(s[1], mid[1])
        if r != 0 or (b * mid[0], b * mid[1]) != s:
            raise StructureError("neighbor sum not an integer multiple of the ray")
        return -b

    def ray_pair_intersection(self, i: int, j: int) -> int:
        """D_i . D_j on the fan side: 1 when the rays span a cone, else 0."""
        if i == j:
            return self.ray_self_intersection(i)
        pair = (i, j) if (i, j) in self.cones else (j, i)
        return 1 if pair in self.cones else 0


# -------------------------------------------------------------- class types


class PicClass(NamedTuple):
    """Class p*E + q*F in the rank-two Picard group."""

    p: int
    q: int

    def __add__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "PicClass":
        return PicClass(-self.p, -self.q)


# The exceptional pair (O(-E), O) on the degree-2 surface, which the two
# thimbles (L0, L1) match.
EXCEPTIONAL_PAIR = (PicClass(-1, 0), PicClass(0, 0))


class ToricDivisor(namedtuple("ToricDivisor", "coeffs")):
    """Integer coefficient per ray, in fan ray order."""

    __slots__ = ()

    def __new__(cls, coeffs: Tuple[int, int, int, int]):
        if len(coeffs) != 4 or not all(isinstance(c, int) for c in coeffs):
            raise StructureError("a divisor needs four integer ray coefficients")
        return super().__new__(cls, coeffs)


class CohDims(namedtuple("CohDims", "h0 h1 h2")):
    __slots__ = ()

    def __new__(cls, h0: int, h1: int, h2: int):
        if min(h0, h1, h2) < 0:
            raise StructureError("cohomology dimensions must be nonnegative")
        return super().__new__(cls, h0, h1, h2)

    @property
    def euler(self) -> int:
        return self.h0 - self.h1 + self.h2

    @property
    def triple(self) -> Tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)


def pic_to_divisor(fan: HirzebruchFan, c: PicClass) -> ToricDivisor:
    """Representative p*D4 + q*D1 of the class p*E + q*F."""
    return ToricDivisor((c.q, 0, 0, c.p))


def divisor_to_pic(fan: HirzebruchFan, d: ToricDivisor) -> PicClass:
    """Class modulo the two principal relations D1 ~ D3, D2 ~ a*D3 + D4."""
    a1, a2, a3, a4 = d.coeffs
    return PicClass(a2 + a4, a1 + a3 + fan.a * a2)


def principal_divisor(fan: HirzebruchFan, m: Vec) -> ToricDivisor:
    """div of the character m: coefficient <m, u> on each ray u."""
    return ToricDivisor(tuple(m[0] * u[0] + m[1] * u[1] for u in fan.rays))


def canonical_class(a: int) -> PicClass:
    return PicClass(-2, -(a + 2))


def intersection(c1: PicClass, c2: PicClass, a: int) -> int:
    """Intersection form with E.E = -a, E.F = 1, F.F = 0."""
    return -a * c1.p * c2.p + c1.p * c2.q + c1.q * c2.p


def euler_characteristic(p, q, a):
    """chi(pE + qF) = (p + 1)(q + 1) - a p (p + 1) / 2 on F_a, over any ring
    holding 1/2.  On the integers p (p + 1) is even, so the value is an int;
    ``euler_characteristic_identities`` certifies it as Riemann-Roch."""
    triangle = p * (p + 1)
    triangle = triangle // 2 if isinstance(triangle, int) else triangle * Fraction(1, 2)
    return (p + 1) * (q + 1) - a * triangle


def euler_characteristic_identities(p, q, a):
    """Riemann-Roch over the symbols p, q, a: with D = pE + qF,
    2 chi(D) = 2 + D.(D - K) under ``intersection`` and ``canonical_class``
    (Hartshorne V.1.6 and V.2; Cox, Little and Schenck, Section 9.1)."""
    d = PicClass(p, q)
    return [(2 * euler_characteristic(p, q, a) - 2
             - intersection(d, d - canonical_class(a), a), ())]


def gram(objects: Sequence, pairing: Callable) -> Tuple[Tuple, ...]:
    """The Gram matrix of ``pairing`` on ``objects``: row i, column j holds
    pairing(objects[i], objects[j])."""
    return tuple(tuple(pairing(x, y) for y in objects) for x in objects)


def verify_divisor_convention(fan: HirzebruchFan) -> bool:
    """Cross-check the Picard conventions against the fan.

    Confirms [D1]=[D3]=F, [D4]=E, [D2]=E+aF, the intersection numbers of
    all ray-divisor pairs against the wall relations, vanishing of both
    principal classes, and K = -(sum of ray divisors).
    """
    a = fan.a
    e, f = PicClass(1, 0), PicClass(0, 1)
    units = [ToricDivisor(tuple(1 if k == i else 0 for k in range(4))) for i in range(4)]
    classes = [divisor_to_pic(fan, u) for u in units]
    if classes != [f, PicClass(1, a), f, e]:
        return False
    for i in range(4):
        for j in range(4):
            fan_side = fan.ray_pair_intersection(i, j)
            pic_side = intersection(classes[i], classes[j], a)
            if fan_side != pic_side:
                return False
    if intersection(e, e, a) != -a or intersection(e, f, a) != 1:
        return False
    if intersection(f, f, a) != 0:
        return False
    for m in ((1, 0), (0, 1)):
        if divisor_to_pic(fan, principal_divisor(fan, m)) != PicClass(0, 0):
            return False
    anti = ToricDivisor((-1, -1, -1, -1))
    return divisor_to_pic(fan, anti) == canonical_class(a)


# --------------------------------------------------------- row intervals


def _box_sum(a: int, coeffs: Sequence[int], half_width: int) -> Tuple[int, int, int]:
    """(h0, h1, h2) summed over the characters of [-M, M]^2, one interval a row."""
    a1, a2, a3, a4 = coeffs
    h = [0, 0, 0]
    for m2 in range(
        max(-half_width, min(-a2, a4 + 1)), min(half_width, max(a4, -a2 - 1)) + 1
    ):
        right = a3 - a * m2
        degree = 0 if -a2 <= m2 <= a4 else 1
        if right >= -a1:
            first, last = -a1, right
        else:
            first, last = right + 1, -a1 - 1
            degree += 1
        h[degree] += max(0, min(last, half_width) - max(first, -half_width) + 1)
    return (h[0], h[1], h[2])


def cohomology_dims(fan: HirzebruchFan, d: ToricDivisor, box_margin: int = 1) -> CohDims:
    """Sheaf cohomology dimensions of the line bundle of a toric divisor.

    Sums the characters of the box [-M, M]^2 with
    M = (1 + a) * (sum |a_rho| + 1) + box_margin, once.  Every contributing
    character satisfies |m2| <= max(|a2|, |a4|) and
    |m1| <= max(|a1|, |a3| + a*|m2|), so the (1 + a) factor makes the box
    provably sufficient at every margin; the slanted third ray stretches
    regions horizontally, and the unscaled sum |a_rho| + 1 genuinely
    undercounts (already for a = 2 and the divisor 5*D4).  The sum goes over
    row intervals, so the cost depends on the coefficients only, not on M or
    box_margin, and each set of arguments is summed once per process.
    """
    if box_margin < 0:
        raise PreconditionError("box_margin must be nonnegative")
    return _cohomology(fan.a, tuple(d.coeffs), box_margin)


# Keyed on plain integers: a record compares equal to the tuple of its fields,
# so records of different kinds could share a key.
@lru_cache(maxsize=None)
def _cohomology(a: int, coeffs: Tuple[int, ...], margin: int) -> CohDims:
    half_width = (1 + a) * (sum(abs(c) for c in coeffs) + 1) + margin
    return CohDims(*_box_sum(a, coeffs, half_width))


def ext_dims(fan: HirzebruchFan, c1: PicClass, c2: PicClass) -> CohDims:
    """Ext^k between line bundles: cohomology of the difference class."""
    return cohomology_dims(fan, pic_to_divisor(fan, c2 - c1))


def ext_hom_table(
    fan: HirzebruchFan, bundles: Sequence[PicClass]
) -> Dict[Tuple[int, int], Dict[int, int]]:
    """Nonzero Ext dimensions by degree between every ordered pair of bundles.

    The shape of ``fukaya.DirectedAInfCategory.hom_table`` with object i
    sent to the line bundle of ``bundles[i]``.
    """
    return {
        (i, j): {
            k: dim
            for k, dim in enumerate(ext_dims(fan, source, target).triple)
            if dim
        }
        for i, source in enumerate(bundles)
        for j, target in enumerate(bundles)
    }


# --------------------------------------------- the (1,2) hypersurface check


def f2_variables() -> Tuple[MultiHomPoly, ...]:
    """x0, x1, x2 on the plane, then y0, y1 on the line, as polynomials."""
    return variables("x0 x1 x2 y0 y1")


def f2_form(x0, x1, y0, y1):
    """x0*y0^2 - x1*y1^2, over any ring."""
    return x0 * y0 * y0 - x1 * y1 * y1


def f2_equation() -> MultiHomPoly:
    """The form of bidegree (1,2) on the product of a plane and a line."""
    x0, x1, _, y0, y1 = f2_variables()
    return f2_form(x0, x1, y0, y1)


def f2_euler_identities(f, partials, x0, x1, x2, y0, y1):
    """Euler's relation on each factor for f with the given partials, in the
    order of the variables: x . grad_x f = f and y . grad_y f = 2 f.  Each
    side scales a term by its degree in that factor, so over Q(i) both hold
    exactly when f is bihomogeneous of bidegree (1, 2) (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, ch. 8)."""
    f_x0, f_x1, f_x2, f_y0, f_y1 = partials
    return [
        (x0 * f_x0 + x1 * f_x1 + x2 * f_x2 - f, ()),
        (y0 * f_y0 + y1 * f_y1 - 2 * f, ()),
    ]


# Chart certificates for certify_charts: on each affine chart (x_i = 1,
# y_j = 1) a combination of the dehomogenized equation g and its partials
# d that collapses to 1, proving the singular system has no solutions there.
F2_CHARTS: Dict[Tuple[str, str], Callable[..., MultiHomPoly]] = {
    # g = 1 - x1*y1^2; g - x1*d[x1] = 1 - x1 y1^2 + x1 y1^2
    ("x0", "y0"): lambda g, d, v: g - v("x1") * d["x1"],
    # g = y0^2 - x1; partial in x1 is the constant -1
    ("x0", "y1"): lambda g, d, v: -d["x1"],
    # g = x0 - y1^2
    ("x1", "y0"): lambda g, d, v: d["x0"],
    # g = x0*y0^2 - 1; x0*d[x0] - g = x0 y0^2 - x0 y0^2 + 1
    ("x1", "y1"): lambda g, d, v: v("x0") * d["x0"] - g,
    # g = x0 - x1*y1^2
    ("x2", "y0"): lambda g, d, v: d["x0"],
    # g = x0*y0^2 - x1
    ("x2", "y1"): lambda g, d, v: -d["x1"],
}


def verify_f2_hypersurface(f: Optional[MultiHomPoly] = None) -> bool:
    """Certify the (1,2) hypersurface: bidegree and smoothness, hence irreducible.

    ``f2_euler_identities`` certify the bidegree.  Smoothness is chartwise:
    the Euler relations reduce singularity on the chart (x_i = 1, y_j = 1)
    to the vanishing of g and its three affine partials, and the stored
    certificate exhibits 1 in that ideal.  The certificates are tailored to
    the default equation; a perturbed input fails the bidegree stage or the
    certificate identity itself, and so does f = 0, which has every
    bidegree.

    Irreducibility follows.  Any factorisation of a bidegree-(1,2) form is
    l*h with h a form in y0, y1 alone of positive degree.  At a root c of h
    the linear form l(., c) vanishes somewhere on the plane, and there f and
    all its partials vanish.  So an f that the certificates prove smooth is
    irreducible.
    """
    if f is None:
        f = f2_equation()
    xs = f2_variables()
    if f.variables != xs[0].variables:
        raise PreconditionError("expected the variables x0, x1, x2, y0, y1")
    partials = [f.partial(name) for name in f.variables]
    return (
        certify(f2_euler_identities(f, partials, *xs)) is None
        and certify_charts(f, F2_CHARTS) is None
    )
