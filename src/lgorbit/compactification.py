"""Closure of the affine quadric surface inside a product of projective lines.

The affine surface x^2 + yz = 1 carries two useful exact presentations:

* as a quadric in projective 3-space after homogenizing by t, where a shear
  takes it to the rank-4 product quadric (the determinant relation cut out
  by a product of two projective lines), and
* as the set of trace-zero 2x2 matrices [[X, Y], [Z, -X]] with determinant
  -1, each of which is determined by its ordered pair of eigenlines, giving
  an embedding into P1 x P1 whose complement is the diagonal.

This module certifies both presentations, extends the height coordinate to
a rational map on P1 x P1 with exactly two indeterminate points, closes its
graph inside a triple product of lines, checks the closure is smooth chart
by chart, and classifies which fibers of the extended map degenerate.
Everything is exact: Gaussian rational scalars, dense multihomogeneous
polynomials, and certificate identities instead of floating point.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, NamedTuple, Sequence, Tuple

from .errors import IndeterminatePointError, PreconditionError, StructureError
from .gaussian import ONE, ZERO, ExactMatrix, GaussianRational, RatLike
from .poly import Blocks, MultiHomPoly, certify_charts
from .symplectic import RATIONAL_SPHERE_POINTS, orbit_residual, sphere_point

_HALF = Fraction(1, 2)

# Single block: the quadric surface lives in one projective 3-space.
ORBIT_BLOCKS = (("x", "y", "z", "t"),)
# Three factors of P1 for the graph closure of the extended height map.
GRAPH_BLOCKS = (("x", "y"), ("z", "w"), ("r", "s"))
# Two factors for individual fibers.
FIBER_BLOCKS = (("x", "y"), ("z", "w"))


def _parallel(u: Sequence[GaussianRational], v: Sequence[GaussianRational]) -> bool:
    """Whether two coordinate tuples of equal length are proportional.

    Intended for tuples that are not all zero, where vanishing of every
    2x2 minor is the same as spanning the same line.
    """
    n = len(u)
    return all(
        u[i] * v[j] == u[j] * v[i] for i in range(n) for j in range(i + 1, n)
    )


class MultiProjPoint:
    """A point of a product of projective spaces with exact coordinates.

    Equality is factor-wise proportionality; no affine normalization is
    ever applied, so comparisons stay exact for arbitrary representatives.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[Iterable[RatLike]]):
        coerced = tuple(
            tuple(GaussianRational.coerce(c) for c in factor) for factor in factors
        )
        if not coerced:
            raise StructureError("point needs at least one factor")
        for factor in coerced:
            if not factor:
                raise StructureError("factor with no coordinates")
            if all(c.is_zero() for c in factor):
                raise StructureError("all-zero coordinate tuple in a factor")
        self.factors = coerced

    def __eq__(self, other):
        if not isinstance(other, MultiProjPoint):
            return NotImplemented
        if len(self.factors) != len(other.factors):
            return False
        for mine, theirs in zip(self.factors, other.factors):
            if len(mine) != len(theirs) or not _parallel(mine, theirs):
                return False
        return True

    # projective equality admits no cheap canonical hash; forbid dict use
    __hash__ = None

    def __str__(self) -> str:
        rendered = ",".join(
            "[" + ":".join(str(c) for c in factor) + "]" for factor in self.factors
        )
        return rendered if len(self.factors) == 1 else "(" + rendered + ")"

    __repr__ = __str__


# -------------------------------------------------- ring-generic 2x2 algebra
# Each construction on a = [[x, z], [y, w]] is written once, over any ring, on
# the four entries and returns nested tuples; callers evaluate it on exact
# entries, and the certificates call it on polynomial symbols.


def product(a, b):
    """Product of 2x2 nested-tuple matrices; b may be a column."""
    return tuple(tuple(r[0] * b[0][j] + r[1] * b[1][j] for j in range(len(b[0]))) for r in a)


def trace(m):
    return m[0][0] + m[1][1]


def determinant(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def group_matrix(x, y, z, w):
    return ((x, z), (y, w))


def adjugate(x, y, z, w):
    """Adjugate of [[x, z], [y, w]], its inverse when the determinant is 1."""
    return ((w, -z), (-y, x))


def height_forms(x, y, z, w):
    """The two bilinear forms (xw + yz, xw - yz) of the extended height map."""
    return (x * w + y * z, x * w - y * z)


# --------------------------------------------------------------- quadric


def orbit_affine_equation() -> MultiHomPoly:
    """The affine surface equation x^2 + yz - 1 (in the 4-variable ring)."""
    return orbit_residual(tuple(MultiHomPoly.variable(ORBIT_BLOCKS, name) for name in "xyz"))


def homogenize_orbit() -> MultiHomPoly:
    """Projective closure of the affine surface: x^2 + yz - t^2."""
    return orbit_affine_equation().homogenize("t")


def segre_quadric() -> MultiHomPoly:
    """Determinant relation xt - yz cutting out the product of two lines."""
    x, y, z, t = (MultiHomPoly.variable(ORBIT_BLOCKS, name) for name in "xyzt")
    return x * t - y * z


def gram_rank(q: MultiHomPoly) -> int:
    """Rank of the symmetric Gram matrix of a homogeneous quadratic form."""
    if q.is_zero() or any(sum(key) != 2 for key in q.terms):
        raise PreconditionError("gram_rank needs a nonzero quadratic form")
    names = q.variables
    n = len(names)
    g = [[ZERO for _ in range(n)] for _ in range(n)]
    for key, coeff in q.terms.items():
        support = [i for i, e in enumerate(key) if e]
        if len(support) == 1:
            g[support[0]][support[0]] = coeff
        else:
            i, j = support
            g[i][j] = coeff * _HALF
            g[j][i] = coeff * _HALF
    return ExactMatrix(g).rank()


# Fixed coordinate renamings resolving the sign ambiguities left open by
# "up to scale" statements; each is certified inside quadric_change_check.
SIGN_CONVENTIONS = {
    "product_quadric_rescaling": "after the shear x -> x - t, t -> x + t the "
    "closure equals -1 times the determinant relation once t is replaced by t/4",
    "infinity_conic_reflection": "the divisor at infinity t = 0 is x^2 + yz, "
    "matched to x^2 - yz by the reflection z -> -z",
}


def quadric_change_check() -> bool:
    """Certify the two coordinate presentations of the projective closure.

    Checks, in order: the homogenization is x^2 + yz - t^2; the shear
    x -> x - t, t -> x + t turns it into a rank-4 quadric; rescaling t by
    1/4 lands on a scalar multiple of the determinant relation; and the
    divisor at infinity is a rank-3 (irreducible conic) quadric matching
    x^2 - yz after reflecting z.
    """
    h = homogenize_orbit()
    x, y, z, t = (MultiHomPoly.variable(ORBIT_BLOCKS, name) for name in "xyzt")
    if h != x * x + y * z - t * t:
        return False
    sheared = h.substitute({"x": x - t, "t": x + t})
    if sheared != y * z - x * t * 4:
        return False
    if gram_rank(sheared) != 4:
        return False
    rescaled = sheared.substitute({"t": t * Fraction(1, 4)})
    if rescaled.scalar_multiple_of(segre_quadric()) != GaussianRational(-1):
        return False
    infinity = h.substitute({"t": 0})
    if infinity != x * x + y * z:
        return False
    reflected = infinity.substitute({"z": -z})
    if reflected != x * x - y * z:
        return False
    return gram_rank(infinity) == 3


# ------------------------------------------------------- matrix incarnations


def tensor_entries(x, y, z, w):
    """Rank-1 projector image of the base point under conjugation dynamics.

    The matrix [[xw, -xz], [yw, -yz]]: trace 1, kills the second column of
    the group element and fixes the first.
    """
    return ((x * w, -(x * z)), (y * w, -(y * z)))


def moment_map(x, y, z, w):
    """Trace-zero matrix pairing the first column with its dual covector.

    For v = (x, y) and eps = (e1, e2) = (w, -z), row one of adj(a), this is
    the unique trace-zero matrix whose pairing against Z equals eps(Z v)
    shifted to mean zero: [[ (e1 x - e2 y)/2, x e2 ], [ y e1, -(e1 x - e2 y)/2 ]].
    """
    e1, e2 = adjugate(x, y, z, w)[0]
    half_diag = (e1 * x - e2 * y) * _HALF
    return ((half_diag, x * e2), (y * e1, -half_diag))


# ----------------------------------------------------- rational extension


def base_locus() -> Tuple[MultiProjPoint, MultiProjPoint]:
    """The two points where the extended height map is undefined."""
    return (
        MultiProjPoint(((1, 0), (1, 0))),
        MultiProjPoint(((0, 1), (0, 1))),
    )


def rational_extension(pt: MultiProjPoint) -> MultiProjPoint:
    """Extend the height coordinate to P1 x P1 as [xw + yz : xw - yz].

    On pairs of eigenlines of an actual orbit matrix this restricts to the
    affine height; elsewhere it is still defined except at the two base
    points, where both forms vanish.
    """
    if len(pt.factors) != 2 or any(len(f) != 2 for f in pt.factors):
        raise PreconditionError("rational_extension expects a point of P1 x P1")
    (x, y), (z, w) = pt.factors
    numerator, denominator = height_forms(x, y, z, w)
    if numerator.is_zero() and denominator.is_zero():
        raise IndeterminatePointError("indeterminate point")
    return MultiProjPoint(((numerator, denominator),))


# ------------------------------------------------------------ graph closure


def graph_surface() -> MultiHomPoly:
    """Closure of the graph of the extension: s(xw + yz) - r(xw - yz)."""
    plus, minus = height_forms(*generic_element(GRAPH_BLOCKS))
    r, s = (MultiHomPoly.variable(GRAPH_BLOCKS, name) for name in "rs")
    return s * plus - r * minus


# Chart certificates for certify_charts, one per affine chart, expressing
# the constant 1 inside the ideal generated by the dehomogenized equation g
# and its partials d in the three surviving variables.
_GRAPH_CERTIFICATES: Dict[Tuple[str, str, str], Callable[..., MultiHomPoly]] = {
    ("x", "z", "r"): lambda g, d, v: (d["y"] - d["w"]) * _HALF,
    ("x", "z", "s"): lambda g, d, v: (d["y"] + d["w"]) * _HALF,
    ("y", "w", "r"): lambda g, d, v: (d["z"] - d["x"]) * _HALF,
    ("y", "w", "s"): lambda g, d, v: (d["z"] + d["x"]) * _HALF,
    ("x", "w", "r"): lambda g, d, v: d["s"]
    - v("z") * d["z"] * _HALF
    + v("y") * v("z") * g * _HALF
    - v("y") * v("y") * v("z") * d["y"] * _HALF,
    ("x", "w", "s"): lambda g, d, v: -d["r"]
    + v("z") * d["z"] * _HALF
    + v("y") * v("z") * g * _HALF
    - v("y") * v("y") * v("z") * d["y"] * _HALF,
    ("y", "z", "r"): lambda g, d, v: d["s"]
    + v("x") * d["x"] * _HALF
    - v("x") * v("w") * g * _HALF
    + v("x") * v("x") * v("w") * d["x"] * _HALF,
    ("y", "z", "s"): lambda g, d, v: d["r"]
    + v("x") * d["x"] * _HALF
    + v("x") * v("w") * g * _HALF
    - v("x") * v("x") * v("w") * d["x"] * _HALF,
}


def graph_chart_count() -> int:
    return len(_GRAPH_CERTIFICATES)


def graph_smooth_check() -> bool:
    """Smoothness of the graph closure, one exact certificate per chart.

    In each of the eight affine charts the certificate writes 1 as a
    polynomial combination of the chart equation and its partials, so the
    equation and its differential can have no common zero there.
    """
    return certify_charts(graph_surface(), _GRAPH_CERTIFICATES)


def exceptional_fiber_check() -> bool:
    """Above each base point the whole line of values lies on the graph.

    Substituting the coordinates of each point of ``base_locus()`` must
    leave the zero polynomial in the value variables, the algebraic shadow
    of the two blown-up points.
    """
    g = graph_surface()
    return all(
        g.substitute(dict(zip("xyzw", pt.factors[0] + pt.factors[1]))).is_zero()
        for pt in base_locus()
    )


# ------------------------------------------------------- orbit certificates
# A claim about the orbit is an identity in the generic entries modulo
# R = xw - yz - 1.  A certificate lists pairs (difference, cofactor) with
# difference = cofactor * R, putting each difference in the ideal (R) (Cox,
# Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 1-2).


@functools.cache
def generic_element(blocks: Blocks = FIBER_BLOCKS) -> Tuple[MultiHomPoly, ...]:
    """The entries x, y, z, w as variables on ``blocks``, built once per blocks."""
    return tuple(MultiHomPoly.variable(blocks, name) for name in "xyzw")


def certify_cofactors(certificate: Callable, blocks: Blocks = FIBER_BLOCKS) -> bool:
    """Whether each (difference, q) the certificate gives has difference = q * R."""
    x, y, z, w = generic_element(blocks)
    relation = determinant(group_matrix(x, y, z, w)) - 1
    return all(diff == relation * q for diff, q in certificate(x, y, z, w))


def tensor_projector_certificate(x, y, z, w):
    """trace(M) - 1 = R, M col1 - col1 = R col1 and M col2 = 0."""
    m = tensor_entries(x, y, z, w)
    (f1,), (f2,) = product(m, ((x,), (y,)))
    (k1,), (k2,) = product(m, ((z,), (w,)))
    return [(trace(m) - 1, 1), (f1 - x, x), (f2 - y, y), (k1, 0), (k2, 0)]


def moment_conjugation_certificate(x, y, z, w):
    """M = a diag(1/2, -1/2) adj(a) exactly, and M col1 - col1/2 = (R/2) col1."""
    m = moment_map(x, y, z, w)
    half_weights = ((_HALF, 0), (0, -_HALF))
    conjugate = product(product(group_matrix(x, y, z, w), half_weights), adjugate(x, y, z, w))
    (e1,), (e2,) = product(m, ((x,), (y,)))
    pairs = [(m[i][j] - conjugate[i][j], 0) for i in range(2) for j in range(2)]
    return pairs + [(e1 - x * _HALF, x * _HALF), (e2 - y * _HALF, y * _HALF)]


def extension_on_orbit_certificate(x, y, z, w):
    """num - den * height = -(xw + yz) R, the height being tr(diag(1, -1) M)."""
    numerator, denominator = height_forms(x, y, z, w)
    height = trace(product(((1, 0), (0, -1)), moment_map(x, y, z, w)))
    return [(numerator - denominator * height, -numerator)]


def orbit_membership_certificate(x, y, z, w):
    """M = a diag(1, -1) adj(a), a conjugate on SL(2), has trace 0 and
    x^2 + yz - 1 = R (R + 2) on its coordinates: every one is on the orbit."""
    m = product(product(group_matrix(x, y, z, w), ((1, 0), (0, -1))), adjugate(x, y, z, w))
    return [(trace(m), 0), (orbit_residual((m[0][0], m[0][1], m[1][0])), x * w - y * z + 1)]


def graph_extension_certificate(x, y, z, w):
    """The graph equation with r, s replaced by the two forms is zero."""
    numerator, denominator = height_forms(x, y, z, w)
    return [(graph_surface().substitute({"r": numerator, "s": denominator}), 0)]


def extension_scaling_certificate() -> bool:
    """Both forms have bidegree (1, 1): scaling the factors scales both alike."""
    return all(f.multidegree == (1, 1) for f in height_forms(*generic_element()))


def base_locus_certificate() -> bool:
    """The extension is undefined exactly on ``base_locus()``.

    An invertible coefficient matrix on their support makes the forms
    generate its monomials, (xw, yz) as 1/2 is a unit.  Each choice of one
    variable per monomial to vanish gives a point, nothing when it zeroes a
    factor, or a curve when it leaves one free.  The points must be the
    claimed ones, and at the torus-fixed points the extension raises exactly
    there.
    """
    forms = height_forms(*generic_element())
    support = sorted({key for f in forms for key in f.terms})
    matrix = [[f.terms.get(key, ZERO) for key in support] for f in forms]
    if len(support) != len(forms) or determinant(matrix).is_zero():
        return False
    found = []
    for choice in itertools.product(*([i for i, e in enumerate(k) if e] for k in support)):
        zeroed = [(i in choice, i + 1 in choice) for i in (0, 2)]  # per factor
        if (True, True) in zeroed:
            continue
        if (False, False) in zeroed:
            return False
        found.append(MultiProjPoint([(int(not u), int(not v)) for u, v in zeroed]))
    locus = base_locus()
    if not all(any(p == q for q in b) for a, b in ((found, locus), (locus, found)) for p in a):
        return False
    fixed = ((1, 0), (0, 1))
    for pt in (MultiProjPoint((f1, f2)) for f1 in fixed for f2 in fixed):
        try:
            rational_extension(pt)
            raised = False
        except IndeterminatePointError:
            raised = True
        if raised != any(pt == q for q in locus):
            return False
    return True


def _replaced_scan(*args, **kwargs):
    raise NotImplementedError("this sample scan was replaced by an exact certificate")


# perfbench/tracer.py still looks up the four sample scans the certificates
# replaced.  Their names stay bound to a stand-in that nothing calls, so the
# tracer finds them and times no other code under them.
random_group_elements = moment_orbit_scan = orbit_value_identity = singular_scan = _replaced_scan


# ------------------------------------------------------------------ fibers


def compactified_fiber(r0: RatLike, s0: RatLike) -> MultiHomPoly:
    """Fiber of the extended map over [r0 : s0] inside P1 x P1.

    It is s0 (xw + yz) - r0 (xw - yz), read off the two height forms.
    """
    r0 = GaussianRational.coerce(r0)
    s0 = GaussianRational.coerce(s0)
    if r0.is_zero() and s0.is_zero():
        raise PreconditionError("fiber needs a nonzero value pair")
    plus, minus = height_forms(*generic_element())
    return plus * s0 - minus * r0


def coefficient_matrix(form: MultiHomPoly) -> Tuple[Tuple[MultiHomPoly, ...], ...]:
    """The (x, y) x (z, w) coefficient matrix of a form bilinear in the points.

    Entry (u, v) is the second partial in u and v, a polynomial in whatever
    variables the form has besides x, y, z, w.
    """
    return tuple(tuple(form.partial(row).partial(col) for col in "zw") for row in "xy")


def is_singular_value(r0: RatLike, s0: RatLike) -> bool:
    """Whether the fiber over [r0 : s0] degenerates.

    A bidegree-(1, 1) curve in P1 x P1 is singular exactly when the 2x2
    matrix of its coefficients is singular.
    """
    return determinant(coefficient_matrix(compactified_fiber(r0, s0))).is_zero()


# The values [r : s] over which the extended map has a singular fiber.
DEGENERATE_VALUES = ((ONE, ONE), (ONE, -ONE))


class CriticalData(NamedTuple):
    values: Tuple[MultiProjPoint, ...]
    points: Tuple[MultiProjPoint, ...]
    verified: bool


def critical_data() -> CriticalData:
    """The two degenerate values with their unique singular points.

    Each claimed point is certified directly: it satisfies its fiber
    equation and annihilates all four bihomogeneous partials.
    """
    values = tuple(MultiProjPoint((value,)) for value in DEGENERATE_VALUES)
    points = (
        MultiProjPoint(((1, 0), (0, 1))),
        MultiProjPoint(((0, 1), (1, 0))),
    )
    verified = True
    for value, point in zip(values, points):
        r0, s0 = value.factors[0]
        if not is_singular_value(r0, s0):
            verified = False
            break
        fiber = compactified_fiber(r0, s0)
        (x, y), (z, w) = point.factors
        assignment = {"x": x, "y": y, "z": z, "w": w}
        if not fiber.evaluate(assignment).is_zero():
            verified = False
            break
        if any(
            not fiber.partial(name).evaluate(assignment).is_zero()
            for name in ("x", "y", "z", "w")
        ):
            verified = False
            break
    return CriticalData(values, points, verified)


def degenerate_values_certificate() -> bool:
    """The fibers degenerate over ``DEGENERATE_VALUES`` and nowhere else.

    The graph equation is the whole family of fibers with symbolic r, s, so
    the determinant of its coefficient matrix is the degeneracy test over
    every value at once, a binary form in r, s.  It must be a nonzero
    constant times the product of the forms b r - a s over the values
    [a : b], which are pairwise not proportional; then its zeros are exactly
    those values, each a simple root.
    """
    graph = graph_surface()
    r, s = (MultiHomPoly.variable(GRAPH_BLOCKS, name) for name in "rs")
    roots = math.prod(r * b - s * a for a, b in DEGENERATE_VALUES)
    pairs = itertools.combinations(DEGENERATE_VALUES, 2)
    distinct = not any(_parallel(u, v) for u, v in pairs)
    return (
        graph.multidegree[:2] == (1, 1)
        and distinct
        and determinant(coefficient_matrix(graph)).scalar_multiple_of(roots) is not None
    )


# -------------------------------------------------------------- deformation


def deformed_ring_iso_check() -> bool:
    """The time-2 member of the deformation is the original surface.

    The affine change x -> x - 1, y -> -y carries (x+1)^2 - yz - 1 to a
    nonzero scalar multiple of x^2 + yz - 1, so the two coordinate rings
    agree.
    """
    x, y = (MultiHomPoly.variable(ORBIT_BLOCKS, name) for name in "xy")
    moved = _deformed_ring_equation().substitute({"x": x - 1, "y": -y})
    return moved.scalar_multiple_of(orbit_affine_equation()) is not None


def deformed_ring_control() -> bool:
    """Without the change of coordinates the two equations differ."""
    return _deformed_ring_equation().scalar_multiple_of(orbit_affine_equation()) is not None


def _deformed_ring_equation() -> MultiHomPoly:
    """The time-2 member (x + 1)^2 - yz - 1 of the deformation."""
    x, y, z = (MultiHomPoly.variable(ORBIT_BLOCKS, name) for name in "xyz")
    return (x + 1) * (x + 1) - y * z - 1


# ------------------------------------------------- sphere versus base locus


def sphere_point_orbit_pair(p: Fraction, q: Fraction, r: Fraction) -> MultiProjPoint:
    """Eigenline pair of the orbit matrix attached to a unit-sphere point.

    ``symplectic.sphere_point`` maps the sphere point to the trace-zero
    matrix with entries X = r, Y = -p + qi, Z = -p - qi, which satisfies
    X^2 + YZ = 1, and rejects a point off the sphere; its two eigenlines
    give a point of P1 x P1 off the diagonal.
    """
    big_x, big_y, big_z = sphere_point(Fraction(p), Fraction(q), Fraction(r))
    if big_y.is_zero() and big_x == ONE:
        plus = (big_x + ONE, big_z)
    else:
        plus = (big_y, ONE - big_x)
    if big_y.is_zero() and big_x == -ONE:
        minus = (big_x - ONE, big_z)
    else:
        minus = (big_y, -(big_x + ONE))
    pair = MultiProjPoint((plus, minus))
    matrix = ((big_x, big_y), (big_z, -big_x))
    for line, eigenvalue in ((plus, ONE), (minus, -ONE)):
        if product(matrix, tuple((e,) for e in line)) != tuple((eigenvalue * e,) for e in line):
            raise StructureError("eigenline certificates failed")
    return pair


def sphere_avoids_base_locus(
    points: Sequence[Tuple[Fraction, Fraction, Fraction]] = RATIONAL_SPHERE_POINTS,
) -> bool:
    """Sphere sample points land in the affine orbit, away from both base points.

    Distinct eigenlines mean the pair avoids the diagonal, which contains
    the entire divisor at infinity and in particular both base points; the
    base-point comparisons are still made explicitly.
    """
    locus = base_locus()
    for p, q, r in points:
        pair = sphere_point_orbit_pair(p, q, r)
        (u1, u2), (v1, v2) = pair.factors
        if (u1 * v2 - u2 * v1).is_zero():
            return False
        if pair == locus[0] or pair == locus[1]:
            return False
    return True
