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
Everything is exact, and every polynomial claim is data: an identity function
written over any ring, which ``poly.certify`` checks.  The orbit equation and
the 2x2 algebra of SL(2) come from ``lie``.  A point of P1 or of P1 x P1 is a
plain tuple of coordinates, or a pair of them, and two points are equal when
each factor's coordinates are ``parallel``.  Only the ranks of two quadrics and
the distinctness of the degenerate values are read off exact scalars instead.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Sequence, Tuple

from .errors import IndeterminatePointError, PreconditionError
from .gaussian import ExactMatrix
from .lie import (SL2_BASE, adjugate, determinant, diagonal, group_matrix, height,
                  modulo_r, orbit_residual, trace)
from .poly import MultiHomPoly, Rational, certify, certify_charts, product, variables
from .symplectic import sphere_embedding

_HALF = Fraction(1, 2)


def parallel(u: Sequence[Rational], v: Sequence[Rational]) -> bool:
    """Whether two coordinate pairs are proportional.

    Intended for pairs that are not all zero, where vanishing of their 2x2
    minor is the same as spanning the same line: the projective equality
    of two points of one factor.
    """
    return not determinant((u, v))


# --------------------------------------------------------------- quadric


def projective_closure(x, y, z, t):
    """The closure x^2 + yz - t^2 of the affine surface, over any ring."""
    return x * x + y * z - t * t


def quadric_identities(x, y, z, t, lam):
    """With h the closure: h(x, y, z, 1) is the orbit residual; h(lam x, ...,
    lam t) = lam^2 h; the shear h(x - t, y, z, x + t) is yz - 4xt, which at
    t/4 is -1 times the determinant relation xt - yz cutting out the product
    of two lines; and h(x, y, -z, 0) = x^2 - yz."""
    h = projective_closure
    quarter = t * Fraction(1, 4)
    return [
        (h(x, y, z, 1) - orbit_residual((x, y, z)), ()),
        (h(lam * x, lam * y, lam * z, lam * t) - lam * lam * h(x, y, z, t), ()),
        (h(x - t, y, z, x + t) - (y * z - 4 * x * t), ()),
        (h(x - quarter, y, z, x + quarter), ((x * t - y * z, -1),)),
        (h(x, y, -z, 0) - (x * x - y * z), ()),
    ]


def gram_rank(q: MultiHomPoly) -> int:
    """Rank of the symmetric Gram matrix of a homogeneous quadratic form
    with rational coefficients, so with no term in i."""
    if "i" in q.variables and any(key[q.var_index("i")] for key in q.terms):
        raise PreconditionError("gram_rank needs rational coefficients, not a term in i")
    if not q.terms or any(sum(key) != 2 for key in q.terms):
        raise PreconditionError("gram_rank needs a nonzero quadratic form")
    n = len(q.variables)
    g = [[0] * n for _ in range(n)]
    for key, coeff in q.terms.items():
        support = [i for i, e in enumerate(key) if e]
        if len(support) == 1:
            g[support[0]][support[0]] = coeff
        else:
            i, j = support
            g[i][j] = g[j][i] = coeff * _HALF
    return ExactMatrix(g).rank()


# Fixed coordinate renamings resolving the sign ambiguities left open by
# "up to scale" statements; each is an identity of quadric_identities.
SIGN_CONVENTIONS = {
    "product_quadric_rescaling": "after the shear x -> x - t, t -> x + t the "
    "closure equals -1 times the determinant relation once t is replaced by t/4",
    "infinity_conic_reflection": "the divisor at infinity t = 0 is x^2 + yz, "
    "matched to x^2 - yz by the reflection z -> -z",
}


def quadric_change_check() -> bool:
    """Certify the two coordinate presentations of the projective closure.

    ``quadric_identities`` holds, and the Gram matrices give rank 4 to the
    sheared closure and rank 3 (an irreducible conic) to the divisor at
    infinity t = 0.
    """
    x, y, z, t = variables("x y z t")
    return (
        certify(quadric_identities) is None
        and gram_rank(projective_closure(x - t, y, z, x + t)) == 4
        and gram_rank(projective_closure(x, y, z, 0)) == 3
    )


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


_UNITS = ((1, 0), (0, 1))


def height_forms(x, y, z, w):
    """The two bilinear forms (xw + yz, xw - yz) of the extended height map."""
    return (x * w + y * z, x * w - y * z)


def base_locus():
    """The two points ((x, y), (z, w)) where the extended height map is
    undefined, in plain ints that any ring reads."""
    return (((1, 0), (1, 0)), ((0, 1), (0, 1)))


def rational_extension(p: Sequence[Rational], q: Sequence[Rational]) -> Tuple[Rational, Rational]:
    """Extend the height coordinate to P1 x P1 as [xw + yz : xw - yz].

    ``p`` = (x, y) and ``q`` = (z, w) are the coordinates of the two
    factors; the value is the pair ``height_forms(x, y, z, w)``.  On pairs
    of eigenlines of an actual orbit matrix this restricts to the affine
    height; elsewhere it is still defined except at the two base points,
    where both forms vanish.
    """
    if len(p) != 2 or len(q) != 2 or not any(p) or not any(q):
        raise PreconditionError("rational_extension expects a point of P1 x P1")
    value = height_forms(*p, *q)
    if not any(value):
        raise IndeterminatePointError("indeterminate point")
    return value


# ------------------------------------------------------------ graph closure


def graph_equation(x, y, z, w, r, s):
    """s(xw + yz) - r(xw - yz), over any ring."""
    plus, minus = height_forms(x, y, z, w)
    return s * plus - r * minus


def graph_surface() -> MultiHomPoly:
    """Closure of the graph of the extension on the triple product of lines,
    with (x, y), (z, w) and (r, s) the coordinates of the three factors."""
    return graph_equation(*variables("x y z w r s"))


# Chart certificates for certify_charts, one per affine chart, expressing
# the constant 1 inside the ideal generated by the dehomogenized equation g
# and its partials d in the three surviving variables.
GRAPH_CHARTS: Dict[Tuple[str, str, str], Callable[..., MultiHomPoly]] = {
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


def graph_smooth_check() -> bool:
    """Smoothness of the graph closure, one exact certificate per chart.

    In each of the eight affine charts the certificate writes 1 as a
    polynomial combination of the chart equation and its partials, so the
    equation and its differential can have no common zero there.
    """
    return certify_charts(graph_surface(), GRAPH_CHARTS) is None


def exceptional_fiber_identities(r, s):
    """Over each point of ``base_locus()`` the graph equation is 0 for every
    value [r : s]: the whole line of values lies on the graph, the algebraic
    shadow of the two blown-up points."""
    return [(graph_equation(*p, *q, r, s), ()) for p, q in base_locus()]


# ------------------------------------------------------- orbit certificates
# A claim about the orbit is an identity in x, y, z, w modulo R = xw - yz - 1.


def tensor_projector_identities(x, y, z, w):
    """trace(M) - 1 = R, M col1 - col1 = R col1 and M col2 = 0."""
    m = tensor_entries(x, y, z, w)
    (f1,), (f2,) = product(m, ((x,), (y,)))
    (k1,), (k2,) = product(m, ((z,), (w,)))
    return modulo_r(x, y, z, w, (trace(m) - 1, 1), (f1 - x, x), (f2 - y, y), (k1, 0), (k2, 0))


def moment_conjugation_identities(x, y, z, w):
    """M = a diag(1/2, -1/2) adj(a) exactly, and M col1 - col1/2 = (R/2) col1."""
    m = moment_map(x, y, z, w)
    weights = diagonal((_HALF, -_HALF))
    conjugate = product(product(group_matrix(x, y, z, w), weights), adjugate(x, y, z, w))
    (e1,), (e2,) = product(m, ((x,), (y,)))
    pairs = [(m[i][j] - conjugate[i][j], 0) for i in range(2) for j in range(2)]
    return modulo_r(x, y, z, w, *pairs, (e1 - x * _HALF, x * _HALF), (e2 - y * _HALF, y * _HALF))


def extension_on_orbit_identities(x, y, z, w):
    """num - den * height = -(xw + yz) R, the height being tr(diag(1, -1) M)."""
    numerator, denominator = height_forms(x, y, z, w)
    value = height(SL2_BASE, moment_map(x, y, z, w))
    return modulo_r(x, y, z, w, (numerator - denominator * value, -numerator))


def graph_extension_identities(x, y, z, w):
    """The graph equation with r, s replaced by the two forms is 0 R."""
    return modulo_r(x, y, z, w, (graph_equation(x, y, z, w, *height_forms(x, y, z, w)), 0))


def scaling_identities(x, y, z, w, lam, mu, r, s):
    """f(lam x, lam y, mu z, mu w) = lam mu f(x, y, z, w) for both height
    forms and the graph equation: each has bidegree (1, 1) in the points."""
    scaled = (lam * x, lam * y, mu * z, mu * w)
    pairs = (
        *zip(height_forms(*scaled), height_forms(x, y, z, w)),
        (graph_equation(*scaled, r, s), graph_equation(x, y, z, w, r, s)),
    )
    return [(f - lam * mu * g, ()) for f, g in pairs]


def base_locus_identities(x, y, z, w):
    """xw = (num + den)/2 and yz = (num - den)/2 for the two height forms:
    the forms generate the ideal (xw, yz)."""
    numerator, denominator = height_forms(x, y, z, w)
    return [
        (x * w - (numerator + denominator) * _HALF, ()),
        (y * z - (numerator - denominator) * _HALF, ()),
    ]


def _indeterminate(p, q) -> bool:
    try:
        rational_extension(p, q)
    except IndeterminatePointError:
        return True
    return False


def base_locus_certificate() -> bool:
    """The extension is undefined exactly on ``base_locus()``.

    By ``base_locus_identities`` the two forms vanish together exactly where
    xw and yz do.  A zero of xw and yz on P1 x P1 has one zero coordinate in
    each factor: x = 0 forces y != 0, so z = 0 and w != 0, and x != 0 forces
    w = 0, so z != 0 and y = 0.  So every such zero is one of the four
    torus-fixed points, and of those the extension must raise exactly at
    the points of ``base_locus()``, which are written on the same unit
    vectors.
    """
    raised = sorted((p, q) for p in _UNITS for q in _UNITS if _indeterminate(p, q))
    return (
        certify(base_locus_identities) is None
        and raised == sorted(base_locus())
    )


def _replaced_scan(*args, **kwargs):
    raise NotImplementedError("this sample scan was replaced by an exact certificate")


# perfbench/tracer.py still looks up the four sample scans the certificates
# replaced.  Their names stay bound to a stand-in that nothing calls, so the
# tracer finds them and times no other code under them.
random_group_elements = moment_orbit_scan = orbit_value_identity = singular_scan = _replaced_scan


# ------------------------------------------------------------------ fibers


def coefficient_matrix(form):
    """The (x, y) x (z, w) coefficient matrix of a form bilinear in the two
    points, given as a function of x, y, z, w: entry (u, v) is its value at
    the unit vectors e_u and e_v, over any ring."""
    return tuple(tuple(form(*p, *q) for q in _UNITS) for p in _UNITS)


# The values [r : s] over which the extended map has a singular fiber, and
# the singular point ((x, y), (z, w)) of each fiber, in plain ints.
DEGENERATE_VALUES = ((1, 1), (1, -1))
SINGULAR_POINTS = (((1, 0), (0, 1)), ((0, 1), (1, 0)))


def singular_point_identities(lam, mu):
    """Over each degenerate value the fiber vanishes at (lam p, mu q), for its
    singular point (p, q), and so do its four partials: the fiber is
    bilinear, so those in x, y are its values at (e_x, mu q), (e_y, mu q)
    and those in z, w its values at (lam p, e_z), (lam p, e_w)."""
    identities = []
    for (r, s), (p, q) in zip(DEGENERATE_VALUES, SINGULAR_POINTS):
        p, q = tuple(lam * c for c in p), tuple(mu * c for c in q)
        points = [p + q, *(e + q for e in _UNITS), *(p + e for e in _UNITS)]
        identities += [(graph_equation(*point, r, s), ()) for point in points]
    return identities


def singular_points_certificate() -> bool:
    """Each fiber over ``DEGENERATE_VALUES`` is singular at its point of
    ``SINGULAR_POINTS``.

    Once ``scaling_identities`` certifies the graph bilinear, so that its
    partials are its values at unit vectors, ``singular_point_identities``
    certifies each point: it satisfies its fiber equation and annihilates
    all four bihomogeneous partials.
    """
    return certify(scaling_identities) is None and certify(singular_point_identities) is None


def degenerate_value_identities(r, s):
    """The determinant of the graph's coefficient matrix, a binary form in
    r, s, is -1 times the product of b r - a s over the values [a : b] of
    ``DEGENERATE_VALUES``: r^2 - s^2 = -(r - s)(-r - s)."""
    matrix = coefficient_matrix(functools.partial(graph_equation, r=r, s=s))
    roots = math.prod(b * r - a * s for a, b in DEGENERATE_VALUES)
    return [(determinant(matrix), ((roots, -1),))]


def degenerate_values_certificate() -> bool:
    """The fibers degenerate over ``DEGENERATE_VALUES`` and nowhere else.

    The graph equation is the whole family of fibers with symbolic r, s, so
    once ``scaling_identities`` certifies it bilinear, the determinant of
    its coefficient matrix is the degeneracy test over every value at once.
    By ``degenerate_value_identities`` it is a nonzero constant times the
    product of the forms b r - a s over the values [a : b], which are
    pairwise not proportional; so its zeros are exactly those values, each
    a simple root.
    """
    pairs = itertools.combinations(DEGENERATE_VALUES, 2)
    return (
        not any(parallel(u, v) for u, v in pairs)
        and certify(scaling_identities) is None
        and certify(degenerate_value_identities) is None
    )


# -------------------------------------------------------------- deformation


def deformed_ring(x, y, z):
    """The time-2 member (x + 1)^2 - yz - 1 of the deformation, over any ring."""
    return (x + 1) * (x + 1) - y * z - 1


def deformed_ring_identities(x, y, z):
    """The affine change x -> x - 1, y -> -y carries the time-2 member to
    the orbit residual exactly, so the two coordinate rings agree."""
    return [(deformed_ring(x - 1, -y, z) - orbit_residual((x, y, z)), ())]


def unchanged_ring_certificate(x, y, z):
    """The time-2 member as c times the orbit residual g, unchanged.

    g has a nonzero constant term, so the only c that could work is the
    ratio of the two constant terms, 0 / -1; this certificate must fail, as
    the time-2 member is then no scalar multiple of g.
    """
    c = Fraction(deformed_ring(0, 0, 0), orbit_residual((0, 0, 0)))
    return [(deformed_ring(x, y, z), ((orbit_residual((x, y, z)), c),))]


# ------------------------------------------------- sphere versus base locus


def sphere_off_infinity_identities(p, q, r, x, y, z, i):
    """The orbit residual of ``sphere_embedding`` is (p^2 + q^2 + r^2 - 1) 1, and
    M = [[x, y], [z, -x]] has M M - I = R I with R = x^2 + yz - 1."""
    sphere = orbit_residual(sphere_embedding(p, q, r, i))
    matrix = ((x, y), (z, -x))
    square, relation = product(matrix, matrix), orbit_residual((x, y, z))
    return [(sphere, ((p * p + q * q + r * r - 1, 1),))] + [
        (square[a][b] - int(a == b), ((relation, int(a == b)),)) for a in range(2) for b in range(2)
    ]


def sphere_off_infinity_certificate() -> bool:
    """The embedded sphere stays in the affine orbit, off both base points.

    By ``sphere_off_infinity_identities`` the unit sphere lands on the orbit,
    and every orbit matrix is a trace-zero involution with two eigenlines,
    whose pair misses the diagonal; both points of ``base_locus()`` lie on it.
    The imaginary unit is the symbol i, which ``certify`` reduces modulo
    i^2 + 1.
    """
    on_diagonal = not any(determinant(pt) for pt in base_locus())
    return certify(sphere_off_infinity_identities) is None and on_diagonal
