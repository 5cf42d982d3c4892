"""The negative controls of the report, in one table keyed by row id.

Each control patches one library attribute the way a faulty edit could:
``CONTROLS[row]`` lists ``(owner, name, replacement)`` triples, and with any
one of them in place the row must FAIL and ``verify`` must exit 1
(``tests/test_negative_controls.py``).  A control that raises shows that a
check that crashes still reports a failed row.  ``PENDING`` names the PASS
rows that no control reaches yet.
"""

import functools
import math
from fractions import Fraction

from lgorbit import compactification as cg
from lgorbit import fukaya, lie, mirror, quiver, symplectic, toric
from lgorbit.errors import DiagnosticError
from lgorbit.fukaya import DirectedAInfCategory, GradedModule, ProductEntry
from lgorbit.mirror import LineBundle, Skyscraper

# ---------------------------------------------------------------- category


def chain_with_m3():
    """f: 0 -> 1 and g: 1 -> 2 in degree 0, k: 0 -> 2 in degree -1, unital
    m_2 entries for all three, no f.g, and m_3(id_0, f, g) = k."""
    homs = {
        (0, 0): GradedModule([("i0", 0)]),
        (1, 1): GradedModule([("i1", 0)]),
        (2, 2): GradedModule([("i2", 0)]),
        (0, 1): GradedModule([("f", 0)]),
        (1, 2): GradedModule([("g", 0)]),
        (0, 2): GradedModule([("k", -1)]),
    }
    units = [(("i0", "i0"), "i0"), (("i1", "i1"), "i1"), (("i2", "i2"), "i2"),
             (("i0", "f"), "f"), (("f", "i1"), "f"), (("i1", "g"), "g"),
             (("g", "i2"), "g"), (("i0", "k"), "k"), (("k", "i2"), "k")]
    products = [ProductEntry(chain, out) for chain, out in units]
    return DirectedAInfCategory(
        ("A", "B", "C"), homs, products + [ProductEntry(("i0", "f", "g"), "k")]
    )


def _no_products(self, chain):
    # every m_k reads zero, so each relation sums no term at all
    return {}


def _shifts_off_by_one(a, b, n_objects, original=fukaya._solve_shifts):
    return tuple(s + (i > 0) for i, s in enumerate(original(a, b, n_objects)))


def _degree_one_lost(fan, c1, c2, original=toric.ext_dims):
    dims = original(fan, c1, c2)
    return toric.CohDims(dims.h0, 0, dims.h2) if fan.a == 2 else dims


def _every_surface_degree_two(fan, c1, c2, original=toric.ext_dims):
    # the F0 and F1 controls then match as well, so the row must not pass
    return original(toric.HirzebruchFan(2), c1, c2)


# ---------------------------------------------------------- compactification


def _conjugated_embedding(p, q, r, i):
    # z = p - iq for -p - iq: the matrix is no longer on the orbit
    return (r, -p + i * q, p - i * q)


def _off_diagonal_base_locus():
    return (((1, 0), (0, 1)), ((0, 1), (0, 1)))


def _wrong_cofactor(identities):
    # every cofactor one more, so each identity with a relation fails; the
    # control keeps the wrapped signature, which names the symbols that
    # poly.certify builds, and its own name, which names the test case
    return functools.update_wrapper(lambda *symbols: [
        (d, tuple((r, q + 1) for r, q in terms)) for d, terms in identities(*symbols)
    ], identities, assigned=())


# the chart whose certificate the two chart controls corrupt
WRONG_CHART = 5


def _wrong_chart_cofactor(charts):
    # g's cofactor 1 more in one chart: its certificate no longer reads 1
    chart = list(charts)[WRONG_CHART]
    return {**charts, chart: lambda g, d, v, original=charts[chart]: original(g, d, v) + g}


# the replacements keep the original they perturb, since the test patches it away
def _perturbed_tensor(x, y, z, w, original=cg.tensor_entries):
    (a, b), (c, d) = original(x, y, z, w)
    return ((a, -b), (c, d))


def _perturbed_moment(x, y, z, w, original=cg.moment_map):
    (a, b), (c, d) = original(x, y, z, w)
    return ((a, b + x), (c, d))


def _unbalanced_forms(x, y, z, w, original=cg.height_forms):
    numerator, denominator = original(x, y, z, w)
    return (numerator * x, denominator)


def _graph_plus_term(x, y, z, w, r, s, original=cg.graph_equation):
    return original(x, y, z, w, r, s) + x * w * r


def _numerator_plus_xz(x, y, z, w, original=cg.height_forms):
    # support {xw, yz, xz}: the forms no longer generate (xw, yz), and the base
    # point ((1, 0), (1, 0)) moves off the torus-fixed points to ((2, -1), (2, -1))
    numerator, denominator = original(x, y, z, w)
    return numerator + x * z, denominator


def _three_base_points(original=cg.base_locus):
    return original() + (((1, 1), (1, 1)),)


def _graph_values_one_two(x, y, z, w, r, s, original=cg.graph_equation):
    # degenerate over [1:2] and [1:-2]: determinant 4r^2 - s^2
    return original(x, y, z, w, r * 2, s)


def _graph_off_bidegree(x, y, z, w, r, s, original=cg.graph_equation):
    # x*y*r is 0 at every pair of unit vectors, so only the bilinearity test sees it
    return original(x, y, z, w, r, s) + x * y * r


def _graph_double_root(x, y, z, w, r, s):
    # determinant -(s - r)^2: [1:1] twice and [1:-1] never
    plus, _ = cg.height_forms(x, y, z, w)
    return (s - r) * plus


def _swapped_forms(x, y, z, w, original=cg.height_forms):
    # [xw - yz : xw + yz]: the identity eigenline pair ((1, 1), (1, 1)) maps to [0:1]
    numerator, denominator = original(x, y, z, w)
    return denominator, numerator


def _closure_plus_xt(x, y, z, t, original=cg.projective_closure):
    return original(x, y, z, t) + x * t


# [1:2] for [1:-1]: the fiber over it is smooth at the claimed singular point
_WRONG_DEGENERATE_VALUES = ((1, 1), (1, 2))


def _y_not_negated(x, y, z, original=cg.deformed_ring):
    # the time-2 member read with y for -y, as if the change dropped y -> -y
    return original(x, -y, z)


# --------------------------------------------------------------------- lie


def _divides_by_zero(*args):
    raise ZeroDivisionError("division by zero")


def _bracket_sign_flipped(a, b, original=lie.bracket):
    # [b, a] = -[a, b]: the entries of [X, H] read 2y and -2z
    return original(b, a)


def _height_plus_one(h, a, original=lie.height):
    # a sign flip would keep the set {2, -2}; a shift moves it to {3, -1}
    return original(h, a) + 1


def _hessian_over_three(h0, h, point, original=lie.hessian_matrix):
    # the closed form scaled by 1/3 is no longer the height's quadratic term
    return tuple(tuple(Fraction(e, 3) for e in row) for row in original(h0, h, point))


def _non_regular_height(h0, h, point, original=lie.hessian_determinant):
    # H = 0: every diagonal point is still critical, with a degenerate Hessian
    return original(h0, lie.CartanDiagonal((0,) * h.n), point)


def _multiplicity_blind_count(h0, h):
    # n!, as if H0's entries were distinct
    return math.factorial(h0.n)


def _one_point_too_many(h0, h, original=lie.critical_points):
    # the zero diagonal is on no orbit of a nonzero H0
    return original(h0, h) | {(0,) * h0.n}


def _swapped_adjugate(x, y, z, w):
    # off-diagonal entries exchanged: a diag(1, -1) adj(a) leaves the orbit
    return ((w, -y), (-z, x))


# ------------------------------------------------------------------ mirror


def _ext1_off_by_one(x, y, original=mirror.ext_p1):
    # ext1 of two line bundles read as max(0, -d) instead of max(0, -d - 1)
    hom, ext1 = original(x, y)
    if isinstance(x, LineBundle) and isinstance(y, LineBundle):
        return hom, max(0, x.t - y.t)
    return hom, ext1


def _line_bundle_to_point_in_two_degrees(x, y, original=mirror.ext_p1):
    if isinstance(x, LineBundle) and isinstance(y, Skyscraper):
        return 1, 1
    return original(x, y)


# ------------------------------------------------------------------ quiver

MINUS_E, TRIVIAL = toric.EXCEPTIONAL_PAIR


def _backward_hom(fan, c1, c2, original=toric.ext_dims):
    dims = original(fan, c1, c2)
    return toric.CohDims(1, dims.h1, dims.h2) if (c1, c2) == (TRIVIAL, MINUS_E) else dims


def _unexpected_self_ext(fan, c1, c2):
    # the backward Hom, and a self-Ext^1 on O(-E) that no thimble has
    dims = _backward_hom(fan, c1, c2)
    return toric.CohDims(dims.h0, 1, dims.h2) if (c1, c2) == (MINUS_E, MINUS_E) else dims


def _comparison_raises(cat):
    raise DiagnosticError("the thimble hom table differs from the Ext table on F_2")


def _split_extension(cat, source, target, original=fukaya.twisted_hom):
    # delta = () for x1: X becomes the split sum O(-E) + O in every Hom that
    # fukaya assembles, so its cohomology and its cocycles alike
    return original(cat, (source[0], ()), (target[0], ()))


def _no_unit_on_x1(original=fukaya.lg2_category):
    # the thimble category without the entry m_2(x1, id_L1) = x1
    cat = original()
    entries = [entry for entry in cat.products() if entry.inputs != ("x1", "id_L1")]
    return DirectedAInfCategory(cat.objects, cat.homs, entries)


def _literal_in_place_of_zero(original=fukaya.lg2_category):
    # m_1(x0) = x1 where the thimble category has the zero differential
    return quiver.literal_differential(original())


def _zero_in_place_of_literal(cat):
    # the open slot left empty where the literal reading fills it
    return cat


def _every_pair_one_section(fan, c1, c2):
    # chi = 1 for every pair: the Euler-form matrix [[1, 1], [1, 1]] has rank one
    return toric.CohDims(1, 0, 0)


def _degree_three_surface(a, original=toric.HirzebruchFan):
    # F_3 for F_2: (O(-E), O) is still exceptional, with Euler form [[1, -1], [0, 1]]
    return original(3)


# ----------------------------------------------------------------- sheaves


def _box_one_character_short(a, coeffs, half_width, original=toric._box_sum):
    # the margin alone, less one: at the default margin the box stops one
    # character short of O(E)'s class (-1, 1), at margin three it holds it
    base = (1 + a) * (sum(abs(c) for c in coeffs) + 1)
    return original(a, coeffs, half_width - base - 1)


def _euler_plus_one(p, q, a, original=toric.euler_characteristic):
    return original(p, q, a) + 1


def _canonical_one_fiber_short(a):
    # K = -2E - (a + 1)F for -2E - (a + 2)F: 1 + D.(D - K)/2 gains p/2
    return toric.PicClass(-2, -(a + 1))


def _positive_section_square(c1, c2, a):
    # E.E = +a for -a: 1 + D.(D - K)/2 gains a p^2
    return a * c1.p * c2.p + c1.p * c2.q + c1.q * c2.p


def _no_degree_twist(fan, d):
    # D2 ~ D4 for D2 ~ a*D3 + D4: right on F_0 only
    a1, a2, a3, a4 = d.coeffs
    return toric.PicClass(a2 + a4, a1 + a3)


def _any_bidegree(f, partials, x0, x1, x2, y0, y1):
    # the Euler identities hold for every form, so a wrong bidegree passes them
    return [(f - f, ()), (f - f, ())]


# -------------------------------------------------------------- symplectic


def _flipped_commutator(point, matrix, original=symplectic.commutator_triple):
    # 2(cx - az) for 2(az - cx) keeps every pairing real and the rank
    # unchanged; only the tangency and Hermitian conditions see it
    u0, u1, u2 = original(point, matrix)
    return u0, u1, -u2


def _hermitian_first_generator(i, original=symplectic.su2_basis):
    # diag(1, -1) for diag(i, -i): the mixed pairings turn imaginary
    return (((1, 0), (0, -1)),) + original(i)[1:]


def _one_generator_thrice(i, original=symplectic.su2_basis):
    # three equal tangents: tangent, Hermitian and Omega-null, but of rank one
    return original(i)[:1] * 3


def _wrong_sign_chart(lam, y, u):
    return (lam, y, (1 + lam * lam) * u)


def _rotated_third_slot(lam, c, u, ubar, i, original=symplectic.thimble_chart):
    # +i c ubar for -i c ubar in d/dt: the pairing with c d/dlam turns imaginary
    point, d_lam, (t0, t1, t2) = original(lam, c, u, ubar, i)
    return point, d_lam, (t0, t1, -t2)


def _unconjugated_chart(lam, c, u, ubar, i, original=symplectic.thimble_chart):
    # c u in both y and z: the circle leaves the sphere, where z = conj(y)
    return original(lam, c, u, u, i)


def _last_term_negative(u, v):
    return 2 * (u[0] * v[0].conjugate()) + u[1] * v[1].conjugate() - u[2] * v[2].conjugate()


CONTROLS = {
    "category.a-infinity-relations": [
        (fukaya, "lg2_category", chain_with_m3),
        (DirectedAInfCategory, "apply", _no_products),
    ],
    "category.strict-unitality": [(DirectedAInfCategory, "apply", _no_products)],
    "category.shift-matching-sanity": [(fukaya, "_solve_shifts", _shifts_off_by_one)],
    "category.f2-ext-equivalence": [
        (toric, "ext_dims", _degree_one_lost),
        (toric, "ext_dims", _every_surface_degree_two),
    ],
    "compactification.quadric-presentations": [(cg, "projective_closure", _closure_plus_xt)],
    "compactification.tensor-projector": [(cg, "tensor_entries", _perturbed_tensor)],
    "compactification.moment-conjugation": [(cg, "moment_map", _perturbed_moment)],
    "compactification.extension-on-orbit": [
        (cg, "extension_on_orbit_identities", _wrong_cofactor(cg.extension_on_orbit_identities)),
    ],
    "compactification.extension-off-orbit": [(cg, "height_forms", _swapped_forms)],
    "compactification.extension-scaling": [(cg, "height_forms", _unbalanced_forms)],
    "compactification.base-locus": [
        (cg, "base_locus", _three_base_points),
        (cg, "height_forms", _numerator_plus_xz),
    ],
    "compactification.graph-smooth": [
        (cg, "GRAPH_CHARTS", _wrong_chart_cofactor(cg.GRAPH_CHARTS)),
    ],
    "compactification.graph-contains-extension": [
        (cg, "graph_equation", _graph_plus_term),
        (cg, "base_locus", _three_base_points),
    ],
    "compactification.critical-classification": [
        (cg, "DEGENERATE_VALUES", _WRONG_DEGENERATE_VALUES),
    ],
    "compactification.singular-scan": [
        (cg, "graph_equation", _graph_values_one_two),
        (cg, "graph_equation", _graph_double_root),
        (cg, "graph_equation", _graph_off_bidegree),
    ],
    "compactification.deformed-ring": [(cg, "deformed_ring", _y_not_negated)],
    "compactification.symplectic-patching": [
        (cg, "sphere_embedding", _conjugated_embedding),
        (cg, "base_locus", _off_diagonal_base_locus),
    ],
    "lie.critical-set": [(lie, "bracket", _bracket_sign_flipped)],
    "lie.critical-heights": [(lie, "height", _height_plus_one)],
    "lie.hessian-nondegenerate": [
        (lie, "hessian_determinant", _divides_by_zero),
        (lie, "hessian_matrix", _hessian_over_three),
        (lie, "hessian_determinant", _non_regular_height),
    ],
    "lie.count-sl3-regular": [(lie, "critical_points", _one_point_too_many)],
    "lie.count-sl3-degenerate": [(lie, "critical_count", _multiplicity_blind_count)],
    "lie.count-sl4-paired": [(lie, "critical_count", _multiplicity_blind_count)],
    "lie.orbit-membership-exact": [(lie, "adjugate", _swapped_adjugate)],
    "mirror.control-witness": [(mirror, "ext_p1", _ext1_off_by_one)],
    "mirror.euler-pairing": [(mirror, "ext_p1", _ext1_off_by_one)],
    "mirror.control-relaxed-distinct": [
        (mirror, "ext_p1", _line_bundle_to_point_in_two_degrees),
    ],
    "mirror.exclusion-table": [(mirror, "ext_p1", _line_bundle_to_point_in_two_degrees)],
    "quiver.path-basis": [(fukaya, "twisted_hom", _split_extension)],
    "quiver.composition-pattern": [(fukaya, "twisted_hom", _split_extension)],
    "quiver.tilting-rank-chase": [
        (toric, "ext_dims", _degree_one_lost),
        (toric, "ext_dims", _backward_hom),
        (toric, "ext_dims", _unexpected_self_ext),
        (quiver, "end_algebra_dims_tilting", _comparison_raises),
        (fukaya, "twisted_hom", _split_extension),
    ],
    "quiver.connecting-map-injectivity": [(fukaya, "lg2_category", _no_unit_on_x1)],
    "quiver.dg-zero-cohomology": [(fukaya, "lg2_category", _literal_in_place_of_zero)],
    "quiver.dg-literal-acyclic": [(quiver, "literal_differential", _zero_in_place_of_literal)],
    "quiver.undirected-backward-hom": [(fukaya, "twisted_hom", _split_extension)],
    "quiver.k-group-rank": [
        (toric, "ext_dims", _every_pair_one_section),
        (toric, "HirzebruchFan", _degree_three_surface),
    ],
    "sheaves.divisor-conventions": [(toric, "divisor_to_pic", _no_degree_twist)],
    "sheaves.section-class-cohomology": [(toric, "_box_sum", _box_one_character_short)],
    "sheaves.ext-table": [(toric, "ext_dims", _degree_one_lost)],
    "sheaves.riemann-roch-sweep": [
        (toric, "_box_sum", _box_one_character_short),
        (toric, "canonical_class", _canonical_one_fiber_short),
        (toric, "intersection", _positive_section_square),
    ],
    "sheaves.serre-duality": [(toric, "_box_sum", _box_one_character_short)],
    "sheaves.fiber-class-sections": [(toric, "_box_sum", _box_one_character_short)],
    "sheaves.box-stability": [(toric, "_box_sum", _box_one_character_short)],
    "sheaves.surface-invariants": [(toric, "euler_characteristic", _euler_plus_one)],
    "sheaves.hypersurface-model": [(toric, "F2_CHARTS", _wrong_chart_cofactor(toric.F2_CHARTS))],
    "sheaves.hypersurface-controls": [(toric, "f2_euler_identities", _any_bidegree)],
    "symplectic.sphere-tangent-frame": [
        (symplectic, "commutator_triple", _flipped_commutator),
        (symplectic, "su2_basis", _one_generator_thrice),
    ],
    "symplectic.sphere-lagrangian-exact": [
        (symplectic, "su2_basis", _hermitian_first_generator),
    ],
    "symplectic.taming": [(symplectic, "hermitian_pairing", _last_term_negative)],
    "symplectic.thimble-grid": [
        (symplectic, "thimble_chart", _rotated_third_slot),
        (symplectic, "thimble_chart", _unconjugated_chart),
    ],
    "symplectic.thimble-taming": [(symplectic, "hermitian_pairing", _last_term_negative)],
    "symplectic.cylinder-chart": [(symplectic, "cylinder_chart", _wrong_sign_chart)],
}

# PASS rows that no control turns into FAIL yet.  This tuple may only
# shrink: a row leaves it when it gains a control above.
PENDING = (
    "category.degree-forced-vanishing",
    "category.differential-slot",
    "category.morse-circle-differential",
    "category.hom-table",
    "category.projective-line-mismatch",
    "mirror.main-search",
    "mirror.control-self-pair",
    "mirror.stability",
    "mirror.dimension-bound",
    # the 64-point float distance reads 0 on every correct thimble pair
    "symplectic.matching-circle-gluing",
)
