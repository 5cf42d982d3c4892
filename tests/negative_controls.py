"""The negative controls of the report, in one table keyed by row id.

Each control patches one library attribute the way a faulty edit could:
``CONTROLS[row]`` lists ``(owner, name, replacement)`` triples, and with any
one of them in place the row must FAIL and ``verify`` must exit 1
(``tests/test_negative_controls.py``).  A control that raises shows that a
check that crashes still reports a failed row.  ``PENDING`` names the PASS
rows that no control reaches yet.
"""

from lgorbit import compactification as cg
from lgorbit import fukaya, lie, mirror, quiver, symplectic, toric
from lgorbit.errors import DiagnosticError
from lgorbit.fukaya import DirectedAInfCategory, GradedModule, ProductEntry
from lgorbit.gaussian import GaussianRational
from lgorbit.mirror import LineBundle, Skyscraper
from lgorbit.poly import MultiHomPoly

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
    return (cg.MultiProjPoint(((1, 0), (0, 1))), cg.MultiProjPoint(((0, 1), (0, 1))))


def _wrong_cofactor(certificate):
    return lambda *entries: [(d, c + 1) for d, c in certificate(*entries)]


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


def _xwr():
    x, w, r = (MultiHomPoly.variable(cg.GRAPH_BLOCKS, name) for name in "xwr")
    return x * w * r


def _graph_plus_term(original=cg.graph_surface):
    return original() + _xwr()


def _three_base_points(original=cg.base_locus):
    return original() + (cg.MultiProjPoint(((1, 1), (1, 1))),)


def _graph_values_one_two():
    # degenerate over [1:2] and [1:-2]: determinant 4r^2 - s^2
    r, s = (MultiHomPoly.variable(cg.GRAPH_BLOCKS, name) for name in "rs")
    plus, minus = cg.height_forms(*cg.generic_element(cg.GRAPH_BLOCKS))
    return s * plus - r * minus * 2


def _graph_off_bidegree(original=cg.graph_surface):
    # x*y*r has no second partial in (x, y) x (z, w), so only the degree test sees it
    x, y, r = (MultiHomPoly.variable(cg.GRAPH_BLOCKS, name) for name in "xyr")
    return original() + x * y * r


def _graph_double_root():
    # determinant -(s - r)^2: [1:1] twice and [1:-1] never
    r, s = (MultiHomPoly.variable(cg.GRAPH_BLOCKS, name) for name in "rs")
    plus, _ = cg.height_forms(*cg.generic_element(cg.GRAPH_BLOCKS))
    return (s - r) * plus


# --------------------------------------------------------------------- lie


def _divides_by_zero(*args):
    raise ZeroDivisionError("division by zero")


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


def _backward_hom(fan, c1, c2, original=quiver.ext_dims):
    dims = original(fan, c1, c2)
    return toric.CohDims(1, dims.h1, dims.h2) if (c1, c2) == (TRIVIAL, MINUS_E) else dims


def _undetermined_rank(fan, c1, c2):
    # with the backward Hom, a self-Ext^1 on O(-E) leaves the chase
    # Hom(-, O(-E)) with two nonzero ends and no pinned rank
    dims = _backward_hom(fan, c1, c2)
    return toric.CohDims(dims.h0, 1, dims.h2) if (c1, c2) == (MINUS_E, MINUS_E) else dims


def _chase_stops():
    raise DiagnosticError("connecting rank A2 -> A3 is undetermined")


# ----------------------------------------------------------------- sheaves


def _box_one_character_short(a, coeffs, half_width, original=toric._box_sum):
    # the margin alone, less one: at the default margin the box stops one
    # character short of O(E)'s class (-1, 1), at margin three it holds it
    base = (1 + a) * (sum(abs(c) for c in coeffs) + 1)
    return original(a, coeffs, half_width - base - 1)


# -------------------------------------------------------------- symplectic


def _flipped_commutator(point, matrix, original=symplectic.commutator_triple):
    # 2(cx - az) for 2(az - cx) keeps every pairing real and the rank rows
    # unchanged; only the tangency and Hermitian conditions see it
    u0, u1, u2 = original(point, matrix)
    return u0, u1, -u2


def _hermitian_first_generator(original=symplectic.su2_basis):
    # diag(1, -1) for diag(i, -i): the mixed pairings turn imaginary
    one, zero = GaussianRational(1), GaussianRational(0)
    return (((one, zero), (zero, -one)),) + original()[1:]


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
    "compactification.tensor-projector": [(cg, "tensor_entries", _perturbed_tensor)],
    "compactification.moment-conjugation": [(cg, "moment_map", _perturbed_moment)],
    "compactification.extension-on-orbit": [
        (cg, "extension_on_orbit_certificate",
         _wrong_cofactor(cg.extension_on_orbit_certificate)),
    ],
    "compactification.extension-scaling": [(cg, "height_forms", _unbalanced_forms)],
    "compactification.base-locus": [(cg, "base_locus", _three_base_points)],
    "compactification.graph-contains-extension": [
        (cg, "graph_surface", _graph_plus_term),
        (cg, "base_locus", _three_base_points),
    ],
    "compactification.singular-scan": [
        (cg, "graph_surface", _graph_values_one_two),
        (cg, "graph_surface", _graph_double_root),
        (cg, "graph_surface", _graph_off_bidegree),
    ],
    "compactification.symplectic-patching": [
        (cg, "sphere_embedding", _conjugated_embedding),
        (cg, "base_locus", _off_diagonal_base_locus),
    ],
    "lie.hessian-nondegenerate": [(lie, "hessian_determinant", _divides_by_zero)],
    "lie.orbit-membership-exact": [(cg, "adjugate", _swapped_adjugate)],
    "mirror.control-witness": [(mirror, "ext_p1", _ext1_off_by_one)],
    "mirror.euler-pairing": [(mirror, "ext_p1", _ext1_off_by_one)],
    "mirror.control-relaxed-distinct": [
        (mirror, "ext_p1", _line_bundle_to_point_in_two_degrees),
    ],
    "mirror.exclusion-table": [(mirror, "ext_p1", _line_bundle_to_point_in_two_degrees)],
    "quiver.tilting-rank-chase": [
        (quiver, "ext_dims", _degree_one_lost),
        (quiver, "ext_dims", _backward_hom),
        (quiver, "ext_dims", _undetermined_rank),
        (quiver, "end_algebra_dims_tilting", _chase_stops),
    ],
    "sheaves.box-stability": [(toric, "_box_sum", _box_one_character_short)],
    "symplectic.sphere-lagrangian-sampled": [
        (symplectic, "commutator_triple", _flipped_commutator),
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
    "compactification.quadric-presentations",
    "compactification.extension-off-orbit",
    "compactification.graph-smooth",
    "compactification.critical-classification",
    "compactification.deformed-ring",
    "lie.critical-set",
    "lie.critical-heights",
    "lie.count-sl3-regular",
    "lie.count-sl3-degenerate",
    "lie.count-sl4-paired",
    "mirror.main-search",
    "mirror.control-self-pair",
    "mirror.stability",
    "mirror.dimension-bound",
    "quiver.path-basis",
    "quiver.composition-pattern",
    "quiver.dg-zero-cohomology",
    "quiver.dg-literal-acyclic",
    "quiver.undirected-backward-hom",
    "quiver.k-group-rank",
    "sheaves.divisor-conventions",
    "sheaves.section-class-cohomology",
    "sheaves.ext-table",
    "sheaves.riemann-roch-sweep",
    "sheaves.serre-duality",
    "sheaves.fiber-class-sections",
    "sheaves.surface-invariants",
    "sheaves.hypersurface-model",
    "sheaves.hypersurface-controls",
    # the 64-point float distance reads 0 on every correct thimble pair
    "symplectic.matching-circle-gluing",
)
