"""Compactified geometry: quadric, graph surface, fibration, extension map."""

import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compact_oracle
import symplectic_oracle
from gaussian_oracle import GaussianRational
from lgorbit import compactification as cg
from lgorbit.errors import IndeterminatePointError, PreconditionError
from lgorbit.gaussian import ExactMatrix
from lgorbit.lie import adjugate
from lgorbit.poly import certify, certify_charts, variables
from lgorbit.report import Config, run
from negative_controls import (
    CONTROLS,
    _conjugated_embedding,
    _graph_double_root,
    _graph_values_one_two,
    _off_diagonal_base_locus,
    _wrong_cofactor,
)


I = GaussianRational(0, 1)


def test_point_validation():
    # an all-zero factor is no point of P1
    for p, q in (((0, 0), (1, 0)), ((1, 0), (0, 0)), ((0, 0), (0, 0))):
        with pytest.raises(PreconditionError, match="point of P1 x P1"):
            cg.rational_extension(p, q)


def test_projective_equality_factorwise():
    p = ((1, 2), (3, 4))
    assert compact_oracle.same_point(p, ((2, 4), (Fraction(3, 2), 2)))
    assert not compact_oracle.same_point(p, ((1, 2), (4, 3)))
    # a common complex scale is still the same point
    assert compact_oracle.same_point(p, ((I, 2 * I), (3, 4)))
    assert cg.parallel((1, 2), (I, 2 * I)) and not cg.parallel((1, 2), (2, 1))


IDENTITY, SHEAR = (1, 0, 0, 1), (1, 0, 1, 1)  # entries (x, y, z, w) of [[x, z], [y, w]]


def test_random_group_elements_determinant_one():
    for g in compact_oracle.random_group_elements(25, seed=11):
        a = compact_oracle.exact_matrix(g)
        assert a.det() == 1
        assert ExactMatrix(adjugate(*g)) == a.inverse()


def test_quadric_presentations():
    assert cg.quadric_change_check()
    x, y, z, t = variables("x y z t")
    assert cg.gram_rank(cg.projective_closure(x, y, z, t)) == 4
    with pytest.raises(PreconditionError):  # the affine equation is no quadratic form
        cg.gram_rank(cg.projective_closure(x, y, z, 1))


def test_gram_rank_needs_rational_coefficients():
    x, y, i = variables("x y i")
    # Gram matrix [[1, 1/6], [1/6, 0]]; with i xy in place of xy/3 it would be Gaussian
    assert cg.gram_rank(x * x + x * y * Fraction(1, 3)) == 2
    with pytest.raises(PreconditionError, match="rational coefficients"):
        cg.gram_rank(x * x + i * x * y)


def test_gram_rank_refuses_a_quadratic_form_with_a_term_in_i():
    x, y, i = variables("x y i")
    # i among the variables is no term in i; a quadratic term in i is refused
    assert cg.gram_rank(x * x - y * y) == 2
    for form in (x * x + x * i, x * y - i * i, i * i):
        with pytest.raises(PreconditionError, match="not a term in i"):
            cg.gram_rank(form)


def test_tensor_and_moment_on_identity():
    assert compact_oracle.tensor_fixed_vectors_check(IDENTITY)
    assert compact_oracle.moment_orbit_check(IDENTITY)


def test_moment_map_matches_conjugation():
    m = ExactMatrix(cg.moment_map(*SHEAR))
    a = compact_oracle.exact_matrix(SHEAR)
    half = Fraction(1, 2)
    expected = a * ExactMatrix([[half, 0], [0, -half]]) * a.inverse()
    assert m == expected


def test_moment_scan():
    assert compact_oracle.moment_orbit_scan(50, seed=2)


def test_tensor_scan():
    for a in compact_oracle.random_group_elements(20, seed=0):
        assert compact_oracle.tensor_fixed_vectors_check(a)


def test_extension_values():
    # the value is the pair of height forms itself, compared projectively
    assert cg.rational_extension(IDENTITY[:2], IDENTITY[2:]) == (1, 1)
    assert cg.rational_extension((1, 1), (1, 1)) == (2, 0)
    assert cg.parallel(cg.rational_extension((2, 2), (I, I)), (1, 0))


def test_extension_base_locus():
    base = cg.base_locus()
    assert len(base) == 2
    for pt in base:
        with pytest.raises(IndeterminatePointError, match="indeterminate point"):
            cg.rational_extension(*pt)
    assert compact_oracle.base_locus_scan(25, seed=5)


def test_extension_rejects_wrong_shape():
    with pytest.raises(PreconditionError):
        cg.rational_extension((1, 1, 1), (1, 0))
    with pytest.raises(PreconditionError):
        cg.rational_extension((1, 0), (1,))


def test_extension_scaling_invariance():
    assert compact_oracle.scaling_invariance_check(25, seed=6)


def test_extension_is_height_trace():
    assert compact_oracle.orbit_value_identity(100, seed=3)


def test_graph_surface_tridegree():
    # Euler's relation on each factor: degree 1 in (x, y), in (z, w) and in (r, s)
    g = cg.graph_surface()
    x, y, z, w, r, s = variables("x y z w r s")
    for (a, b), names in (((x, y), "xy"), ((z, w), "zw"), ((r, s), "rs")):
        assert a * g.partial(names[0]) + b * g.partial(names[1]) == g


def test_graph_smoothness_certificates():
    assert len(cg.GRAPH_CHARTS) == 8
    assert cg.graph_smooth_check()


def test_graph_smoothness_controls():
    surface = cg.graph_surface()
    x, _, _, w, r, _ = variables("x y z w r s")
    # on the first chart, x = z = r = 1, the term adds w, so (d_y - d_w)/2 reads 1/2
    assert certify_charts(surface + x * w * r, cg.GRAPH_CHARTS) == 0
    # the chart x = z = r = 1 has no partial in x, and q is no variable
    charts = cg.GRAPH_CHARTS
    assert certify_charts(surface, {**charts, ("x", "z", "r"): lambda g, d, v: d["x"]}) == 0
    assert certify_charts(surface, {**charts, ("x", "w", "r"): lambda g, d, v: v("q")}) == 4


def test_graph_contains_extension_graph():
    assert compact_oracle.graph_vanishing_check(20, seed=7)
    assert _holds(cg.exceptional_fiber_identities, "r s")


def test_fiber_singularity_classification():
    is_singular_value = compact_oracle.is_singular_value
    assert is_singular_value(1, 1)
    assert is_singular_value(1, -1)
    assert is_singular_value(-3, 3)
    assert not is_singular_value(1, 0)
    assert not is_singular_value(0, 1)
    assert not is_singular_value(2, 1)
    with pytest.raises(PreconditionError):
        is_singular_value(0, 0)


def test_critical_data():
    assert cg.singular_points_certificate()
    assert cg.DEGENERATE_VALUES == ((1, 1), (1, -1))
    assert cg.SINGULAR_POINTS == (((1, 0), (0, 1)), ((0, 1), (1, 0)))
    assert all(compact_oracle.is_singular_value(*value) for value in cg.DEGENERATE_VALUES)
    # the identities read partials as values at unit vectors; the formal
    # partials of each fiber vanish at its point too
    for (r, s), (p, q) in zip(cg.DEGENERATE_VALUES, cg.SINGULAR_POINTS):
        fiber = cg.graph_surface().substitute({"r": r, "s": s})
        point = dict(zip("xyzw", p + q))
        assert not any(f.substitute(point) for f in (fiber, *map(fiber.partial, "xyzw")))


def test_coefficient_matrix_is_the_second_partials():
    # for a bilinear form the values at pairs of unit vectors are its second partials
    *_, r, s = variables("x y z w r s")
    g = cg.graph_surface()
    matrix = cg.coefficient_matrix(functools.partial(cg.graph_equation, r=r, s=s))
    assert matrix == tuple(tuple(g.partial(u).partial(v) for v in "zw") for u in "xy")


VALUE_PAIRS = st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(any)
# most drawn pairs are not degenerate, so draw r = +-s on purpose as well
DEGENERATE_PAIRS = st.tuples(st.integers(-50, 50).filter(bool), st.sampled_from((1, -1))).map(
    lambda pair: (pair[0], pair[0] * pair[1])
)
SCALARS = st.sampled_from([GaussianRational(c) for c in (2, 3, 5, -2, -3)] + [I, 1 + I])


@settings(max_examples=200, deadline=None)
@given(st.one_of(VALUE_PAIRS, DEGENERATE_PAIRS), SCALARS)
def test_singular_values_match_the_closed_form(pair, scalar):
    assert compact_oracle.singular_value_agrees(*pair, scalar)


def test_deformed_ring_isomorphism():
    assert _holds(cg.deformed_ring_identities, "x y z")
    # the one scalar the unchanged equation could take is 0, which fails
    assert certify(cg.unchanged_ring_certificate(*variables("x y z"))) == 0


def test_sphere_embedding_agrees_with_fiber_chart():
    for p, q, r in symplectic_oracle.RATIONAL_SPHERE_POINTS:
        x, y, z = symplectic_oracle.exact_sphere_point(p, q, r)
        assert x * x + y * z == 1


def test_sphere_point_orbit_pair_poles():
    # the poles land exactly on the two critical points of the fibration
    north = compact_oracle.sphere_point_orbit_pair(Fraction(0), Fraction(0), Fraction(1))
    south = compact_oracle.sphere_point_orbit_pair(Fraction(0), Fraction(0), Fraction(-1))
    assert cg.singular_points_certificate()
    assert compact_oracle.same_point(north, cg.SINGULAR_POINTS[0])
    assert compact_oracle.same_point(south, cg.SINGULAR_POINTS[1])


def test_sphere_point_orbit_pair_generic():
    pt = compact_oracle.sphere_point_orbit_pair(Fraction(3, 5), Fraction(4, 5), Fraction(0))
    plus, minus = pt
    assert not cg.parallel(plus, minus)


def test_sphere_point_orbit_pair_rejects_off_sphere():
    with pytest.raises(PreconditionError, match="not on the unit sphere"):
        compact_oracle.sphere_point_orbit_pair(Fraction(1), Fraction(1), Fraction(1))


def test_sphere_avoids_base_locus():
    # the certificate's three facts, read at the oracle's rational points: the
    # point is on the orbit, its matrix squares to I, and its eigenline pair
    # is off the diagonal that holds both base points
    assert cg.sphere_off_infinity_certificate()
    assert compact_oracle.sphere_avoids_base_locus()
    for p, q, r in symplectic_oracle.RATIONAL_SPHERE_POINTS:
        x, y, z = symplectic_oracle.exact_sphere_point(p, q, r)
        m = ((x, y), (z, -x))
        assert cg.product(m, m) == ((1, 0), (0, 1))


@pytest.mark.parametrize("target, replacement", [
    ("sphere_embedding", _conjugated_embedding),
    ("base_locus", _off_diagonal_base_locus),
])
def test_patching_support_negative_controls(monkeypatch, target, replacement):
    # tests/test_negative_controls.py fails the command with each of them
    assert cg.sphere_off_infinity_certificate()
    monkeypatch.setattr(cg, target, replacement)
    assert not cg.sphere_off_infinity_certificate()
    rows = {r.id: r for r in run("compactification", Config()).results}
    row = rows["compactification.symplectic-patching"]
    assert row.status == "fail" and "supporting exact check FAILED" in row.detail


# ------------------------------------------------ certificates of the orbit


def _holds(identities, names="x y z w"):
    return certify(identities(*variables(names))) is None


ROW_CERTIFICATES = {
    "quadric-presentations": cg.quadric_change_check,
    "tensor-projector": lambda: _holds(cg.tensor_projector_identities),
    "moment-conjugation": lambda: _holds(cg.moment_conjugation_identities),
    "extension-on-orbit": lambda: _holds(cg.extension_on_orbit_identities),
    "extension-scaling": lambda: _holds(cg.scaling_identities, "x y z w lam mu r s"),
    "graph-contains-extension": lambda: _holds(cg.graph_extension_identities)
    and _holds(cg.exceptional_fiber_identities, "r s"),
    "base-locus": cg.base_locus_certificate,
    "critical-classification": cg.singular_points_certificate,
    "singular-scan": cg.degenerate_values_certificate,
    "deformed-ring": lambda: _holds(cg.deformed_ring_identities, "x y z"),
}


def _control_id(value):
    # names and functions as pytest spells them, a patched constant by its value
    return value if isinstance(value, str) else getattr(value, "__name__", repr(value))


@pytest.mark.parametrize("row, target, replacement", [
    (row.split(".", 1)[1], target, replacement)
    for row, controls in CONTROLS.items()
    if row.split(".", 1)[1] in ROW_CERTIFICATES
    for owner, target, replacement in controls
], ids=_control_id)
def test_orbit_certificate_negative_controls(monkeypatch, row, target, replacement):
    # the certificate behind the row fails; tests/test_negative_controls.py
    # fails the row and the command
    assert ROW_CERTIFICATES[row]()
    monkeypatch.setattr(cg, target, replacement)
    assert not ROW_CERTIFICATES[row]()


def test_degenerate_values_certificate_reads_the_family_and_the_values(monkeypatch):
    monkeypatch.setattr(cg, "graph_equation", _graph_values_one_two)
    assert not cg.degenerate_values_certificate()
    # claiming the family's own values makes the certificate hold again
    monkeypatch.setattr(cg, "DEGENERATE_VALUES", ((1, 2), (1, -2)))
    assert cg.degenerate_values_certificate()
    # two proportional values are one value, however the form factors
    monkeypatch.setattr(cg, "graph_equation", _graph_double_root)
    monkeypatch.setattr(cg, "DEGENERATE_VALUES", ((1, 1), (2, 2)))
    assert not cg.degenerate_values_certificate()


def test_wrong_cofactors_fail():
    # each identity's cofactor against R is one too many, so the first fails
    for identities in (
        cg.tensor_projector_identities,
        cg.moment_conjugation_identities,
        cg.extension_on_orbit_identities,
        cg.graph_extension_identities,
    ):
        assert certify(_wrong_cofactor(identities)(*variables("x y z w"))) == 0


def test_base_locus_certificate_rejects_forms_with_other_zeros(monkeypatch):
    # (xw, xw + yz) generates (xw, yz) as well, which the enumeration accepts; the
    # certificate's identities name the combinations of the height forms, so it
    # rejects them.  (xw, 2xw) generates only (xw), which vanishes on two lines,
    # and (xw, yw) vanishes on the line w = 0: both reject those
    monkeypatch.setattr(cg, "height_forms", lambda x, y, z, w: (x * w, x * w + y * z))
    assert compact_oracle.base_locus_enumeration()
    assert not cg.base_locus_certificate()
    for forms in (lambda x, y, z, w: (x * w, x * w * 2), lambda x, y, z, w: (x * w, y * w)):
        monkeypatch.setattr(cg, "height_forms", forms)
        assert not compact_oracle.base_locus_enumeration()
        assert not cg.base_locus_certificate()


@pytest.mark.parametrize("target, replacement", [
    (target, replacement) for _, target, replacement in CONTROLS["compactification.base-locus"]
], ids=_control_id)
def test_base_locus_enumeration_agrees_with_the_certificate(monkeypatch, target, replacement):
    # the enumeration the two identities replaced accepts the height forms and
    # rejects each of the row's controls, as the certificate does
    assert compact_oracle.base_locus_enumeration() and cg.base_locus_certificate()
    monkeypatch.setattr(cg, target, replacement)
    assert not compact_oracle.base_locus_enumeration()
    assert not cg.base_locus_certificate()


def test_replaced_scan_names_share_no_object_with_the_library():
    # a tracer names a wrapped object after one of its bindings, so a name kept
    # for it must not alias a function the suites call
    names = ("random_group_elements", "moment_orbit_scan", "orbit_value_identity",
             "singular_scan")
    stand_in = getattr(cg, names[0])
    assert all(getattr(cg, name) is stand_in for name in names)
    assert [k for k, v in vars(cg).items() if v is stand_in] == ["_replaced_scan", *names]
    with pytest.raises(NotImplementedError):
        stand_in()
