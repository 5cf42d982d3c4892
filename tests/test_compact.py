"""Compactified geometry: quadric, graph surface, fibration, extension map."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import compact_oracle
import symplectic_oracle
from lgorbit import cli
from lgorbit import compactification as cg
from lgorbit.errors import (
    IndeterminatePointError,
    PreconditionError,
    StructureError,
)
from lgorbit.gaussian import ExactMatrix, GaussianRational
from lgorbit.poly import MultiHomPoly, certify_charts
from lgorbit.report import Config, run


def _xwr():
    x, w, r = (MultiHomPoly.variable(cg.GRAPH_BLOCKS, name) for name in "xwr")
    return x * w * r


I = GaussianRational(0, 1)


def test_point_validation():
    with pytest.raises(StructureError):
        cg.MultiProjPoint(((0, 0),))
    with pytest.raises(StructureError):
        cg.MultiProjPoint(((1, 0), (0, 0)))
    p = cg.MultiProjPoint(((1, 2), (3, 4)))
    assert str(p) == "([1:2],[3:4])"


def test_projective_equality_factorwise():
    p = cg.MultiProjPoint(((1, 2), (3, 4)))
    q = cg.MultiProjPoint(((2, 4), (Fraction(3, 2), 2)))
    assert p == q
    assert p != cg.MultiProjPoint(((1, 2), (4, 3)))
    # a common complex scale is still the same point
    r = cg.MultiProjPoint(((I, 2 * I), (3, 4)))
    assert p == r


IDENTITY, SHEAR = (1, 0, 0, 1), (1, 0, 1, 1)  # entries (x, y, z, w) of [[x, z], [y, w]]


def test_adjugate_inverts_the_shear():
    a = compact_oracle.exact_matrix(SHEAR)
    assert a.det() == GaussianRational(1)
    assert ExactMatrix(cg.adjugate(*SHEAR)) * a == ExactMatrix.identity(2)


def test_random_group_elements_determinant_one():
    for g in compact_oracle.random_group_elements(25, seed=11):
        a = compact_oracle.exact_matrix(g)
        assert a.det() == GaussianRational(1)
        assert ExactMatrix(cg.adjugate(*g)) == a.inverse()


def test_quadric_presentations():
    assert cg.quadric_change_check()
    assert cg.gram_rank(cg.homogenize_orbit()) == 4
    with pytest.raises(PreconditionError):
        cg.gram_rank(cg.orbit_affine_equation())


def test_tensor_and_moment_on_identity():
    assert compact_oracle.tensor_fixed_vectors_check(IDENTITY)
    assert compact_oracle.moment_orbit_check(IDENTITY)


def test_moment_map_matches_conjugation():
    m = ExactMatrix(cg.moment_map(*SHEAR))
    a = compact_oracle.exact_matrix(SHEAR)
    half = Fraction(1, 2)
    expected = a * ExactMatrix.diagonal([half, -half]) * a.inverse()
    assert m == expected


def test_moment_scan():
    assert compact_oracle.moment_orbit_scan(50, seed=2)


def test_tensor_scan():
    for a in compact_oracle.random_group_elements(20, seed=0):
        assert compact_oracle.tensor_fixed_vectors_check(a)


def test_extension_values():
    ident = cg.rational_extension(cg.MultiProjPoint((IDENTITY[:2], IDENTITY[2:])))
    assert ident == cg.MultiProjPoint(((1, 1),))
    diag = cg.MultiProjPoint(((1, 1), (1, 1)))
    assert cg.rational_extension(diag) == cg.MultiProjPoint(((1, 0),))


def test_extension_base_locus():
    base = cg.base_locus()
    assert len(base) == 2
    for pt in base:
        with pytest.raises(IndeterminatePointError, match="indeterminate point"):
            cg.rational_extension(pt)
    assert compact_oracle.base_locus_scan(25, seed=5)


def test_extension_rejects_wrong_shape():
    with pytest.raises(PreconditionError):
        cg.rational_extension(cg.MultiProjPoint(((1, 1, 1),)))


def test_extension_scaling_invariance():
    assert compact_oracle.scaling_invariance_check(25, seed=6)


def test_extension_is_height_trace():
    assert compact_oracle.orbit_value_identity(100, seed=3)


def test_graph_surface_tridegree():
    assert cg.graph_surface().multidegree == (1, 1, 1)


def test_graph_smoothness_certificates():
    assert cg.graph_chart_count() == 8
    assert cg.graph_smooth_check()


def test_graph_smoothness_controls():
    surface = cg.graph_surface()
    perturbed = surface + _xwr()
    assert not certify_charts(perturbed, cg._GRAPH_CERTIFICATES)
    # the chart x = z = r = 1 has no partial in x, and q is no variable
    assert not certify_charts(surface, {("x", "z", "r"): lambda g, d, v: d["x"]})
    assert not certify_charts(surface, {("x", "z", "r"): lambda g, d, v: v("q")})


def test_graph_contains_extension_graph():
    assert compact_oracle.graph_vanishing_check(20, seed=7)
    assert cg.exceptional_fiber_check()


def test_fiber_singularity_classification():
    assert cg.is_singular_value(1, 1)
    assert cg.is_singular_value(1, -1)
    assert cg.is_singular_value(-3, 3)
    assert not cg.is_singular_value(1, 0)
    assert not cg.is_singular_value(0, 1)
    assert not cg.is_singular_value(2, 1)
    with pytest.raises(PreconditionError):
        cg.compactified_fiber(0, 0)


def test_critical_data():
    data = cg.critical_data()
    assert data.verified
    assert data.values == (
        cg.MultiProjPoint(((1, 1),)),
        cg.MultiProjPoint(((1, -1),)),
    )
    assert data.points == (
        cg.MultiProjPoint(((1, 0), (0, 1))),
        cg.MultiProjPoint(((0, 1), (1, 0))),
    )


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
    assert cg.deformed_ring_iso_check()
    assert not cg.deformed_ring_control()


def test_sphere_embedding_agrees_with_fiber_chart():
    for p, q, r in symplectic_oracle.RATIONAL_SPHERE_POINTS:
        x, y, z = symplectic_oracle.exact_sphere_point(p, q, r)
        assert x * x + y * z == 1


def test_sphere_point_orbit_pair_poles():
    # the poles land exactly on the two critical points of the fibration
    north = compact_oracle.sphere_point_orbit_pair(Fraction(0), Fraction(0), Fraction(1))
    south = compact_oracle.sphere_point_orbit_pair(Fraction(0), Fraction(0), Fraction(-1))
    critical = cg.critical_data()
    assert critical.verified
    assert north == critical.points[0] == cg.MultiProjPoint(((1, 0), (0, 1)))
    assert south == critical.points[1] == cg.MultiProjPoint(((0, 1), (1, 0)))


def test_sphere_point_orbit_pair_generic():
    pt = compact_oracle.sphere_point_orbit_pair(Fraction(3, 5), Fraction(4, 5), Fraction(0))
    plus, minus = pt.factors
    assert cg.MultiProjPoint((plus,)) != cg.MultiProjPoint((minus,))


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
    assert all(cg.determinant(pt.factors).is_zero() for pt in cg.base_locus())


def _conjugated_embedding(p, q, r, i):
    # z = p - iq for -p - iq: the matrix is no longer on the orbit
    return (r, -p + i * q, p - i * q)


def _off_diagonal_base_locus():
    return (cg.MultiProjPoint(((1, 0), (0, 1))), cg.MultiProjPoint(((0, 1), (0, 1))))


@pytest.mark.parametrize("target, replacement", [
    ("sphere_embedding", _conjugated_embedding),
    ("base_locus", _off_diagonal_base_locus),
])
def test_patching_support_negative_controls(monkeypatch, capsys, target, replacement):
    assert cg.sphere_off_infinity_certificate()
    monkeypatch.setattr(cg, target, replacement)
    assert not cg.sphere_off_infinity_certificate()
    rows = {r.id: r for r in run("compactification", Config()).results}
    row = rows["compactification.symplectic-patching"]
    assert row.status == "fail" and "supporting exact check FAILED" in row.detail
    assert cli.main(["compactification"]) == 1
    assert "FAIL       compactification.symplectic-patching" in capsys.readouterr().out


# ------------------------------------------------ certificates of the orbit


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


# Each control breaks one construction or claim the way a faulty edit could;
# the row's certificate must then fail, and with it the report row.
NEGATIVE_CONTROLS = [
    ("tensor-projector", "tensor_entries", _perturbed_tensor),
    ("moment-conjugation", "moment_map", _perturbed_moment),
    ("extension-on-orbit", "extension_on_orbit_certificate",
     _wrong_cofactor(cg.extension_on_orbit_certificate)),
    ("extension-scaling", "height_forms", _unbalanced_forms),
    ("graph-contains-extension", "graph_surface", _graph_plus_term),
    ("base-locus", "base_locus", _three_base_points),
    ("graph-contains-extension", "base_locus", _three_base_points),
    ("singular-scan", "graph_surface", _graph_values_one_two),
    ("singular-scan", "graph_surface", _graph_double_root),
    ("singular-scan", "graph_surface", _graph_off_bidegree),
]


ROW_CERTIFICATES = {
    "tensor-projector": lambda: cg.certify_cofactors(cg.tensor_projector_certificate),
    "moment-conjugation": lambda: cg.certify_cofactors(cg.moment_conjugation_certificate),
    "extension-on-orbit": lambda: cg.certify_cofactors(cg.extension_on_orbit_certificate),
    "extension-scaling": cg.extension_scaling_certificate,
    "graph-contains-extension": lambda: cg.certify_cofactors(
        cg.graph_extension_certificate, cg.GRAPH_BLOCKS
    ) and cg.exceptional_fiber_check(),
    "base-locus": cg.base_locus_certificate,
    "singular-scan": cg.degenerate_values_certificate,
}


@pytest.mark.parametrize("row, target, replacement", NEGATIVE_CONTROLS)
def test_orbit_certificate_negative_controls(monkeypatch, row, target, replacement):
    assert ROW_CERTIFICATES[row]()
    monkeypatch.setattr(cg, target, replacement)
    assert not ROW_CERTIFICATES[row]()
    status = {r.id: r.status for r in run("compactification", Config()).results}
    assert status[f"compactification.{row}"] == "fail"


def test_degenerate_values_certificate_reads_the_family_and_the_values(monkeypatch, capsys):
    monkeypatch.setattr(cg, "graph_surface", _graph_values_one_two)
    assert cli.main(["compactification"]) == 1
    assert "FAIL       compactification.singular-scan" in capsys.readouterr().out
    # claiming the family's own values makes the certificate hold again
    two = GaussianRational(2)
    monkeypatch.setattr(cg, "DEGENERATE_VALUES", ((1, two), (1, -two)))
    assert cg.degenerate_values_certificate()
    # two proportional values are one value, however the form factors
    monkeypatch.setattr(cg, "graph_surface", _graph_double_root)
    monkeypatch.setattr(cg, "DEGENERATE_VALUES", ((1, 1), (2, 2)))
    assert not cg.degenerate_values_certificate()


def test_wrong_cofactors_fail():
    for certificate in (
        cg.tensor_projector_certificate,
        cg.moment_conjugation_certificate,
        cg.extension_on_orbit_certificate,
    ):
        assert not cg.certify_cofactors(_wrong_cofactor(certificate))
    assert not cg.certify_cofactors(
        _wrong_cofactor(cg.graph_extension_certificate), cg.GRAPH_BLOCKS
    )


def test_base_locus_certificate_rejects_forms_with_other_zeros(monkeypatch):
    # (xw, xw + yz) generates (xw, yz) as well; (xw, 2xw) generates only (xw),
    # which vanishes on two lines, and (xw, yw) vanishes on the line w = 0
    monkeypatch.setattr(cg, "height_forms", lambda x, y, z, w: (x * w, x * w + y * z))
    assert cg.base_locus_certificate()
    monkeypatch.setattr(cg, "height_forms", lambda x, y, z, w: (x * w, x * w * 2))
    assert not cg.base_locus_certificate()
    monkeypatch.setattr(cg, "height_forms", lambda x, y, z, w: (x * w, y * w))
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
