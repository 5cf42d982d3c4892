"""Compactified geometry: quadric, graph surface, fibration, extension map."""

import random
from fractions import Fraction

import pytest

from lgorbit import compactification as cg
from lgorbit.errors import (
    IndeterminatePointError,
    PreconditionError,
    StructureError,
)
from lgorbit.gaussian import ExactMatrix, GaussianRational, I
from lgorbit.poly import certify_charts, parse_poly
from lgorbit.symplectic import sphere_point


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


def test_group_element_needs_unit_determinant():
    with pytest.raises(StructureError):
        cg.Sl2GroupElement(1, 0, 0, 2)
    g = cg.Sl2GroupElement(1, 0, 1, 1)
    assert g.matrix().det() == GaussianRational(1)
    assert g.inverse_matrix() * g.matrix() == ExactMatrix.identity(2)


def test_random_group_elements_determinant_one():
    for g in cg.random_group_elements(25, seed=11):
        assert g.matrix().det() == GaussianRational(1)


def test_quadric_presentations():
    assert cg.quadric_change_check()
    assert cg.gram_rank(cg.homogenize_orbit()) == 4
    with pytest.raises(PreconditionError):
        cg.gram_rank(cg.orbit_affine_equation())


def test_tensor_and_moment_on_identity():
    assert cg.tensor_fixed_vectors_check(cg.identity_element())
    assert cg.moment_orbit_check(cg.identity_element())


def test_moment_map_matches_conjugation():
    shear = cg.Sl2GroupElement(1, 0, 1, 1)
    m = cg.moment_map_of(shear)
    a = shear.matrix()
    half = Fraction(1, 2)
    expected = a * ExactMatrix.diagonal([half, -half]) * a.inverse()
    assert m == expected


def test_moment_scan():
    assert cg.moment_orbit_scan(50, seed=2)


def test_extension_values():
    ident = cg.rational_extension(cg.identity_element().point_pair())
    assert ident == cg.MultiProjPoint(((1, 1),))
    diag = cg.MultiProjPoint(((1, 1), (1, 1)))
    assert cg.rational_extension(diag) == cg.MultiProjPoint(((1, 0),))


def test_extension_base_locus():
    base = cg.base_locus()
    assert len(base) == 2
    for pt in base:
        with pytest.raises(IndeterminatePointError, match="indeterminate point"):
            cg.rational_extension(pt)
    assert cg.base_locus_scan(25, seed=5)


def test_extension_rejects_wrong_shape():
    with pytest.raises(PreconditionError):
        cg.rational_extension(cg.MultiProjPoint(((1, 1, 1),)))


def test_extension_scaling_invariance():
    assert cg.scaling_invariance_check(25, seed=6)


def test_extension_is_height_trace():
    assert cg.orbit_value_identity(100, seed=3)


def test_graph_surface_tridegree():
    assert cg.graph_surface().multidegree == (1, 1, 1)


def test_graph_smoothness_certificates():
    assert cg.graph_chart_count() == 8
    assert cg.graph_smooth_check()


def test_graph_smoothness_controls():
    surface = cg.graph_surface()
    perturbed = surface + parse_poly(cg.GRAPH_BLOCKS, "(1)*x*w*r")
    assert not certify_charts(perturbed, cg._GRAPH_CERTIFICATES)
    # the chart x = z = r = 1 has no partial in x, and q is no variable
    assert not certify_charts(surface, {("x", "z", "r"): lambda g, d, v: d["x"]})
    assert not certify_charts(surface, {("x", "z", "r"): lambda g, d, v: v("q")})


def test_graph_contains_extension_graph():
    assert cg.graph_vanishing_check(20, seed=7)
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


def test_singular_scan():
    samples = cg.singular_scan(50, seed=4)
    assert len(samples) >= 50
    assert cg.singular_scan_consistent(samples)
    hits = [s for s in samples if s.singular]
    assert hits
    assert all(s.agrees for s in samples)
    assert all(not (s.r.is_zero() and s.s.is_zero()) for s in samples)


def test_deformed_ring_isomorphism():
    assert cg.deformed_ring_iso_check()
    assert not cg.deformed_ring_control()


def test_sphere_embedding_agrees_with_fiber_chart():
    for p, q, r in cg.RATIONAL_SPHERE_POINTS:
        x, y, z = sphere_point(Fraction(p), Fraction(q), Fraction(r))
        assert x * x + y * z == 1


def test_sphere_point_orbit_pair_poles():
    # the poles land exactly on the two critical points of the fibration
    north = cg.sphere_point_orbit_pair(Fraction(0), Fraction(0), Fraction(1))
    assert north == cg.MultiProjPoint(((1, 0), (0, 1)))
    south = cg.sphere_point_orbit_pair(Fraction(0), Fraction(0), Fraction(-1))
    assert south == cg.MultiProjPoint(((0, 1), (1, 0)))


def test_sphere_point_orbit_pair_generic():
    pt = cg.sphere_point_orbit_pair(Fraction(3, 5), Fraction(4, 5), Fraction(0))
    plus, minus = pt.factors
    assert cg.MultiProjPoint((plus,)) != cg.MultiProjPoint((minus,))


def test_sphere_point_orbit_pair_rejects_off_sphere():
    with pytest.raises(PreconditionError, match="unit-sphere"):
        cg.sphere_point_orbit_pair(Fraction(1), Fraction(1), Fraction(1))


def test_sphere_avoids_base_locus():
    assert cg.sphere_avoids_base_locus()
