"""End-to-end acceptance criteria, one test and one printed verdict each.

Tolerances are pinned here so a change in any module that weakens a bound
fails loudly instead of drifting.
"""

import random
from fractions import Fraction

import lie_oracle
from lgorbit import compactification as cg
from lgorbit import mirror
from lgorbit.fukaya import (
    check_a_infinity,
    check_strict_unitality,
    degree_forced_vanishing,
    lg2_category,
    morse_circle_floer,
    tables_equal,
)
from lgorbit.gaussian import ExactMatrix, GaussianRational
from lgorbit.lie import (
    CartanDiagonal,
    critical_count,
    critical_points,
    height_exact,
    hessian_determinant,
    sl2_orbit_coordinates,
)
from lgorbit.mirror import (
    dimension_bound_verdict,
    search_mirror_pair,
)
from lgorbit.quiver import (
    dg_quiver,
    end_algebra_dims_tilting,
    hom_cohomology,
    ordinary_quiver,
    path_basis,
)
from lgorbit.report import Config, render_json, run
from lgorbit.symplectic import (
    check_sphere_lagrangian,
    sphere_lagrangian_certificate,
    taming_certificate,
    thimble_certificate,
)
from lgorbit.toric import (
    HirzebruchFan,
    PicClass,
    canonical_class,
    cohomology_dims,
    euler_rr,
    ext_hom_table,
    pic_to_divisor,
)

SPHERE_TOL = 1e-9
HESSIAN_STEP = 1e-4
HESSIAN_MIN = 0.5
SPHERE_SAMPLES = 1000


def _verdict(number: int, label: str, ok: bool) -> bool:
    print(f"acceptance {number} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_critical_structure():
    h2 = CartanDiagonal((1, -1))
    pts = critical_points(h2, h2)
    coords = {
        tuple(sl2_orbit_coordinates(CartanDiagonal(d).as_exact_matrix()))
        for d in pts
    }
    one, zero = GaussianRational(1), GaussianRational(0)
    set_ok = coords == {(one, zero, zero), (-one, zero, zero)}
    heights_ok = {height_exact(h2, CartanDiagonal(d).as_exact_matrix()) for d in pts} == {
        Fraction(2),
        Fraction(-2),
    }
    hessian_ok = all(
        abs(lie_oracle.hessian_determinant(h2, h2, d, step=HESSIAN_STEP)) >= HESSIAN_MIN
        and hessian_determinant(h2, h2, d) != 0
        for d in pts
    )
    cases = (
        (CartanDiagonal((2, 1, -3)), CartanDiagonal((3, -1, -2)), 6),
        (CartanDiagonal((1, 1, -2)), CartanDiagonal((3, -1, -2)), 3),
        (CartanDiagonal((1, 1, -1, -1)), CartanDiagonal((5, 1, -2, -4)), 6),
    )
    counts_ok = all(
        critical_count(h0, h) == want == len(critical_points(h0, h))
        for h0, h, want in cases
    )
    ok = set_ok and heights_ok and hessian_ok and counts_ok
    assert _verdict(1, "critical points, heights, Hessians, counts", ok)


def test_criterion_2_lagrangian_bounds():
    sphere = check_sphere_lagrangian(n_samples=SPHERE_SAMPLES, seed=0)
    ok = (
        sphere.samples >= SPHERE_SAMPLES
        and sphere.max_omega < SPHERE_TOL
        and sphere.max_tangency_residual < SPHERE_TOL
        and sphere.min_taming > 0
        and sphere.rank_failures == 0
        and sphere_lagrangian_certificate()
        and thimble_certificate()
        and taming_certificate()
    )
    assert _verdict(2, "sphere and thimbles are taming-compatible Lagrangians", ok)


def test_criterion_3_directed_category():
    cat = lg2_category()
    morse = morse_circle_floer()
    p1_table = mirror.ext_hom_table(mirror.EXCEPTIONAL_PAIR)
    mismatch_ok = tables_equal(cat.hom_table(), p1_table) is None
    # L0 -> O(-E), L1 -> O on the degree-2 Hirzebruch surface
    f2_ok = cat.hom_table() == ext_hom_table(HirzebruchFan(2), (PicClass(-1, 0), PicClass(0, 0)))
    ok = (
        f2_ok
        and check_a_infinity(cat)
        and check_strict_unitality(cat)
        and degree_forced_vanishing(cat) == []
        and morse.module.ranks == {0: 1, 1: 1}
        and morse.differential == ((0,),)
        and mismatch_ok
    )
    assert _verdict(3, "thimble category relations, F2 Ext match, projective-line mismatch", ok)


def test_criterion_4_sheaf_cohomology():
    f2 = HirzebruchFan(2)
    e = PicClass(1, 0)
    o_ok = cohomology_dims(f2, pic_to_divisor(f2, PicClass(0, 0))).triple == (1, 0, 0)
    e_ok = cohomology_dims(f2, pic_to_divisor(f2, e)).triple == (1, 1, 0)
    me_ok = cohomology_dims(f2, pic_to_divisor(f2, -e)).triple == (0, 0, 0)
    rr_ok = all(
        cohomology_dims(fan, pic_to_divisor(fan, PicClass(p, q))).euler
        == euler_rr(PicClass(p, q), fan.a)
        for fan in (HirzebruchFan(0), HirzebruchFan(1), f2)
        for p in range(-5, 6)
        for q in range(-5, 6)
    )
    serre_ok = True
    for fan in (HirzebruchFan(0), HirzebruchFan(1), f2):
        k = canonical_class(fan.a)
        for p in range(-3, 4):
            for q in range(-3, 4):
                c = PicClass(p, q)
                d = cohomology_dims(fan, pic_to_divisor(fan, c))
                s = cohomology_dims(fan, pic_to_divisor(fan, k - c))
                serre_ok = serre_ok and d.triple == (s.h2, s.h1, s.h0)
    margin_ok = all(
        cohomology_dims(f2, pic_to_divisor(f2, c), box_margin=1).triple
        == cohomology_dims(f2, pic_to_divisor(f2, c), box_margin=3).triple
        for c in (PicClass(0, 0), e, -e, PicClass(2, -3))
    )
    ok = o_ok and e_ok and me_ok and rr_ok and serre_ok and margin_ok
    assert _verdict(4, "section-class cohomology, Riemann-Roch, Serre, box", ok)


def test_criterion_5_quiver_presentation():
    q = ordinary_quiver()
    basis = path_basis(q)
    words = {p.arrows for p in basis.paths}
    relations_ok = (
        ("alpha", "beta") not in words
        and ("beta", "alpha") in words
        and ("beta", "alpha", "beta", "alpha") not in words
    )
    tilt = end_algebra_dims_tilting()
    fukaya_ranks = lg2_category().hom_table()[(0, 1)]
    dg_zero = hom_cohomology(dg_quiver("zero"), "v0", "v1")
    dg_literal = hom_cohomology(dg_quiver("literal"), "v0", "v1")
    ok = (
        basis.dimension == 5
        and relations_ok
        and tilt.hom_dims == (1, 1, 1, 2)
        and tilt.higher_ext_vanish
        and len(tilt.assumptions) == 1
        and dg_zero == fukaya_ranks
        and dg_literal == {}
    )
    assert _verdict(5, "path algebra dimension, relations, tilting, DG readings", ok)


def test_criterion_6_mirror_search():
    none_ok = search_mirror_pair(t_range=10, shift_range=3) is None
    stable_ok = search_mirror_pair(t_range=20, shift_range=5) is None
    control = search_mirror_pair(target_forward={0: 2})
    self_pair = search_mirror_pair(
        require_backward_zero=False, require_end_simple=False, allow_self_pairs=True
    )
    bound_ok = all(dimension_bound_verdict(n, 2) == "excluded" for n in range(2, 7))
    ok = (
        none_ok
        and stable_ok
        and control is not None
        and control.forward == ((0, 2),)
        and self_pair is not None
        and bound_ok
    )
    assert _verdict(6, "no projective mirror pair, controls find witnesses", ok)


def test_criterion_7_compactification():
    base = cg.base_locus()
    data = cg.critical_data()
    values_ok = data.verified and data.values == (
        cg.MultiProjPoint(((1, 1),)),
        cg.MultiProjPoint(((1, -1),)),
    )
    ok = (
        cg.quadric_change_check()
        and cg.gram_rank(cg.homogenize_orbit()) == 4
        and cg.certify_cofactors(cg.moment_conjugation_certificate)
        and cg.certify_cofactors(cg.extension_on_orbit_certificate)
        and len(base) == 2
        and cg.base_locus_certificate()
        and values_ok
        and cg.degenerate_values_certificate()
        and cg.graph_smooth_check()
        and cg.deformed_ring_iso_check()
    )
    assert _verdict(7, "quadric, moment map, base locus, critical fibers", ok)


def test_criterion_8_deterministic_report(full_report):
    first = render_json(full_report)
    second = render_json(run("all", Config()))
    ok = first.encode("utf-8") == second.encode("utf-8")
    assert _verdict(8, "byte-identical verification report", ok)


def test_exact_orbit_membership_support():
    # shared support for criteria 1 and 7: conjugation stays on the orbit
    rng = random.Random(1)
    h0 = ExactMatrix.diagonal([1, -1])
    h = CartanDiagonal((1, -1))
    ok = all(
        lie_oracle.orbit_contains_exact(
            h, lie_oracle.conjugate_exact(lie_oracle.random_sl_integer(2, rng), h0)
        )
        for _ in range(10)
    )
    assert ok and cg.certify_cofactors(cg.orbit_membership_certificate)
