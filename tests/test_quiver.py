"""End(O + X) from twisted complexes against the two oracles: the path algebra
with relations and the exact-sequence chases; the oracles' own behaviour."""

from fractions import Fraction

import pytest

from lgorbit import quiver, toric
from lgorbit.errors import DiagnosticError, PreconditionError, StructureError
from lgorbit.fukaya import check_a_infinity, lg2_category, twisted_compose
from lgorbit.gaussian import ExactMatrix
from lgorbit.quiver import TiltingReport, end_algebra_dims_tilting, euler_form_matrix
from lgorbit.toric import PicClass
from quiver_oracle import (
    Arrow,
    QuiverPresentation,
    composition_pattern_check,
    dg_quiver,
    end_algebra_dims_by_chases,
    hom_cohomology,
    les_chase,
    ordinary_quiver,
    path_basis,
)


def test_quiver_validation():
    with pytest.raises(StructureError):
        QuiverPresentation(("v", "v"), ())
    with pytest.raises(StructureError):
        QuiverPresentation(("v",), (Arrow("a", "v", "w"),))
    with pytest.raises(StructureError):
        QuiverPresentation(
            ("v",), (Arrow("a", "v", "v"), Arrow("a", "v", "v"))
        )


def test_differential_must_square_to_zero():
    arrows = (
        Arrow("a", "v", "v", 0),
        Arrow("b", "v", "v", 1),
        Arrow("c", "v", "v", 2),
    )
    with pytest.raises(StructureError, match="square to zero"):
        QuiverPresentation(
            ("v",),
            arrows,
            differential={"a": ((1, ("b",)),), "b": ((1, ("c",)),)},
        )


def test_differential_degree_check():
    arrows = (Arrow("a", "v", "v", 0), Arrow("b", "v", "v", 2))
    with pytest.raises(StructureError, match="raise degree by one"):
        QuiverPresentation(("v",), arrows, differential={"a": ((1, ("b",)),)})


def test_ordinary_path_basis():
    q = ordinary_quiver()
    basis = path_basis(q)
    assert basis.dimension == 5
    dims = {
        (s, t): len(basis.by_endpoints(s, t))
        for s in q.vertices
        for t in q.vertices
    }
    assert dims == {
        ("v0", "v0"): 1,
        ("v0", "v1"): 1,
        ("v1", "v0"): 1,
        ("v1", "v1"): 2,
    }


def test_relation_kills_one_composite_but_not_the_other():
    q = ordinary_quiver()
    words = {p.arrows for p in path_basis(q).paths}
    assert ("beta", "alpha") in words
    assert ("alpha", "beta") not in words
    # the surviving composite squares to zero as a consequence
    assert ("beta", "alpha", "beta", "alpha") not in words


def test_composition_pattern():
    assert composition_pattern_check()


def test_unbounded_basis_raises():
    loop = QuiverPresentation(("v",), (Arrow("a", "v", "v"),))
    with pytest.raises(DiagnosticError, match="still growing"):
        path_basis(loop, length_bound=4)


def test_hom_complex_ordinary():
    q = ordinary_quiver()
    assert hom_cohomology(q, "v1", "v0") == {0: 1}
    assert hom_cohomology(q, "v1", "v1") == {0: 2}


def test_hom_complex_dg_zero():
    q = dg_quiver("zero")
    assert hom_cohomology(q, "v0", "v1") == {0: 1, 1: 1}


def test_hom_complex_dg_literal():
    q = dg_quiver("literal")
    assert hom_cohomology(q, "v0", "v1") == {}


def test_dg_quiver_variant_names():
    with pytest.raises(PreconditionError):
        dg_quiver("other")


def test_les_chase_forced_zero_connectings():
    r = les_chase((1, 0, 0, 0, 0, 0))
    assert r.middle == (1, 0, 0)
    assert not r.used_injective_connecting


def test_les_chase_requires_pin_when_free():
    with pytest.raises(DiagnosticError, match="undetermined"):
        les_chase((1, 1, 1, 0, 0, 0))


def test_les_chase_injective_pin():
    r = les_chase((1, 1, 1, 0, 0, 0), "injective")
    assert r.used_injective_connecting
    # the pinned connecting rank eats the whole of A2
    assert r.ranks[2] == 1
    assert r.middle == (1, 0, 0)


def test_les_chase_detects_inconsistency():
    with pytest.raises(DiagnosticError, match="inconsistent"):
        les_chase((1, 2, 1, 0, 0, 0), "injective")


def test_les_chase_zero_endpoint_is_not_inconsistent():
    # a2 > a3 = 0 forces the connecting rank to zero, so the pin goes unused
    r = les_chase((5, 1, 0, 0, 0, 0), "injective")
    assert r.middle == (6, 0, 0)
    assert not r.used_injective_connecting


def test_les_chase_input_validation():
    with pytest.raises(PreconditionError):
        les_chase((-1, 0, 0, 0, 0, 0))
    with pytest.raises(PreconditionError):
        les_chase((1, 0, 0, 0, 0, 0), "surjective")


def test_higher_ext_vanish_needs_both_degrees():
    hom = (1, 1, 1, 2)
    assert not TiltingReport(hom, (0, 1, 0, 0), (0,) * 4).higher_ext_vanish
    assert not TiltingReport(hom, (0,) * 4, (0, 0, 1, 0)).higher_ext_vanish
    assert TiltingReport(hom, (0,) * 4, (0,) * 4).higher_ext_vanish


def test_tilting_report():
    report = end_algebra_dims_tilting(lg2_category())
    assert report.hom_dims == (1, 1, 1, 2)
    assert report.total == 5
    assert report.higher_ext_vanish


def test_the_chase_oracle_pinned_injective_agrees_with_the_twisted_hom():
    hom, ext1, ext2, used_pin = end_algebra_dims_by_chases("injective")
    assert used_pin
    assert tuple(end_algebra_dims_tilting(lg2_category())) == (hom, ext1, ext2)
    # unpinned, the chase against O cannot see its connecting map
    with pytest.raises(DiagnosticError, match="A2 -> A3 is undetermined"):
        end_algebra_dims_by_chases(None)


def test_tilting_total_matches_quiver_dimension():
    assert end_algebra_dims_tilting(lg2_category()).total == path_basis(ordinary_quiver()).dimension


def test_euler_form_rank_of_the_exceptional_pair():
    exceptional = euler_form_matrix((PicClass(-1, 0), PicClass(0, 0)))
    assert exceptional == ExactMatrix.identity(2)
    assert exceptional.rank() == 2
    # O twice is not exceptional: its Euler form is all ones, rank one
    assert euler_form_matrix((PicClass(0, 0), PicClass(0, 0))).rank() == 1


def test_binomial_relation_rejected():
    arrows = (Arrow("a", "v", "v"), Arrow("b", "v", "v"))
    with pytest.raises(StructureError, match="monomial"):
        QuiverPresentation(("v",), arrows, relations=(((1, ("a", "b")), (-1, ("b", "a"))),))


def test_the_derived_algebra_is_the_oracle_path_algebra():
    # O, X -> v0, v1: the identities go to the idempotents, the H^0 morphisms
    # each way to the arrows, and X -> O -> X to the loop
    cat, oracle = lg2_category(), ordinary_quiver()
    blocks = quiver.end_algebra(cat)
    (forward,), (backward,) = blocks[("O", "X")], blocks[("X", "O")]
    image = [  # (morphism, source, target, path)
        (quiver.identity(cat, "O"), "O", "O", oracle.identity("v0")),
        (quiver.identity(cat, "X"), "X", "X", oracle.identity("v1")),
        (forward, "O", "X", oracle._path_of_word(("alpha",))),
        (backward, "X", "O", oracle._path_of_word(("beta",))),
        (twisted_compose(cat, backward, forward), "X", "X",
         oracle._path_of_word(("beta", "alpha"))),
    ]
    vertex = {"O": "v0", "X": "v1"}
    basis = path_basis(oracle)
    assert {pair: len(b) for pair, b in blocks.items()} == {
        (s, t): len(basis.by_endpoints(vertex[s], vertex[t])) for s in vertex for t in vertex
    }
    assert {path for *_, path in image} == set(basis.paths)
    assert all(f in blocks[(s, t)] for f, s, t, _ in image)
    for f, s, t, p in image:
        for g, s2, u, q in image:
            if t != s2:
                continue
            product = twisted_compose(cat, f, g)  # f, then g: the oracle's q*p
            # forward and the identity of O are both id_L1, in different blocks
            mapped = {path: Fraction(1) for h, *ends, path in image
                      if product and (h, ends) == (product, [s, u])}
            assert bool(mapped) == bool(product)
            assert mapped == oracle.path_product(q, p)


def test_the_literal_category_fills_the_open_slot():
    literal = quiver.literal_differential(lg2_category())
    assert literal.apply(("x0",)) == {"x1": 1}
    assert check_a_infinity(literal)
    assert quiver.twisted_hom_cohomology(literal, quiver.L0, quiver.L1) == {}


@pytest.mark.parametrize("a, matrix", [
    (2, [[1, 0], [0, 1]]), (3, [[1, -1], [0, 1]]), (0, [[1, 2], [0, 1]]),
])
def test_only_f2_gives_the_thimble_euler_form(monkeypatch, a, matrix):
    monkeypatch.setattr(quiver, "HirzebruchFan", lambda _a: toric.HirzebruchFan(a))
    toric._cohomology.cache_clear()
    try:
        euler = euler_form_matrix(toric.EXCEPTIONAL_PAIR)
    finally:
        toric._cohomology.cache_clear()
    assert euler == ExactMatrix(matrix)
    assert euler.rank() == 2
    assert (euler == quiver.thimble_euler_form(lg2_category())) == (a == 2)
