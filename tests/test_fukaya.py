"""Directed A-infinity model of the two thimbles and comparison tables."""

import pytest

from lgorbit.errors import StructureError
from lgorbit.fukaya import (
    DirectedAInfCategory,
    GradedModule,
    ProductEntry,
    check_a_infinity,
    check_strict_unitality,
    degree_forced_vanishing,
    lg2_category,
    morse_circle_floer,
    p1_mirror_table,
    shift_table,
    tables_equal,
)
from lgorbit.gaussian import cohomology
from lgorbit.toric import HirzebruchFan, PicClass, ext_dims, ext_hom_table


def test_graded_module_ranks():
    m = GradedModule([("a", 0), ("b", 1), ("c", 1)])
    assert m.ranks == {0: 1, 1: 2}


def test_graded_module_rejects_duplicate_names():
    with pytest.raises(StructureError):
        GradedModule([("a", 0), ("a", 1)])


def two_object_homs():
    return {
        (0, 0): GradedModule([("e0", 0)]),
        (0, 1): GradedModule([("x0", 0), ("x1", 1)]),
        (1, 1): GradedModule([("e1", 0)]),
    }


def unital_products():
    return [
        ProductEntry(("e0", "e0"), "e0"),
        ProductEntry(("e1", "e1"), "e1"),
        ProductEntry(("e0", "x0"), "x0"),
        ProductEntry(("x0", "e1"), "x0"),
        ProductEntry(("e0", "x1"), "x1"),
        ProductEntry(("x1", "e1"), "x1"),
    ]


def test_category_construction_validates_names():
    with pytest.raises(StructureError):
        DirectedAInfCategory(("L", "L"), two_object_homs(), unital_products())


def test_category_requires_ordered_hom_indices():
    homs = two_object_homs()
    homs[(1, 0)] = GradedModule([("back", 0)])
    with pytest.raises(StructureError):
        DirectedAInfCategory(("L0", "L1"), homs, unital_products())


def test_category_requires_identity_diagonal():
    homs = two_object_homs()
    homs[(0, 0)] = GradedModule([("e0", 1)])
    with pytest.raises(StructureError):
        DirectedAInfCategory(("L0", "L1"), homs, unital_products())


def test_degree_rule_enforced_per_entry():
    products = unital_products() + [ProductEntry(("x0",), "x1")]
    # m_1 must raise degree by one; x0 -> x1 is the only legal slot, so
    # instead break it with a same-degree image through m_2
    with pytest.raises(StructureError):
        DirectedAInfCategory(
            ("L0", "L1"),
            two_object_homs(),
            unital_products() + [ProductEntry(("e0", "x0"), "x1")],
        )
    cat = DirectedAInfCategory(("L0", "L1"), two_object_homs(), products)
    assert cat.apply(1, ("x0",)) == {"x1": 1}


def test_non_composable_chain_rejected():
    with pytest.raises(StructureError):
        DirectedAInfCategory(
            ("L0", "L1"),
            two_object_homs(),
            unital_products() + [ProductEntry(("x0", "x0"), "x0")],
        )


def test_lg2_satisfies_a_infinity():
    cat = lg2_category()
    assert check_a_infinity(cat, k_max=6)


def test_lg2_strictly_unital():
    assert check_strict_unitality(lg2_category())


def test_lg2_differential_only_forced_slot():
    cat = lg2_category()
    assert degree_forced_vanishing(cat, max_arity=6) == []
    assert degree_forced_vanishing(cat, max_arity=6, min_arity=1) == [(1, ("x0",), 1)]


def test_lg2_hom_table():
    table = lg2_category().hom_table()
    assert table[(0, 0)] == {0: 1}
    assert table[(0, 1)] == {0: 1, 1: 1}
    assert table[(1, 0)] == {}
    assert table[(1, 1)] == {0: 1}


def test_morse_circle_model():
    model = morse_circle_floer()
    assert model.module.ranks == {0: 1, 1: 1}
    assert model.flow_line_signs == (1, -1)
    # both generators survive: the differential pairing the two cells is zero
    assert model.differential == ((0,),)
    assert model.cohomology == {0: 1, 1: 1}


def test_morse_circle_rank_one_differential_kills_cohomology():
    # equal signs would give the differential 2, of rank one over the rationals
    assert cohomology({0: 1, 1: 1}, {0: ((2,),)}) == {}


def test_tables_equal_shift_window():
    table = lg2_category().hom_table()
    assert tables_equal(table, table)
    shifted = shift_table(table, (0, 2))
    assert not tables_equal(shifted, table)
    assert tables_equal(shifted, table, shift_window=2)


def test_lg2_never_matches_projective_line():
    table = lg2_category().hom_table()
    p1 = p1_mirror_table()
    for window in (0, 1, 2, 3):
        assert not tables_equal(table, p1, shift_window=window)


def test_p1_table_matches_itself_trivially():
    p1 = p1_mirror_table()
    assert tables_equal(p1, p1, shift_window=3)


O_MINUS_E, O = PicClass(-1, 0), PicClass(0, 0)


@pytest.mark.parametrize("a, source, target, forward", [
    (2, O_MINUS_E, O, (1, 1, 0)),
    (0, O_MINUS_E, O, (2, 0, 0)),
    (1, O_MINUS_E, O, (1, 0, 0)),
    (2, O, O_MINUS_E, (0, 0, 0)),
], ids=["F2", "F0", "F1", "F2-swapped"])
def test_thimble_category_matches_the_f2_ext_table_only(a, source, target, forward):
    # L0 -> O(-E), L1 -> O on the degree-2 surface is the equivalence; the
    # same pair on F0 and F1, and the swapped pair on F2, are the controls
    fan = HirzebruchFan(a)
    assert ext_dims(fan, source, target).triple == forward
    table = ext_hom_table(fan, (source, target))
    assert table[(0, 1)] == {k: d for k, d in enumerate(forward) if d}
    assert (lg2_category().hom_table() == table) == (a == 2 and source == O_MINUS_E)


def test_ext_hom_table_reads_degrees_and_drops_zeros():
    # H^*(O(-2E)) = (0, 3, 0) and H^*(O(2E)) = (1, 4, 0) on the degree-2 surface
    assert ext_hom_table(HirzebruchFan(2), (O, PicClass(-2, 0)), box_margin=5) == {
        (0, 0): {0: 1}, (0, 1): {1: 3}, (1, 0): {0: 1, 1: 4}, (1, 1): {0: 1},
    }
