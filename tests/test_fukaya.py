"""Directed A-infinity model of the two thimbles and comparison tables."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fukaya_oracle
from lgorbit import fukaya
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
    relation_arities,
    shift_table,
    tables_equal,
)
from lgorbit import mirror
from lgorbit.gaussian import cohomology
from lgorbit.report import Config, run
from lgorbit.toric import HirzebruchFan, PicClass, ext_dims, ext_hom_table
from negative_controls import _no_products, _shifts_off_by_one, chain_with_m3


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
    assert cat.apply(("x0",)) == {"x1": 1}


def test_non_composable_chain_rejected():
    with pytest.raises(StructureError):
        DirectedAInfCategory(
            ("L0", "L1"),
            two_object_homs(),
            unital_products() + [ProductEntry(("x0", "x0"), "x0")],
        )


def test_lg2_satisfies_a_infinity():
    cat = lg2_category()
    assert relation_arities(cat) == [3]
    assert check_a_infinity(cat)
    assert fukaya_oracle.check_a_infinity(cat, k_max=8)


@pytest.mark.parametrize("coeff", [1, 2])
def test_differential_control_checks_arities_up_to_three(coeff):
    # m_1(x0) = coeff * x1 commutes with the unit action, so every relation holds
    cat = DirectedAInfCategory(
        ("L0", "L1"), two_object_homs(), unital_products() + [ProductEntry(("x0",), "x1", coeff)]
    )
    assert relation_arities(cat) == [1, 2, 3]
    assert check_a_infinity(cat)
    assert fukaya_oracle.check_a_infinity(cat, k_max=6)


def one_composite(dropped=()):
    """f: 0 -> 1, g: 1 -> 2 and h = m_2(f, g): 0 -> 2, all in degree 0, with
    every unital m_2 entry except those whose inputs are in ``dropped``."""
    homs = {
        (0, 0): GradedModule([("i0", 0)]),
        (1, 1): GradedModule([("i1", 0)]),
        (2, 2): GradedModule([("i2", 0)]),
        (0, 1): GradedModule([("f", 0)]),
        (1, 2): GradedModule([("g", 0)]),
        (0, 2): GradedModule([("h", 0)]),
    }
    units = [(("i0", "i0"), "i0"), (("i1", "i1"), "i1"), (("i2", "i2"), "i2"),
             (("i0", "f"), "f"), (("f", "i1"), "f"), (("i1", "g"), "g"),
             (("g", "i2"), "g"), (("i0", "h"), "h"), (("h", "i2"), "h")]
    products = [ProductEntry(chain, out) for chain, out in units if chain not in dropped]
    return DirectedAInfCategory(
        ("A", "B", "C"), homs, products + [ProductEntry(("f", "g"), "h")]
    )


def test_two_terms_that_cancel_pass_and_one_alone_fails():
    # on (i0, f, g) the arity-3 relation is m2(m2(i0, f), g) - m2(i0, m2(f, g)) = h - h
    assert check_a_infinity(one_composite())
    # without m2(i0, h) = h the second term is gone and h is left over
    broken = one_composite(dropped={("i0", "h")})
    assert not check_a_infinity(broken)
    assert not fukaya_oracle.check_a_infinity(broken, k_max=3)


def test_a_walk_that_sums_no_term_fails(monkeypatch):
    # with every product reading zero each relation holds as 0 = 0, but the
    # arity-3 relation of lg2 has 16 terms, so the walk must not certify it
    assert check_a_infinity(lg2_category())
    monkeypatch.setattr(DirectedAInfCategory, "apply", _no_products)
    assert not check_a_infinity(lg2_category())


def test_m3_control_fails_past_arity_three():
    # the arity-3 relations hold, so a check fixed at arity 3 would pass it
    cat = chain_with_m3()
    assert relation_arities(cat) == [3, 4, 5]
    assert not check_a_infinity(cat)
    assert fukaya_oracle.check_a_infinity(cat, k_max=3)
    assert [fukaya_oracle.check_a_infinity(cat, k) for k in (4, 5, 6)] == [False] * 3


# three objects with generators in several degrees, and every product entry
# of arity at most 3 that the degree rule admits
THREE_OBJECT_HOMS = {
    (0, 0): GradedModule([("i0", 0)]),
    (1, 1): GradedModule([("i1", 0)]),
    (2, 2): GradedModule([("i2", 0)]),
    (0, 1): GradedModule([("a", 0), ("b", 1)]),
    (1, 2): GradedModule([("c", 0), ("d", 1)]),
    (0, 2): GradedModule([("e", -1), ("f", 0), ("g", 1), ("h", 2)]),
}


def _admissible_entries():
    bare = DirectedAInfCategory(("A", "B", "C"), THREE_OBJECT_HOMS, [])
    entries = []
    for k in (1, 2, 3):
        for chain in bare.composable_chains(k):
            degree = sum(bare.gen_info(g)[2] for g in chain) + 2 - k
            module = THREE_OBJECT_HOMS.get(bare.chain_endpoints(chain))
            entries += [(chain, name) for name, d in (module.basis if module else ()) if d == degree]
    return entries


@given(picks=st.lists(
    st.tuples(st.sampled_from(_admissible_entries()), st.sampled_from([-1, 1, 2])),
    min_size=1, max_size=8,
))
@settings(max_examples=150, deadline=None)
def test_relation_arities_agree_with_the_arity_walk(picks):
    # walking every arity up to one past the highest computed one changes nothing
    products = [ProductEntry(chain, output, coeff) for (chain, output), coeff in picks]
    cat = DirectedAInfCategory(("A", "B", "C"), THREE_OBJECT_HOMS, products)
    top = max(relation_arities(cat))
    assert check_a_infinity(cat) == fukaya_oracle.check_a_infinity(cat, k_max=top + 1)


def test_m3_control_fails_the_a_infinity_row(monkeypatch):
    monkeypatch.setattr(fukaya, "lg2_category", chain_with_m3)
    rows = {r.id: r for r in run("category", Config()).results}
    row = rows["category.a-infinity-relations"]
    assert row.status == "fail"
    assert "arity 3, 4, 5 " in row.detail


def test_lg2_strictly_unital():
    assert check_strict_unitality(lg2_category())


def test_lg2_differential_only_forced_slot():
    cat = lg2_category()
    assert degree_forced_vanishing(cat) == []
    assert degree_forced_vanishing(cat, min_arity=1) == [(1, ("x0",), 1)]


def test_forced_vanishing_walks_the_longest_chain():
    # on four objects the only admissible slot is the arity-3 chain a, b, c
    homs = {(i, i): GradedModule([(f"e{i}", 0)]) for i in range(4)}
    homs.update({
        (0, 1): GradedModule([("a", 0)]),
        (1, 2): GradedModule([("b", 0)]),
        (2, 3): GradedModule([("c", 0)]),
        (0, 3): GradedModule([("h", -1)]),
    })
    cat = DirectedAInfCategory(("A", "B", "C", "D"), homs, [])
    assert degree_forced_vanishing(cat) == [(3, ("a", "b", "c"), -1)]


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
    # the matcher returns the solved shifts, with no window to bound them
    table = lg2_category().hom_table()
    assert tables_equal(table, table) == (0, 0)
    for planted in ((0, 2), (5, -40), (0, 1000)):
        shifted = shift_table(table, planted)
        assert tables_equal(shifted, table) == (0, planted[0] - planted[1])
        assert not fukaya_oracle.tables_equal(shifted, table, shift_window=0)


def test_lg2_never_matches_projective_line():
    table = lg2_category().hom_table()
    p1 = mirror.ext_hom_table(mirror.EXCEPTIONAL_PAIR)
    assert tables_equal(table, p1) is None
    for window in (0, 1, 2, 3):
        assert not fukaya_oracle.tables_equal(table, p1, shift_window=window)


def test_p1_table_matches_itself_trivially():
    p1 = mirror.ext_hom_table(mirror.EXCEPTIONAL_PAIR)
    assert tables_equal(p1, p1) == (0, 0)


def test_tables_with_other_pairs_do_not_match():
    table = lg2_category().hom_table()
    assert tables_equal(table, {(0, 0): {0: 1}}) is None
    assert tables_equal({}, {}) == ()


@st.composite
def directed_tables(draw):
    """Two directed tables on up to three objects, degrees in [-2, 2]: a
    random pair, or a table and a shift of it with one hom possibly redrawn.
    Either way every match needs shifts spread over at most 8, which a
    window of 4 reaches."""
    n = draw(st.integers(1, 3))
    ranks = st.dictionaries(st.integers(-2, 2), st.integers(0, 2), max_size=3)

    def table():
        return {(i, j): draw(ranks) if i <= j else {} for i in range(n) for j in range(n)}

    table_a = table()
    if draw(st.booleans()):
        return table_a, table()
    planted = draw(st.tuples(*[st.integers(-2, 2)] * n))
    table_b = shift_table(table_a, planted)
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        table_b[(i, draw(st.integers(i, n - 1)))] = draw(ranks)
    return table_a, table_b


@given(tables=directed_tables())
@settings(max_examples=300, deadline=None)
def test_solved_matcher_agrees_with_the_window_brute_force(tables):
    table_a, table_b = tables
    solved = tables_equal(table_a, table_b)
    assert (solved is not None) == fukaya_oracle.tables_equal(table_a, table_b, shift_window=4)
    if solved is not None:
        assert tables_equal(shift_table(table_a, solved), table_b) == (0,) * len(solved)


def test_off_by_one_matcher_fails_the_shift_sanity_row(monkeypatch):
    monkeypatch.setattr(fukaya, "_solve_shifts", _shifts_off_by_one)
    rows = {r.id: r for r in run("category", Config()).results}
    assert rows["category.shift-matching-sanity"].status == "fail"


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
    assert ext_hom_table(HirzebruchFan(2), (O, PicClass(-2, 0))) == {
        (0, 0): {0: 1}, (0, 1): {1: 3}, (1, 0): {0: 1, 1: 4}, (1, 1): {0: 1},
    }
