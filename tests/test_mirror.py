"""Exhaustive mirror-pair search on the projective line and its controls."""

import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgorbit import mirror, report
from lgorbit.errors import PreconditionError
from lgorbit.mirror import (
    DEFAULT_TARGET,
    LineBundle,
    Skyscraper,
    dimension_bound_verdict,
    euler_pairing_identity,
    exclusion_table,
    ext_p1,
    search_mirror_pair,
    shifted_pattern,
)

import mirror_oracle
from negative_controls import (
    CONTROLS,
    _ext1_off_by_one,
    _line_bundle_to_point_in_two_degrees,
)


def test_ext_line_bundles_closed_form():
    # hom = max(0, d+1), ext1 = max(0, -d-1) with d the twist difference
    for a in range(-4, 5):
        for b in range(-4, 5):
            hom, ext1 = ext_p1(LineBundle(a), LineBundle(b))
            d = b - a
            assert hom == max(0, d + 1)
            assert ext1 == max(0, -d - 1)
            assert hom - ext1 == d + 1


def test_ext_mixed_and_skyscrapers():
    assert ext_p1(LineBundle(0), Skyscraper("p")) == (1, 0)
    assert ext_p1(Skyscraper("p"), LineBundle(0)) == (0, 1)
    assert ext_p1(Skyscraper("p"), Skyscraper("p")) == (1, 1)
    assert ext_p1(Skyscraper("p"), Skyscraper("q")) == (0, 0)


def test_shifted_pattern_moves_degrees():
    assert shifted_pattern(LineBundle(0), LineBundle(1)) == {0: 2}
    assert shifted_pattern(LineBundle(0), LineBundle(1), 0, 1) == {-1: 2}
    assert shifted_pattern(LineBundle(0), LineBundle(-2)) == {1: 1}
    assert shifted_pattern(Skyscraper("p"), Skyscraper("q")) == {}


def test_exceptional_pair_table():
    # (O, O(1)): one endomorphism each, two forward sections, nothing back
    assert mirror.ext_hom_table(mirror.EXCEPTIONAL_PAIR) == {
        (0, 0): {0: 1}, (0, 1): {0: 2}, (1, 0): {}, (1, 1): {0: 1},
    }


def test_main_search_finds_nothing():
    assert search_mirror_pair(t_range=10, shift_range=3) is None


def test_search_stable_under_larger_ranges():
    assert search_mirror_pair(t_range=20, shift_range=5) is None


def test_control_witness_for_reachable_pattern():
    w = search_mirror_pair(target_forward={0: 2})
    assert w is not None
    assert w.forward == ((0, 2),)
    assert w.backward == ()


def test_control_relaxed_distinctness_still_empty():
    assert search_mirror_pair(require_backward_zero=False) is None
    assert (
        search_mirror_pair(require_backward_zero=False, require_end_simple=False)
        is None
    )


def test_control_self_pair_realizes_pattern():
    w = search_mirror_pair(
        require_backward_zero=False,
        require_end_simple=False,
        allow_self_pairs=True,
    )
    assert w is not None
    assert (w.source, w.source_shift) == (w.target, w.target_shift)
    assert w.forward == ((0, 1), (1, 1))


def test_search_rejects_negative_ranges():
    with pytest.raises(PreconditionError):
        search_mirror_pair(t_range=-1)
    with pytest.raises(PreconditionError):
        exclusion_table(t_range=-1)


def test_exclusion_table_rows_all_verified():
    rows = exclusion_table()
    assert len(rows) == 4
    assert all(r.verified for r in rows)
    cases = [r.case for r in rows]
    assert any("line bundle to line bundle" in c for c in cases)
    assert any("distinct" in c for c in cases)


def test_dimension_bound():
    assert dimension_bound_verdict(1, 2) == "admissible"
    assert dimension_bound_verdict(2, 2) == "excluded"
    assert dimension_bound_verdict(3, 2) == "excluded"
    assert dimension_bound_verdict(0, 1) == "admissible"
    with pytest.raises(PreconditionError):
        dimension_bound_verdict(-1, 2)
    with pytest.raises(PreconditionError):
        dimension_bound_verdict(1, 0)


def test_euler_pairing_identity():
    assert euler_pairing_identity()
    assert euler_pairing_identity(span=100)


@pytest.mark.parametrize("span", [0, 1, 7, 30])
def test_ext_p1_reads_only_the_twist_difference(span):
    # the library's Euler sweep tests one pair per difference on this ground
    for a in range(-span, span + 1):
        for b in range(-span, span + 1):
            d = b - a
            representative = (LineBundle(-(d // 2)), LineBundle(d - d // 2))
            assert ext_p1(LineBundle(a), LineBundle(b)) == ext_p1(*representative)


@pytest.mark.parametrize("span", [0, 1, 7, 30])
def test_euler_pairing_agrees_with_the_all_pairs_sweep(span):
    assert euler_pairing_identity(span) is mirror_oracle.euler_pairing_identity(span) is True


def test_all_pairs_sweep_catches_an_ext_that_reads_the_twists(monkeypatch):
    def twist_dependent(x, y):
        hom, ext1 = ext_p1(x, y)
        return (hom + 1, ext1) if (x.t, y.t) == (5, 5) else (hom, ext1)

    assert not mirror_oracle.euler_pairing_identity(30, twist_dependent)
    # (5, 5) represents no difference, so the library's sweep cannot see it;
    # test_ext_p1_reads_only_the_twist_difference covers that ground
    monkeypatch.setattr(mirror, "ext_p1", twist_dependent)
    assert mirror.euler_pairing_identity(30)


FLAGS = list(itertools.product((False, True), repeat=3))


@pytest.mark.parametrize("backward_zero, end_simple, self_pairs", FLAGS)
@settings(max_examples=40, deadline=None)
@given(
    t_range=st.integers(0, 6),
    shift_range=st.integers(0, 4),
    target=st.one_of(
        st.none(),
        st.dictionaries(st.integers(-3, 3), st.integers(0, 3), max_size=3),
    ),
)
# at t = 0 the solved twist differences v - 1 and -v - 1 leave the window
@example(t_range=0, shift_range=0, target={})
@example(t_range=0, shift_range=2, target={0: 2})
@example(t_range=0, shift_range=1, target={1: 3})
@example(t_range=2, shift_range=1, target={-1: 3})
@example(t_range=6, shift_range=4, target={})
@example(t_range=6, shift_range=4, target={0: 2})
@example(t_range=3, shift_range=1, target={0: 1, 1: 1})
@example(t_range=1, shift_range=0, target={0: 1})
def test_search_matches_brute_force_oracle(
    backward_zero, end_simple, self_pairs, t_range, shift_range, target
):
    kwargs = dict(
        target_forward=target,
        require_backward_zero=backward_zero,
        require_end_simple=end_simple,
        allow_self_pairs=self_pairs,
    )
    w = search_mirror_pair(t_range, shift_range, **kwargs)
    brute = mirror_oracle.search_mirror_pair(t_range, shift_range, **kwargs)
    # the solved classes are a subset of the class walk's, visited in its order
    assert w == mirror_oracle.search_by_class(t_range, shift_range, **kwargs)
    assert (w is None) == (brute is None)
    if w is None:
        return
    objects = mirror_oracle.candidates(t_range)
    assert w.source in objects and w.target in objects
    assert abs(w.source_shift) <= shift_range and abs(w.target_shift) <= shift_range
    assert self_pairs or (w.source, w.source_shift) != (w.target, w.target_shift)
    forward = shifted_pattern(w.source, w.target, w.source_shift, w.target_shift)
    backward = shifted_pattern(w.target, w.source, w.target_shift, w.source_shift)
    wanted = DEFAULT_TARGET if target is None else {d: v for d, v in target.items() if v}
    assert forward == wanted == dict(w.forward)
    assert backward == dict(w.backward)
    assert not (backward_zero and backward)
    if end_simple:
        for obj in (w.source, w.target):
            assert shifted_pattern(obj, obj) == {0: 1}


def _class_key(x, sx, y, sy):
    """Kinds, twist difference or same/other point, and shift difference."""
    if isinstance(x, LineBundle) and isinstance(y, LineBundle):
        relation = y.t - x.t
    elif isinstance(x, Skyscraper) and isinstance(y, Skyscraper):
        relation = x == y
    else:
        relation = None
    return type(x), type(y), relation, sy - sx


def test_classes_give_one_window_pair_per_class():
    for t_range in range(7):
        for shift_range in range(5):
            objects = mirror_oracle.candidates(t_range)
            shifts = range(-shift_range, shift_range + 1)
            pairs = list(mirror_oracle.classes(t_range, shift_range))
            for x, sx, y, sy in pairs:
                assert x in objects and y in objects
                assert sx in shifts and sy in shifts
            window = {
                _class_key(x, sx, y, sy)
                for x in objects for y in objects for sx in shifts for sy in shifts
            }
            assert Counter(_class_key(*pair) for pair in pairs) == Counter(window)


def test_exclusion_table_matches_brute_force_oracle():
    # the oracle sweeps every shift pair; the table holds for all of them
    for t_range in range(7):
        for shift_range in range(5):
            assert exclusion_table(t_range) == (
                mirror_oracle.exclusion_table(t_range, shift_range)
            )


def test_report_calls_at_wide_window():
    t, s = report.MAX_T_RANGE, mirror.SHIFT_WINDOW
    assert search_mirror_pair(t, s) is None
    control = search_mirror_pair(t, s, target_forward={0: 2})
    assert control is not None and control.forward == ((0, 2),)
    assert search_mirror_pair(
        t, s, require_backward_zero=False, require_end_simple=False
    ) is None
    relaxed_self = search_mirror_pair(
        t, s, require_backward_zero=False, require_end_simple=False,
        allow_self_pairs=True,
    )
    assert relaxed_self is not None
    assert search_mirror_pair(2 * t, s + 2) is None
    assert all(r.verified for r in exclusion_table(t))


def test_euler_pairing_fails_on_an_off_by_one_ext(monkeypatch):
    def shifted_ext(x, y):
        hom, ext1 = ext_p1(x, y)
        return hom + 1, ext1

    monkeypatch.setattr(mirror, "ext_p1", shifted_ext)
    assert not mirror.euler_pairing_identity()


def test_euler_pairing_reaches_the_corner_pair(monkeypatch):
    span = 30

    def corner_off_by_one(x, y):
        hom, ext1 = ext_p1(x, y)
        return (hom + 1, ext1) if (x.t, y.t) == (-span, span) else (hom, ext1)

    monkeypatch.setattr(mirror, "ext_p1", corner_off_by_one)
    assert not mirror.euler_pairing_identity(span)
    assert mirror.euler_pairing_identity(span - 1)


@pytest.mark.parametrize("t_range", [0, 3, 10])
def test_exclusion_sweep_reaches_the_window_edges(monkeypatch, t_range):
    def two_degrees_at(planted):
        def ext(x, y):
            if isinstance(x, LineBundle) and isinstance(y, LineBundle) and y.t - x.t == planted:
                return 1, 1
            return ext_p1(x, y)
        return ext

    for edge, outside in ((-2 * t_range, -2 * t_range - 1), (2 * t_range, 2 * t_range + 1)):
        monkeypatch.setattr(mirror, "ext_p1", two_degrees_at(edge))
        assert not exclusion_table(t_range)[0].verified
        monkeypatch.setattr(mirror, "ext_p1", two_degrees_at(outside))
        assert exclusion_table(t_range)[0].verified


def test_work_does_not_grow_with_the_window(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return shifted_pattern(*args)

    monkeypatch.setattr(mirror, "shifted_pattern", counting)

    def work(fn, *window):
        calls.clear()
        fn(*window)
        return len(calls)

    small = work(search_mirror_pair, 10, 3)
    assert 0 < small == work(search_mirror_pair, report.MAX_T_RANGE, 10)
    for t_range in (0, 10, report.MAX_T_RANGE):
        # the 4t + 1 twist differences, two mixed pairs and two point-sheaf pairs
        assert work(exclusion_table, t_range) == 4 * t_range + 5


# the library predicate behind each row the registry's ext_p1 controls fail
ROW_PREDICATES = {
    "mirror.euler-pairing": lambda: euler_pairing_identity(span=30),
    "mirror.control-witness": lambda: getattr(
        search_mirror_pair(10, target_forward={0: 2}), "forward", None) == ((0, 2),),
    "mirror.exclusion-table": lambda: all(r.verified for r in exclusion_table(10)),
    "mirror.control-relaxed-distinct": lambda: search_mirror_pair(
        10, require_backward_zero=False, require_end_simple=False) is None,
}


@pytest.mark.parametrize("replacement", [_ext1_off_by_one, _line_bundle_to_point_in_two_degrees],
                         ids=["ext1-off-by-one", "line-bundle-to-point-two-degrees"])
def test_mirror_negative_controls(monkeypatch, replacement):
    # tests/test_negative_controls.py fails each row and the command
    rows = [row for row, controls in CONTROLS.items()
            if (mirror, "ext_p1", replacement) in controls]
    assert len(rows) == 2
    assert all(ROW_PREDICATES[row]() for row in rows)
    monkeypatch.setattr(mirror, "ext_p1", replacement)
    assert not any(ROW_PREDICATES[row]() for row in rows)
