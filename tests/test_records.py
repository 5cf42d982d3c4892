"""The library's records are immutable NamedTuples with the old reprs and hashes.

Reports print reprs and iterate over sets and dicts keyed by records, so a
record's repr and hash (the hash of its field tuple) must stay as they were
when the records were frozen dataclasses.
"""

from fractions import Fraction

import pytest

from lgorbit import compactification, fukaya, lie, mirror, quiver, report, symplectic, toric
from lgorbit.errors import StructureError


def _records():
    """One instance of every record type of the library."""
    check = report.CheckResult("i", "a", "pass", "d")
    return [
        report.Config(),
        check,
        report.Check("i", "a", len),
        report.Report(1, "mirror", {}, (check,), {}),
        symplectic.check_sphere_lagrangian(5),
        mirror.search_mirror_pair(2, 1, target_forward={0: 2}),
        mirror.exclusion_table(1)[0],
        mirror.LineBundle(3),
        mirror.Skyscraper("p"),
        toric.HirzebruchFan(2),
        toric.PicClass(1, -2),
        toric.ToricDivisor((1, 0, 0, -1)),
        toric.CohDims(1, 0, 0),
        fukaya.GradedModule([("x0", 0), ("x1", 1)]),
        fukaya.ProductEntry(("x0",), "x1"),
        fukaya.morse_circle_floer(),
        quiver.Arrow("a", "v0", "v1"),
        quiver.Path("v0", "v1", ("a",)),
        quiver.path_basis(quiver.ordinary_quiver()),
        quiver.les_chase((1, 0, 0, 0, 0, 1)),
        quiver.end_algebra_dims_tilting(),
        compactification.critical_data(),
        lie.CartanDiagonal((1, -1)),
    ]


RECORDS = _records()


def test_every_record_type_is_listed():
    assert len({type(r) for r in RECORDS}) == len(RECORDS) == 23


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):  # no instance dict to take new names
        record.extra = None


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_hash_is_the_hash_of_its_fields(record):
    fields = tuple(getattr(record, k) for k in record._fields)
    try:
        expected = hash(fields)
    except TypeError:  # a field holds a dict or another unhashable value
        with pytest.raises(TypeError):
            hash(record)
        return
    assert hash(record) == expected


@pytest.mark.parametrize("record, text", [
    (mirror.LineBundle(3), "LineBundle(t=3)"),
    (mirror.Skyscraper("p"), "Skyscraper(point='p')"),
    (toric.PicClass(1, -2), "PicClass(p=1, q=-2)"),
    (toric.HirzebruchFan(2), "HirzebruchFan(a=2)"),
    (toric.ToricDivisor((1, 0, 0, -1)), "ToricDivisor(coeffs=(1, 0, 0, -1))"),
    (toric.CohDims(1, 0, 0), "CohDims(h0=1, h1=0, h2=0)"),
    (lie.CartanDiagonal((1, -1)), "CartanDiagonal(diag=(Fraction(1, 1), Fraction(-1, 1)))"),
    (fukaya.GradedModule([("x0", 0), ("x1", 1)]),
     "GradedModule(basis=(('x0', 0), ('x1', 1)))"),
    (fukaya.ProductEntry(("x0",), "x1"), "ProductEntry(inputs=('x0',), output='x1', coeff=1)"),
    (quiver.Path("v0", "v1", ("a",)), "Path(source='v0', target='v1', arrows=('a',))"),
    (quiver.Arrow("a", "v0", "v1"), "Arrow(name='a', source='v0', target='v1', degree=0)"),
    (report.Config(), "Config(seed=0, sphere_samples=1000, box_margin=1, t_range=10)"),
    (report.CheckResult("i", "a", "pass", "d"),
     "CheckResult(id='i', anchor='a', status='pass', detail='d', residual=None)"),
])
def test_record_reprs_are_unchanged(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("build", [
    lambda: toric.HirzebruchFan(-1),
    lambda: toric.HirzebruchFan(1.5),
    lambda: toric.ToricDivisor((1, 0, 0)),
    lambda: toric.ToricDivisor((1, 0, 0, 0.5)),
    lambda: toric.CohDims(1, -1, 0),
    lambda: fukaya.GradedModule([("x", 0), ("x", 1)]),
    lambda: lie.CartanDiagonal((1,)),
    lambda: lie.CartanDiagonal((1, 1)),
], ids=["fan-negative", "fan-float", "divisor-three", "divisor-float", "cohdims-negative",
        "module-repeated-name", "cartan-1x1", "cartan-trace"])
def test_validating_records_reject_bad_fields(build):
    with pytest.raises(StructureError):
        build()


def test_validating_records_normalise_their_fields():
    assert lie.CartanDiagonal([1, -1]).diag == (Fraction(1), Fraction(-1))
    assert fukaya.GradedModule([["x", "0"]]).basis == (("x", 0),)


def test_pic_class_arithmetic():
    c, d = toric.PicClass(1, -2), toric.PicClass(3, 5)
    assert c + d == toric.PicClass(4, 3) and type(c + d) is toric.PicClass
    assert c - d == toric.PicClass(-2, -7) and type(c - d) is toric.PicClass
    assert -c == toric.PicClass(-1, 2) and type(-c) is toric.PicClass


def test_records_of_different_kinds_differ():
    assert mirror.LineBundle(0) != mirror.Skyscraper("p")
    assert len({mirror.LineBundle(0), mirror.Skyscraper("p"), mirror.LineBundle(0)}) == 2


def test_every_config_key_has_a_default():
    # load_config builds Config from only the keys a run sets, so every field needs a default
    assert tuple(report.Config._field_defaults) == report.Config._fields
