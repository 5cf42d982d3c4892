"""Every negative control fails its row and the command; every PASS row has one
or is pending."""

import json
from pathlib import Path

import pytest

from lgorbit import cli, report, toric
from lgorbit.report import Config, run
from negative_controls import CONTROLS, PENDING

GOLDEN = Path(__file__).parent / "golden" / "verify_all.json"

CASES = [
    pytest.param(row, owner, name, replacement,
                 id=f"{row}:{replacement.__name__.strip('_<>')}")
    for row, controls in CONTROLS.items()
    for owner, name, replacement in controls
]


@pytest.mark.parametrize("row, owner, name, replacement", CASES)
def test_control_fails_its_row_and_the_command(monkeypatch, capsys, row, owner, name,
                                               replacement):
    suite = row.split(".")[0]
    monkeypatch.setattr(owner, name, replacement)
    toric._cohomology.cache_clear()  # no class summed by a patched toric stays cached
    try:
        status = {r.id: r.status for r in run(suite, Config()).results}
        assert status[row] == "fail"
        assert cli.main([suite]) == 1
    finally:
        toric._cohomology.cache_clear()
    assert ["FAIL", row] in [line.split()[:2] for line in capsys.readouterr().out.splitlines()]


def test_every_pass_row_has_a_control_or_is_pending():
    declared = [check.id for checks in report.CHECKS.values() for check in checks]
    passing = [row["id"] for row in json.loads(GOLDEN.read_text(encoding="utf-8"))["results"]
               if row["status"] == "pass"]
    assert set(CONTROLS) <= set(declared)
    assert set(PENDING) <= set(passing)
    assert set(PENDING).isdisjoint(CONTROLS)  # a row leaves PENDING once it has a control
    assert set(passing) - set(CONTROLS) == set(PENDING)
    assert len(PENDING) == len(set(PENDING)) <= 35  # the list may only shrink
    assert (len(passing), len(set(passing) & set(CONTROLS))) == (60, 25)
