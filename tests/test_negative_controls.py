"""Every negative control fails its row and the command; every PASS row has one
or is pending."""

import json
from pathlib import Path

import pytest

from lgorbit import cli, poly, report, toric
from lgorbit import compactification as cg
from lgorbit.report import Config, run
from negative_controls import CONTROLS, PENDING, WRONG_CHART

GOLDEN = Path(__file__).parent / "golden" / "verify_all.json"

CASES = [
    pytest.param(row, owner, name, replacement,
                 id=f"{row}:{getattr(replacement, '__name__', name).strip('_<>')}")
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
    assert len(PENDING) == len(set(PENDING)) <= 10  # the list may only shrink
    assert (len(passing), len(set(passing) & set(CONTROLS))) == (61, 51)


def test_every_pass_row_with_a_control_has_one_that_fails_its_verdict(monkeypatch):
    # a control that raises shows only that a crash fails the row; each PASS row
    # with a control also has one that its verdict catches
    by_verdict = set()
    for row, controls in CONTROLS.items():
        for owner, name, replacement in controls:
            with monkeypatch.context() as patch:
                patch.setattr(owner, name, replacement)
                toric._cohomology.cache_clear()
                try:
                    result = {r.id: r for r in run(row.split(".")[0], Config()).results}[row]
                finally:
                    toric._cohomology.cache_clear()
            if result.status == "fail" and not result.detail.startswith("raised "):
                by_verdict.add(row)
    passing = {row["id"] for row in json.loads(GOLDEN.read_text(encoding="utf-8"))["results"]
               if row["status"] == "pass"}
    assert passing & set(CONTROLS) <= by_verdict


@pytest.mark.parametrize("row", ["compactification.graph-smooth", "sheaves.hypersurface-model"])
def test_a_wrong_chart_cofactor_is_reported_at_its_chart(monkeypatch, row):
    (owner, name, charts), = CONTROLS[row]
    certify = poly.certify

    def reports():
        # what each poly.certify call of the suite returns, in order
        seen = []
        monkeypatch.setattr(poly, "certify", lambda ids: seen.append(certify(ids)) or seen[-1])
        status = {r.id: r.status for r in run(row.split(".")[0], Config()).results}
        monkeypatch.setattr(poly, "certify", certify)
        return status[row], seen

    clean_status, clean = reports()
    monkeypatch.setattr(owner, name, charts)
    status, corrupted = reports()
    assert (clean_status, status) == ("pass", "fail")
    assert [b for a, b in zip(clean, corrupted) if a != b] == [WRONG_CHART]


def test_a_certificate_with_no_identity_fails_its_row(monkeypatch, capsys):
    # an empty certificate certifies nothing, so poly.certify raises and the row fails
    monkeypatch.setattr(cg, "extension_on_orbit_identities", lambda x, y, z, w: [])
    rows = {r.id: r for r in run("compactification", Config()).results}
    row = rows["compactification.extension-on-orbit"]
    assert row.status == "fail"
    assert row.detail == "raised DiagnosticError: the certificate lists no identity"
    assert cli.main(["compactification"]) == 1
    capsys.readouterr()
