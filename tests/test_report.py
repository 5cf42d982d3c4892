"""The declared checks and the runner that evaluates them."""

import json
import sys
from pathlib import Path

from lgorbit import cli, lie, quiver, report, symplectic
from lgorbit.errors import DiagnosticError
from lgorbit.report import Config, run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "verify_all.json"
sys.path.insert(0, str(ROOT / "perfbench"))

from gate import WORKLOADS  # noqa: E402

DECLARED = [(check.id, check.anchor) for name in sorted(report.CHECKS)
            for check in report.CHECKS[name]]


def _golden_rows():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["results"]


def test_declarations_are_pinned_without_running_a_check():
    ids = [check_id for check_id, _ in DECLARED]
    assert len(ids) == len(set(ids))
    assert all(report.CHECKS[check.id.split(".")[0]] is checks
               for checks in report.CHECKS.values() for check in checks)
    assert sorted(report.CHECKS) == sorted(report.SUITES)
    assert DECLARED == [(row["id"], row["anchor"]) for row in _golden_rows()]
    # the row counts perfbench/gate.py pins for the gated workloads
    assert len(DECLARED) == WORKLOADS["certify-default"].checks == 63
    assert len(report.CHECKS["mirror"]) == WORKLOADS["mirror-wide"].checks == 9
    assert len(report.CHECKS["sheaves"]) == WORKLOADS["sheaves-wide"].checks == 10


def _raises(exc):
    def raising(*args, **kwargs):
        raise exc
    return raising


def test_a_raising_check_fails_its_row_only(monkeypatch, capsys):
    monkeypatch.setattr(lie, "hessian_determinant", _raises(ZeroDivisionError("division by zero")))
    rows = run("all", Config()).results
    failed = [r for r in rows if r.status == "fail"]
    assert [(r.id, r.detail, r.residual) for r in failed] == [
        ("lie.hessian-nondegenerate", "raised ZeroDivisionError: division by zero", None)
    ]
    golden = {row["id"]: row["status"] for row in _golden_rows()}
    assert {r.id: r.status for r in rows if r.status != "fail"} == {
        key: status for key, status in golden.items() if key != "lie.hessian-nondegenerate"
    }
    assert cli.main(["all"]) == 1
    out = capsys.readouterr().out
    assert "FAIL       lie.hessian-nondegenerate\n" in out
    assert out.endswith("60 passed, 1 failed, 2 recorded assumptions\n")


def test_a_diagnostic_error_takes_the_same_path(monkeypatch):
    monkeypatch.setattr(quiver, "end_algebra_dims_tilting",
                        _raises(DiagnosticError("the tables differ")))
    row = {r.id: r for r in run("quiver", Config()).results}["quiver.tilting-rank-chase"]
    assert (row.status, row.detail) == ("fail", "raised DiagnosticError: the tables differ")


def test_raising_shared_inputs_fail_every_row_of_their_suite_only(monkeypatch):
    monkeypatch.setattr(symplectic, "check_sphere_lagrangian", _raises(ValueError("no samples")))
    rows = run("all", Config()).results
    failed = {r.id for r in rows if r.status == "fail"}
    assert failed == {check.id for check in report.CHECKS["symplectic"]}
    assert {r.detail for r in rows if r.id in failed} == {"raised ValueError: no samples"}
    golden = {row["id"]: row["status"] for row in _golden_rows()}
    assert all(golden[r.id] == r.status for r in rows if r.id not in failed)
