"""The correctness gate counts a doctored report as a failed operation."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from gate import WORKLOADS, report_problems  # noqa: E402
from run import Operations  # noqa: E402

WORKLOAD = WORKLOADS["mirror-wide"]


def good_report(seed=0, rows=WORKLOAD.checks):
    results = [{"id": f"mirror.check-{i}", "anchor": "a", "detail": "d",
                "residual": None, "status": "pass"} for i in range(rows - 1)]
    results.append({"id": "mirror.assumed", "anchor": "a", "detail": "d",
                    "residual": None, "status": "assumption"})
    return {"schema": 1, "suite": "mirror", "config": {"seed": seed},
            "summary": {}, "results": results, "tables": {}}


def text(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_correct_report_passes():
    assert report_problems(WORKLOAD, 0, 0, text(good_report())) == []


def test_injected_fail_row_fails():
    report = good_report()
    report["results"][0]["status"] = "fail"
    assert any("failed checks" in p for p in report_problems(WORKLOAD, 0, 0, text(report)))


def test_wrong_check_count_fails():
    problems = report_problems(WORKLOAD, 0, 0, text(good_report(rows=WORKLOAD.checks - 1)))
    assert problems == [f"{WORKLOAD.checks - 1} checks, expected {WORKLOAD.checks}"]


def test_exit_code_missing_report_and_wrong_seed_fail():
    assert report_problems(WORKLOAD, 0, 1, text(good_report())) == ["exit code 1"]
    assert report_problems(WORKLOAD, 0, 0, None) == ["no report written"]
    assert report_problems(WORKLOAD, 0, 0, "{") != []
    assert report_problems(WORKLOAD, 3, 0, text(good_report(seed=0))) != []


def test_report_must_repeat_byte_for_byte():
    reference = text(good_report())
    assert report_problems(WORKLOAD, 0, 0, reference, reference) == []
    assert report_problems(WORKLOAD, 0, 0, reference.replace("\n", "\r\n"), reference) != []


def test_doctored_report_counts_as_failed_operation_as_failed(tmp_path):
    ops = Operations()
    path = tmp_path / "report.json"
    path.write_text(text(good_report()), encoding="utf-8")
    ops.check(WORKLOAD, 0, 0, path)
    doctored = good_report()
    doctored["results"][3]["status"] = "fail"
    path.write_text(text(doctored), encoding="utf-8")
    ops.check(WORKLOAD, 0, 0, path)
    assert (ops.attempted, ops.failed) == (2, 1)
