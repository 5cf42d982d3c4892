"""The workloads and the correctness gate applied to every operation."""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional, Tuple


class Workload(NamedTuple):
    argv: Tuple[str, ...]  # arguments of `verify`, without --seed and --json
    checks: int            # rows in the report at the commit that defined the benchmark


WORKLOADS: Dict[str, Workload] = {
    "certify-default": Workload(("all",), 63),
    "mirror-wide": Workload(("mirror", "--t-range", "20"), 9),
    "sheaves-wide": Workload(("sheaves", "--box-margin", "8"), 10),
    "sampling-dense": Workload(
        ("symplectic", "--sphere-samples", "10000", "--thimble-grid", "33x256"), 7),
}


def report_problems(
    workload: Workload, seed: int, exit_code: int, text: Optional[str],
    reference: Optional[str] = None,
) -> List[str]:
    """Why one operation's `--json` report is wrong; empty when it is correct.

    ``reference`` is an earlier report of the same workload and seed, which
    this one must equal byte for byte.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if text is None:
        return problems + ["no report written"]
    try:
        report = json.loads(text)
        rows = report["results"]
        statuses = [row["status"] for row in rows]
        seed_used = report["config"]["seed"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"malformed report: {exc!r}"]
    failed = [row.get("id") for row in rows if row["status"] == "fail"]
    if failed:
        problems.append(f"failed checks {failed}")
    if any(status not in ("pass", "fail", "assumption") for status in statuses):
        problems.append("unknown row status")
    if len(rows) != workload.checks:
        problems.append(f"{len(rows)} checks, expected {workload.checks}")
    if seed_used != seed:
        problems.append(f"report seed {seed_used}, expected {seed}")
    if reference is not None and text != reference:
        problems.append("report differs from an earlier report of the same seed")
    return problems
