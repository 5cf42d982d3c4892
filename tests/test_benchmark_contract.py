"""Each benchmarked workload still runs and passes the benchmark's gate.

The gate in ``perfbench/gate.py`` fixes each workload's arguments and row
count; a renamed flag or a changed number of checks fails here, not only
when the benchmark runs.  Every workload's arguments, the unbenchmarked ones
too, must also still parse and load as a config.
"""

import json
import sys
from pathlib import Path

import pytest

from lgorbit import cli
from lgorbit.report import Config, load_config

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from gate import WORKLOADS, report_problems  # noqa: E402

BENCHMARKED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", BENCHMARKED)
def test_benchmarked_workload_passes_the_gate(name, tmp_path, capsys):
    workload = WORKLOADS[name]
    out = tmp_path / "report.json"
    code = cli.main([*workload.argv, "--seed", "0", "--json", str(out)])
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    assert code == 0
    assert len(json.loads(text)["results"]) == workload.checks
    assert report_problems(workload, 0, code, text) == []


# Unbenchmarked workloads whose arguments still name a deleted flag.  The
# workloads live under perfbench/, which changes only in a benchmark change,
# so each waits for one.  This list may only shrink: the second test fails
# once a listed workload parses again.
STALE_WORKLOADS = {
    # --thimble-grid went with the float thimble grid; ROADMAP item 1 re-bases
    # the workload on --sphere-samples
    "sampling-dense",
}


@pytest.mark.parametrize("name", sorted(set(WORKLOADS) - STALE_WORKLOADS))
def test_every_workload_parses_and_loads(name):
    args = cli.build_parser().parse_args([*WORKLOADS[name].argv, "--seed", "0"])
    load_config(None, {key: getattr(args, key) for key in Config._fields})


@pytest.mark.parametrize("name", sorted(STALE_WORKLOADS))
def test_stale_workload_still_names_a_deleted_flag(name, capsys):
    assert name in WORKLOADS and name not in BENCHMARKED
    assert cli.main([*WORKLOADS[name].argv, "--seed", "0"]) == 2
    assert capsys.readouterr().err.startswith("verify: usage error: unrecognized arguments: ")
