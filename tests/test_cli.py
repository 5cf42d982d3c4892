"""Report assembly, JSON determinism, and the command line contract."""

import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from lgorbit import cli, report
from lgorbit.errors import PreconditionError
from lgorbit.report import CheckResult, Config, load_config, render_json, run

EXPECTED_ASSUMPTIONS = {
    "compactification.symplectic-patching",
    "mirror.cited-classification-inputs",
    "quiver.connecting-map-injectivity",
}


def test_full_run_passes(full_report):
    rep = full_report
    assert not rep.failed
    counts = rep.counts
    assert counts["fail"] == 0
    assert counts["assumption"] == 3
    assert sum(counts.values()) >= 55


def test_assumptions_are_exactly_the_named_three(full_report):
    rep = full_report
    got = {r.id for r in rep.results if r.status == "assumption"}
    assert got == EXPECTED_ASSUMPTIONS


def test_every_result_is_well_formed(full_report):
    rep = full_report
    ids = [r.id for r in rep.results]
    assert len(ids) == len(set(ids))
    for r in rep.results:
        assert r.status in ("pass", "fail", "assumption")
        assert r.anchor.startswith("claim:")
        assert r.detail


def test_tables_present_on_full_run(full_report):
    rep = full_report
    assert "fukaya_hom" in rep.tables
    assert "f2_ext" in rep.tables
    assert "singular_value_scan" in rep.tables
    assert rep.tables["fukaya_hom"]["hom(L0,L1)"] == {"0": 1, "1": 1}
    assert rep.tables["f2_ext"]["ext(O,O)"] == [1, 0, 0]
    scan = rep.tables["singular_value_scan"]
    assert all(row["agrees"] for row in scan)


def test_json_rendering_deterministic(full_report):
    a = render_json(full_report)
    b = render_json(run("all", Config()))
    assert a == b
    payload = json.loads(a)
    assert payload["schema"] == 1
    assert payload["suite"] == "all"


def test_single_suite_run():
    rep = run("lie", Config())
    assert all(r.id.startswith("lie.") for r in rep.results)
    assert not rep.failed


def test_unknown_suite_rejected():
    with pytest.raises(PreconditionError):
        run("algebra", Config())


def test_load_config_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 5, "t_range": 4}')
    cfg = load_config(str(path), {"seed": 9})
    assert cfg.seed == 9
    assert cfg.t_range == 4
    assert cfg.sphere_samples == 1000


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"speed": 5}')
    with pytest.raises(PreconditionError):
        load_config(str(path), {})


def test_load_config_rejects_wrong_type(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": "fast"}')
    with pytest.raises(PreconditionError):
        load_config(str(path), {})


def test_cli_exit_zero_and_output(capsys):
    assert cli.main(["lie"]) == 0
    out = capsys.readouterr().out
    assert "lie.critical-set" in out
    assert "0 failed" in out


def test_cli_writes_identical_json(tmp_path, capsys):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    assert cli.main(["all", "--json", str(f1)]) == 0
    assert cli.main(["all", "--json", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_cli_flag_overrides_reach_report(tmp_path, capsys):
    f = tmp_path / "r.json"
    assert cli.main(["mirror", "--seed", "3", "--t-range", "4", "--json", str(f)]) == 0
    capsys.readouterr()
    payload = json.loads(f.read_text())
    assert payload["config"]["seed"] == 3
    assert payload["config"]["t_range"] == 4


# one non-default command-line value per config key, and its JSON form
FLAG_VALUES = {
    "seed": ("3", 3),
    "float_tolerance": ("1e-6", 1e-6),
    "sphere_samples": ("10", 10),
    "thimble_grid": ("3x8", [3, 8]),
    "box_margin": ("2", 2),
    "t_range": ("4", 4),
    "shift_range": ("2", 2),
    "k_max": ("4", 4),
}


@pytest.mark.parametrize("key", [f.name for f in fields(Config)])
def test_every_config_flag_reaches_report(key, tmp_path, capsys):
    text, expected = FLAG_VALUES[key]
    f = tmp_path / "r.json"
    flag = "--" + key.replace("_", "-")
    assert cli.main(["quiver", flag, text, "--json", str(f)]) == 0
    capsys.readouterr()
    config = json.loads(f.read_text())["config"]
    assert config[key] == expected
    assert config[key] != json.loads(json.dumps(getattr(Config(), key)))


def test_readme_config_table_lists_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    keys = re.findall(r"^\| `(\w+)` ", readme, re.MULTILINE)
    assert keys == [f.name for f in fields(Config)]


def test_cli_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        cli.main(["algebra"])
    assert exc.value.code == 2


def test_cli_config_errors_exit_two(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    assert cli.main(["lie", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"speed": 1}')
    assert cli.main(["lie", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err


def test_cli_reports_failures_with_exit_one(monkeypatch, capsys):
    def failing_suite(cfg):
        rows = [CheckResult("lie.broken", "claim:control", "fail", "forced")]
        return rows, {}

    monkeypatch.setitem(report.SUITES, "lie", failing_suite)
    assert cli.main(["lie"]) == 1
    out = capsys.readouterr().out
    assert "1 failed" in out


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["all", "--seed", "0"], "verify_all.json"),
    (["mirror", "--t-range", "20"], "verify_mirror_t20.json"),
])
def test_report_matches_golden_bytes(tmp_path, capsys, argv, golden):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--json", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


BLOCK_NUMERICS = """\
import sys
sys.modules["numpy"] = None
sys.modules["scipy"] = None
from lgorbit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_report_needs_no_numpy_or_scipy(tmp_path):
    out = tmp_path / "report.json"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", BLOCK_NUMERICS, "all", "--seed", "0", "--json", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / "verify_all.json").read_bytes()


def test_huge_box_margin_finishes_quickly(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    results = []
    for margin in (1, 1000000):
        out = tmp_path / f"margin{margin}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "lgorbit", "sheaves", "--box-margin", str(margin),
             "--json", str(out)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(out.read_text())["results"])
    assert results[0] == results[1]


@pytest.mark.parametrize("config", [
    {"seed": True},
    {"t_range": False},
    {"float_tolerance": True},
    {"thimble_grid": [True, 3]},
])
def test_cli_rejects_bools_for_numbers(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert cli.main(["lie", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "config error" in captured.err


@pytest.mark.parametrize("text", ['{"float_tolerance": -1}', '{"float_tolerance": 0}',
                                  '{"float_tolerance": NaN}', '{"float_tolerance": Infinity}'])
def test_cli_rejects_bad_float_tolerance_in_file(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main(["symplectic", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "verify: config error: float_tolerance must be positive and finite\n"


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_cli_rejects_bad_float_tolerance_flag(capsys, value):
    assert cli.main(["symplectic", f"--float-tolerance={value}"]) == 2
    assert "float_tolerance" in capsys.readouterr().err


def test_cli_rejects_zero_shift_range(capsys):
    assert cli.main(["category", "--shift-range", "0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_smallest_shift_range_passes_shift_matching(capsys):
    assert cli.main(["category", "--shift-range", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS       category.shift-matching-sanity" in out


def test_failed_patching_support_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(report.geo, "sphere_avoids_base_locus", lambda: False)
    result = run("compactification", Config())
    row = {r.id: r for r in result.results}["compactification.symplectic-patching"]
    assert row.status == "fail"
    assert "supporting exact check FAILED" in row.detail
    assert result.failed
    assert cli.main(["compactification"]) == 1
    assert "FAIL       compactification.symplectic-patching" in capsys.readouterr().out


# each size bound, spelled as a flag, with its largest admitted value; quiver
# reads none of these sizes, so a run at the bound stays quick
SIZE_BOUNDS = [
    ("--sphere-samples", report.MAX_SPHERE_SAMPLES, "sphere_samples"),
    ("--t-range", report.MAX_T_RANGE, "t_range"),
    ("--shift-range", report.MAX_SHIFT_RANGE, "shift_range"),
    ("--k-max", report.MAX_K_MAX, "k_max"),
]


@pytest.mark.parametrize("flag, bound, key", SIZE_BOUNDS)
def test_size_bound_admits_the_bound_and_rejects_one_more(flag, bound, key, capsys):
    assert cli.main(["quiver", flag, str(bound)]) == 0
    capsys.readouterr()
    assert cli.main(["quiver", flag, str(bound + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verify: config error: {key} must be at most {bound}\n"
    assert getattr(load_config(None, {key: bound}), key) == bound
    with pytest.raises(PreconditionError):
        load_config(None, {key: bound + 1})


def test_thimble_cell_bound(tmp_path, capsys):
    cells = report.MAX_THIMBLE_CELLS
    assert load_config(None, {"thimble_grid": [cells, 1]}).thimble_grid == (cells, 1)
    assert cli.main(["quiver", "--thimble-grid", f"1x{cells}"]) == 0
    capsys.readouterr()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"thimble_grid": [cells + 1, 1]}))
    assert cli.main(["quiver", "--config", str(path)]) == 2
    assert cli.main(["quiver", "--thimble-grid", f"1x{cells + 1}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"verify: config error: thimble_grid must have at most {cells} cells\n"
    assert captured.err == message * 2


def test_size_bounds_admit_the_benchmark_workloads():
    cfg = load_config(None, {"sphere_samples": 20000, "thimble_grid": [33, 256],
                             "t_range": 1000})
    assert cfg.sphere_samples == 20000 and cfg.t_range == 1000
