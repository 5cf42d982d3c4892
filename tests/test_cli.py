"""Report assembly, JSON determinism, and the command line contract."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgorbit import cli, report
from lgorbit.errors import PreconditionError
from lgorbit.report import CheckResult, Config, load_config, render_json, run
from negative_controls import (
    _backward_hom,
    _box_one_character_short,
    _degree_one_lost,
    _every_surface_degree_two,
    _flipped_commutator,
    _unexpected_self_ext,
)
from test_hygiene import SUITE_LAYERS, closure

EXPECTED_ASSUMPTIONS = {
    "compactification.symplectic-patching",
    "mirror.cited-classification-inputs",
}


def test_full_run_passes(full_report):
    rep = full_report
    assert not rep.failed
    counts = rep.counts
    assert counts["fail"] == 0
    assert counts["assumption"] == 2
    assert sum(counts.values()) >= 55


def test_assumptions_are_exactly_the_named_ones(full_report):
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
    assert rep.tables["fukaya_hom"]["hom(L0,L1)"] == {"0": 1, "1": 1}
    assert rep.tables["f2_ext"]["ext(O,O)"] == [1, 0, 0]


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


def test_load_config_overrides():
    # a flag left unset arrives as None and keeps the default
    cfg = load_config({"seed": 9, "box_margin": None, "t_range": 4})
    assert cfg == Config(seed=9, t_range=4)
    assert cfg.box_margin == Config().box_margin


def test_load_config_rejects_unknown_key():
    # the parser offers only Config's fields, and load_config takes no other key
    with pytest.raises(TypeError):
        load_config({"speed": 5})


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
    "box_margin": ("2", 2),
    "t_range": ("4", 4),
}


@pytest.mark.parametrize("key", Config._fields)
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
    assert keys == list(Config._fields)
    # the CLI section's sentence that spells out the flags lists exactly these
    sentence = re.search(r"spelled with\s+hyphens: (.*?)\. ", readme, re.DOTALL).group(1)
    flags = re.findall(r"`(--[\w-]+)`", sentence)
    assert flags == ["--" + key.replace("_", "-") for key in Config._fields]


def test_cli_rejects_unknown_suite(capsys):
    assert cli.main(["algebra"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("verify: usage error: ") and err.count("\n") == 1


def test_cli_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: verify" in capsys.readouterr().out


def test_cli_config_errors_exit_two(capsys):
    # flags of the right type whose values load_config rejects
    assert cli.main(["lie", "--t-range", "0"]) == 2
    assert cli.main(["lie", "--box-margin", "-1", "--t-range", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "verify: config error: t_range must be at least 1\n"
        "verify: config error: box_margin must be at least 0\n"
    )


@pytest.mark.parametrize("argv, rejected", [
    (["--config", "x.json"], "--config x.json"),
    (["--sphere-samples", "10"], "--sphere-samples 10"),
])
def test_config_file_and_sphere_samples_are_gone(argv, rejected, capsys):
    # flags are the only input, and the sampler runs at the library default
    assert cli.main(["symplectic", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verify: usage error: unrecognized arguments: {rejected}\n"


def test_closed_stdout_exits_two_without_a_traceback():
    # the reader of the pipe is gone before the report is written, as in `verify lie | true`
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "lgorbit", "lie"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 2
    assert err.startswith("verify: cannot write output: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
    (["all", "--seed", "7919"], "verify_all_s7919.json"),
    (["sheaves", "--box-margin", "8"], "verify_sheaves_m8.json"),
])
def test_report_matches_golden_bytes(tmp_path, capsys, argv, golden):
    out = tmp_path / "report.json"
    assert cli.main(argv + ["--json", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


# the rows whose checks still draw samples from the seed
SEEDED_ROWS = {"symplectic.taming"}


def test_goldens_at_two_seeds_differ_only_in_the_seeded_rows():
    a, b = (json.loads((GOLDEN / name).read_text(encoding="utf-8"))
            for name in ("verify_all.json", "verify_all_s7919.json"))
    assert (a["config"].pop("seed"), b["config"].pop("seed")) == (0, 7919)
    rows_a, rows_b = ({row["id"]: row for row in p.pop("results")} for p in (a, b))
    assert a == b  # config, summary, tables and the rest
    assert list(rows_a) == list(rows_b)
    assert {key for key in rows_a if rows_a[key] != rows_b[key]} <= SEEDED_ROWS


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


@pytest.mark.parametrize("minor", range(10, 14))
def test_other_interpreters_write_the_same_goldens(tmp_path, minor):
    # pyproject.toml allows Python 3.10 and later; float sum() changed in 3.12
    path = shutil.which(f"python3.{minor}")
    if minor == sys.version_info.minor or path is None:
        pytest.skip(f"python3.{minor} is this interpreter or not on PATH")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]),
               PYTHONDONTWRITEBYTECODE="1")
    if subprocess.run([path, "-c", "pass"], env=env, capture_output=True,
                      timeout=60).returncode != 0:
        pytest.skip(f"python3.{minor} does not start")
    for seed, golden in ((0, "verify_all.json"), (7919, "verify_all_s7919.json")):
        out = tmp_path / golden
        proc = subprocess.run(
            [path, "-m", "lgorbit", "all", "--seed", str(seed), "--json", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (GOLDEN / golden).read_bytes(), golden


# the lgorbit modules a run loads, and the standard modules it must not add:
# dataclasses and inspect cost a start-up that records built as NamedTuples
# do not need
LOADED_MODULES = """\
import io, json, sys
from contextlib import redirect_stdout
if sys.argv[1] == "import":
    __import__(sys.argv[2])
elif sys.argv[1] != "bare":
    from lgorbit.cli import main
    with redirect_stdout(io.StringIO()):
        main(sys.argv[1:])
watched = {"dataclasses", "inspect"}
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "lgorbit" or m in watched)))
"""

CLI_MODULES = {"lgorbit", "lgorbit.cli", "lgorbit.report", "lgorbit.errors"}


def _suite_modules(*suites):
    """What `verify` loads for these suites: the CLI's modules and the closure
    of each suite's declared layers under the declared import table."""
    return CLI_MODULES | {f"lgorbit.{module}" for suite in suites
                          for module in closure(SUITE_LAYERS[suite])}


def _loaded_modules(*argv):
    # a fresh interpreter, so no module is loaded by another test first
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def bare_modules():
    """The watched modules a bare interpreter already holds (site may load some)."""
    return _loaded_modules("bare")


RUNS = ("mirror", "sheaves", "category", "all", "lie", "symplectic", "quiver", "compactification")


@pytest.mark.parametrize("argv, expected", [
    (["import", "lgorbit"], {"lgorbit"}),
    (["import", "lgorbit.cli"], CLI_MODULES),
    *(([suite], _suite_modules(*(SUITE_LAYERS if suite == "all" else [suite]))) for suite in RUNS),
], ids=["import-lgorbit", "import-cli", *RUNS])
def test_a_run_loads_only_the_modules_its_suite_calls(argv, expected, bare_modules):
    assert _loaded_modules(*argv) == expected | bare_modules


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


def test_mirror_runs_at_the_largest_window(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = tmp_path / "mirror.json"
    proc = subprocess.run(
        [sys.executable, "-m", "lgorbit", "mirror",
         "--t-range", str(report.MAX_T_RANGE), "--json", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(out.read_text())["results"]) == 9


# each a flag and a boolean spelling of its value
@pytest.mark.parametrize("config", [
    ("--seed", "true"),
    ("--t-range", "false"),
    ("--box-margin", "True"),
    ("--seed", "False"),
])
def test_cli_rejects_bools_for_numbers(capsys, config):
    flag, text = config
    assert cli.main(["lie", flag, text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verify: usage error: argument {flag}: invalid int value: '{text}'\n"


# The float bound is pinned in the code (symplectic.FLOAT_TOL); an old config
# file or command line that still sets float_tolerance is rejected, whatever
# the value.  No file is read: --config itself is an unknown flag.
@pytest.mark.parametrize("text", ['{"float_tolerance": -1}', '{"float_tolerance": 0}',
                                  '{"float_tolerance": NaN}', '{"float_tolerance": Infinity}',
                                  '{"float_tolerance": 1e-09}'])
def test_cli_rejects_bad_float_tolerance_in_file(tmp_path, capsys, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main(["symplectic", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verify: usage error: unrecognized arguments: --config {path}\n"


@pytest.mark.parametrize("value", ["-1", "nan", "inf", "1e3"])
def test_cli_rejects_bad_float_tolerance_flag(capsys, value):
    assert cli.main(["symplectic", f"--float-tolerance={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"verify: usage error: unrecognized arguments: --float-tolerance={value}\n"
    )


def test_k_max_is_gone(capsys):
    # every arity is certified, so no flag bounds the arity any more
    assert cli.main(["category", "--k-max", "6"]) == 2
    assert capsys.readouterr().err == (
        "verify: usage error: unrecognized arguments: --k-max 6\n"
    )


def test_sheaves_suite_computes_each_cohomology_once(monkeypatch):
    # computations are misses of toric's cache; arguments are those passed in
    from lgorbit import toric

    exact = toric.cohomology_dims
    arguments = set()

    def recorded(fan, d, box_margin=1):
        arguments.add((fan.a, d.coeffs, box_margin))
        return exact(fan, d, box_margin)

    monkeypatch.setattr(toric, "cohomology_dims", recorded)
    for suite in ("sheaves", "all"):
        arguments.clear()
        toric._cohomology.cache_clear()
        assert not run(suite, Config()).failed
        assert toric._cohomology.cache_info().misses == len(arguments) == 387


def test_shift_range_is_gone(capsys):
    # the mirror search's shift window is the constant mirror.SHIFT_WINDOW
    assert cli.main(["mirror", "--shift-range", "3"]) == 2
    assert capsys.readouterr().err == (
        "verify: usage error: unrecognized arguments: --shift-range 3\n"
    )


# each key's first value below its domain, and the one line that rejects it
@pytest.mark.parametrize("flag, value, message", [
    ("--box-margin", "-1", "box_margin must be at least 0"),
    ("--t-range", "0", "t_range must be at least 1"),
])
def test_range_error_names_the_key(flag, value, message, capsys):
    assert cli.main(["quiver", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verify: config error: {message}\n"


def test_failed_patching_support_fails_the_run(monkeypatch, capsys):
    # z = p - iq in the sphere embedding takes the sphere off the orbit
    monkeypatch.setattr(
        "lgorbit.compactification.sphere_embedding", lambda p, q, r, i: (r, -p + i * q, p - i * q)
    )
    result = run("compactification", Config())
    row = {r.id: r for r in result.results}["compactification.symplectic-patching"]
    assert row.status == "fail"
    assert "supporting exact check FAILED" in row.detail
    assert result.failed
    assert cli.main(["compactification"]) == 1
    assert "FAIL       compactification.symplectic-patching" in capsys.readouterr().out


def test_flipped_commutator_fails_the_sampled_sphere_row(monkeypatch):
    # the exact frame row fails at its first identity, while the pairing and
    # taming rows still pass
    from lgorbit import poly, symplectic

    monkeypatch.setattr(symplectic, "commutator_triple", _flipped_commutator)
    assert poly.certify(symplectic.sphere_frame_identities) == 0
    result = run("symplectic", Config())
    status = {r.id: r.status for r in result.results}
    assert status["symplectic.sphere-tangent-frame"] == "fail" and result.failed
    assert status["symplectic.sphere-lagrangian-exact"] == status["symplectic.taming"] == "pass"
    assert cli.main(["symplectic"]) == 1


@given(seed=st.integers(-10**6, 10**9))
@settings(max_examples=25, deadline=None)
def test_flipped_commutator_fails_the_sampled_sphere_row_at_every_config(seed):
    # no config key reaches the exact row
    from lgorbit import symplectic

    cfg = load_config({"seed": seed})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symplectic, "commutator_triple", _flipped_commutator)
        rows = {r.id: r for r in run("symplectic", cfg).results}
    row = rows["symplectic.sphere-tangent-frame"]
    assert row.status == "fail" and row.residual is None


def _f2_row(monkeypatch, ext_dims):
    from lgorbit import toric

    monkeypatch.setattr(toric, "ext_dims", ext_dims)
    row = {r.id: r for r in run("category", Config()).results}["category.f2-ext-equivalence"]
    return row.status


def test_wrong_ext_triple_fails_the_f2_row(monkeypatch):
    assert _f2_row(monkeypatch, _degree_one_lost) == "fail"


@pytest.mark.parametrize("wrong", ["degree-one-lost", "backward-hom", "self-ext"])
def test_wrong_ext_table_fails_the_rank_chase(monkeypatch, wrong):
    # a wrong table no longer matches the thimbles, so the transport step raises
    from lgorbit import toric

    patched = {"degree-one-lost": _degree_one_lost, "backward-hom": _backward_hom,
               "self-ext": _unexpected_self_ext}[wrong]
    monkeypatch.setattr(toric, "ext_dims", patched)
    row = {r.id: r for r in run("quiver", Config()).results}["quiver.tilting-rank-chase"]
    assert row.status == "fail"
    assert row.detail.startswith("raised DiagnosticError: the thimble hom table differs")


def test_box_one_character_short_fails_box_stability(monkeypatch):
    from lgorbit import toric

    monkeypatch.setattr(toric, "_box_sum", _box_one_character_short)
    toric._cohomology.cache_clear()
    try:
        rows = {r.id: r for r in run("sheaves", Config()).results}
    finally:
        toric._cohomology.cache_clear()
    assert rows["sheaves.box-stability"].status == "fail"


def test_f2_row_fails_when_a_control_matches(monkeypatch):
    assert _f2_row(monkeypatch, _every_surface_degree_two) == "fail"


# each size bound, spelled as a flag, with its largest admitted value; quiver
# reads none of these sizes, so a run at the bound stays quick
SIZE_BOUNDS = [
    ("--t-range", report.MAX_T_RANGE, "t_range"),
]


@pytest.mark.parametrize("flag, bound, key", SIZE_BOUNDS)
def test_size_bound_admits_the_bound_and_rejects_one_more(flag, bound, key, capsys):
    assert cli.main(["quiver", flag, str(bound)]) == 0
    capsys.readouterr()
    assert cli.main(["quiver", flag, str(bound + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"verify: config error: {key} must be at most {bound}\n"
    assert getattr(load_config({key: bound}), key) == bound
    with pytest.raises(PreconditionError):
        load_config({key: bound + 1})


def test_thimble_grid_is_no_longer_a_key(capsys):
    # the thimble rows are identities, so no grid size selects anything
    assert cli.main(["symplectic", "--thimble-grid", "9x64"]) == 2
    assert capsys.readouterr().err == (
        "verify: usage error: unrecognized arguments: --thimble-grid 9x64\n"
    )


def test_size_bounds_admit_the_benchmark_workloads():
    cfg = load_config({"t_range": 1000})
    assert cfg.t_range == 1000
