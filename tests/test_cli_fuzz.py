"""Property tests over the configuration space of `verify`.

The cheap suites run in-process: lie, quiver, sheaves, category and mirror
(t_range <= 20).  The sampling suites, symplectic and
compactification, run in a child process that the test kills after
``RUN_CAP_S`` seconds; their draws stay small (sphere_samples <= 2000, a
thimble grid of at most 40 x 40), so a run takes well under a second.  No
drawn value comes near a ``report.MAX_*`` bound; the bounds themselves are
tested in ``test_cli.py``.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lgorbit import cli
from lgorbit.report import Config

SUITES = ["category", "lie", "mirror", "quiver", "sheaves"]
SAMPLING_SUITES = ["compactification", "symplectic"]
RUN_CAP_S = 30.0

VALID = {
    "seed": st.integers(-10**6, 10**9),
    "sphere_samples": st.integers(1, 2000),
    "thimble_grid": st.tuples(st.integers(1, 40), st.integers(1, 40)),
    "box_margin": st.integers(0, 30),
    "t_range": st.integers(1, 20),
}

# values of the right type outside each key's domain (seed has no such value)
OUT_OF_DOMAIN = {
    "sphere_samples": st.integers(-10**6, 0),
    "thimble_grid": st.tuples(st.integers(-5, 0), st.integers(1, 5))
    | st.tuples(st.integers(1, 5), st.integers(-5, 0)),
    "box_margin": st.integers(-10**6, -1),
    "t_range": st.integers(-10**6, 0),
}

# JSON values of the wrong type for each key, as they may appear in --config
WRONG_JSON = {
    key: st.sampled_from([True, False, None, "7", [], {}] + extra)
    for key, extra in (
        ("seed", [1.5]), ("sphere_samples", [2.5]),
        ("thimble_grid", [9, "9x64", [9], [9, 64, 1], [9.5, 64], [True, 3], ["9", 64]]),
        ("box_margin", [0.5]), ("t_range", [3.0, [2]]),
    )
}

# flag text that the flag's type cannot parse
WRONG_FLAG = {
    key: st.sampled_from(["abc", "", "true", "[1]"] + extra)
    for key, extra in (
        ("seed", ["1.5", "0x10"]),
        ("sphere_samples", ["2.5"]), ("thimble_grid", ["9", "9x", "x64", "9x64x1", "9.5x64"]),
        ("box_margin", ["0.5"]), ("t_range", ["3.0", "1e1"]),
    )
}


def test_strategies_cover_every_config_key():
    keys = set(Config._fields)
    assert set(VALID) == set(WRONG_JSON) == set(WRONG_FLAG) == keys
    assert set(OUT_OF_DOMAIN) == keys - {"seed"}


def _flag(key, value):
    text = f"{value[0]}x{value[1]}" if key == "thimble_grid" else repr(value)
    return f"--{key.replace('_', '-')}={text}"


def _argv(suite, flags, file_data, work):
    """The `verify` arguments; a config file, if any, is written to ``work``."""
    argv = [suite, *flags, "--json", str(work / "report.json")]
    if file_data is not None:
        (work / "cfg.json").write_text(json.dumps(file_data), encoding="utf-8")
        argv += ["--config", str(work / "cfg.json")]
    return argv


def _invoke(suite, flags, file_data, work):
    """Run `verify` in-process: (exit code, stdout, stderr, report path)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(_argv(suite, flags, file_data, work))
    return code, out.getvalue(), err.getvalue(), work / "report.json"


def _assert_valid_run(suite, values, code, out, err, path):
    """Exit 0 or 1 as the rows say, no stderr, and a report of this config."""
    report = json.loads(path.read_text(encoding="utf-8"))
    assert code in (0, 1) and err == ""
    statuses = [row["status"] for row in report["results"]]
    assert report["suite"] == suite and statuses
    assert set(statuses) <= {"pass", "fail", "assumption"}
    assert code == (1 if "fail" in statuses else 0)
    expected = Config(**values)._asdict()
    expected["thimble_grid"] = list(expected["thimble_grid"])
    assert report["config"] == expected
    assert out.endswith(" recorded assumptions\n")


@st.composite
def placed_config(draw, skip=()):
    """Valid values for some keys, each given as a flag or in the config file."""
    flags, file_data, values = [], {}, {}
    for key, strategy in VALID.items():
        where = draw(st.sampled_from(["absent", "flag", "file"]))
        if key in skip or where == "absent":
            continue
        values[key] = draw(strategy)
        if where == "flag":
            flags.append(_flag(key, values[key]))
        else:
            file_data[key] = values[key]
    use_file = bool(file_data) or draw(st.booleans())
    return flags, file_data if use_file else None, values


@settings(max_examples=40, deadline=None)
@given(suite=st.sampled_from(SUITES), config=placed_config())
def test_valid_config_runs_and_writes_a_report(suite, config):
    flags, file_data, values = config
    with tempfile.TemporaryDirectory() as tmp:
        _assert_valid_run(suite, values, *_invoke(suite, flags, file_data, Path(tmp)))


@settings(max_examples=6, deadline=None)
@given(suite=st.sampled_from(SAMPLING_SUITES), config=placed_config())
def test_sampling_suite_runs_in_a_child_under_a_time_cap(suite, config):
    flags, file_data, values = config
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        argv = [sys.executable, "-m", "lgorbit", *_argv(suite, flags, file_data, work)]
        # subprocess.run kills the child and raises TimeoutExpired past the cap
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=RUN_CAP_S)
        _assert_valid_run(
            suite, values, proc.returncode, proc.stdout, proc.stderr, work / "report.json"
        )


@st.composite
def invalid_value(draw):
    """One bad (key, value): out of domain or wrongly typed, by flag or file."""
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(OUT_OF_DOMAIN)))
        value = draw(OUT_OF_DOMAIN[key])
        by_flag = draw(st.booleans())
        return key, (_flag(key, value) if by_flag else value), by_flag
    key = draw(st.sampled_from(sorted(VALID)))
    by_flag = draw(st.booleans())
    if by_flag:
        return key, f"--{key.replace('_', '-')}={draw(WRONG_FLAG[key])}", True
    return key, draw(WRONG_JSON[key]), False


@settings(max_examples=60, deadline=None)
# an invalid config exits before any suite runs, so the sampling suites are cheap here
@given(suite=st.sampled_from(SUITES + SAMPLING_SUITES), bad=invalid_value(), data=st.data())
def test_invalid_value_exits_two_with_one_line(suite, bad, data):
    key, value, by_flag = bad
    flags, file_data, _ = data.draw(placed_config(skip={key}))
    if by_flag:
        flags.append(value)
    else:
        file_data = dict(file_data or {}, **{key: value})
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, path = _invoke(suite, flags, file_data, Path(tmp))
        assert not path.exists()
    assert code == 2 and out == ""
    assert err.startswith("verify: ") and err.endswith("\n") and err.count("\n") == 1
    # the line names the key, in its flag spelling when argparse rejects it
    assert key in err or f"--{key.replace('_', '-')}" in err
