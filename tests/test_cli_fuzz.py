"""Property tests over the configuration space of `verify`.

Every suite runs in-process: flags are the only input, and no flag sizes the
symplectic or compactification suites, so each run takes well under a
second (mirror with t_range <= 20).  No drawn value comes near a
``report.MAX_*`` bound; the bounds themselves are tested in ``test_cli.py``.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from lgorbit import cli
from lgorbit.report import Config

SUITES = ["category", "compactification", "lie", "mirror", "quiver", "sheaves", "symplectic"]

VALID = {
    "seed": st.integers(-10**6, 10**9),
    "box_margin": st.integers(0, 30),
    "t_range": st.integers(1, 20),
}

# values of the right type outside each key's domain (seed has no such value)
OUT_OF_DOMAIN = {
    "box_margin": st.integers(-10**6, -1),
    "t_range": st.integers(-10**6, 0),
}

# flag text that the flag's type cannot parse
WRONG_FLAG = {
    key: st.sampled_from(["abc", "", "true", "[1]"] + extra)
    for key, extra in (
        ("seed", ["1.5", "0x10"]),
        ("box_margin", ["0.5"]), ("t_range", ["3.0", "1e1"]),
    )
}


def test_strategies_cover_every_config_key():
    keys = set(Config._fields)
    assert set(VALID) == set(WRONG_FLAG) == keys
    assert set(OUT_OF_DOMAIN) == keys - {"seed"}


def _flag(key, value):
    return f"--{key.replace('_', '-')}={value}"


def _invoke(suite, flags, work):
    """Run `verify` in-process: (exit code, stdout, stderr, report path)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([suite, *flags, "--json", str(work / "report.json")])
    return code, out.getvalue(), err.getvalue(), work / "report.json"


def _assert_valid_run(suite, values, code, out, err, path):
    """Exit 0 or 1 as the rows say, no stderr, and a report of this config."""
    report = json.loads(path.read_text(encoding="utf-8"))
    assert code in (0, 1) and err == ""
    statuses = [row["status"] for row in report["results"]]
    assert report["suite"] == suite and statuses
    assert set(statuses) <= {"pass", "fail", "assumption"}
    assert code == (1 if "fail" in statuses else 0)
    assert report["config"] == Config(**values)._asdict()
    assert out.endswith(" recorded assumptions\n")


@st.composite
def flagged_config(draw, skip=()):
    """Valid values for some keys, each given as its flag."""
    flags, values = [], {}
    for key, strategy in VALID.items():
        if key in skip or not draw(st.booleans()):
            continue
        values[key] = draw(strategy)
        flags.append(_flag(key, values[key]))
    return flags, values


@settings(max_examples=40, deadline=None)
@given(suite=st.sampled_from(SUITES), config=flagged_config())
def test_valid_config_runs_and_writes_a_report(suite, config):
    flags, values = config
    with tempfile.TemporaryDirectory() as tmp:
        _assert_valid_run(suite, values, *_invoke(suite, flags, Path(tmp)))


@st.composite
def invalid_value(draw):
    """One bad (key, flag): its value out of domain, or text its type cannot parse."""
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(OUT_OF_DOMAIN)))
        return key, _flag(key, draw(OUT_OF_DOMAIN[key]))
    key = draw(st.sampled_from(sorted(VALID)))
    return key, _flag(key, draw(WRONG_FLAG[key]))


@settings(max_examples=60, deadline=None)
# an invalid config exits before any suite runs
@given(suite=st.sampled_from(SUITES), bad=invalid_value(), data=st.data())
def test_invalid_value_exits_two_with_one_line(suite, bad, data):
    key, flag = bad
    flags, _ = data.draw(flagged_config(skip={key}))
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, path = _invoke(suite, [*flags, flag], Path(tmp))
        assert not path.exists()
    assert code == 2 and out == ""
    assert err.startswith("verify: ") and err.endswith("\n") and err.count("\n") == 1
    # the line names the key, in its flag spelling when argparse rejects it
    assert key in err or f"--{key.replace('_', '-')}" in err
