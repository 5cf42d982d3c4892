"""The benchmark's tracer: self-time arithmetic and reaching every binding."""

import contextlib
import io
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import lgorbit.cli  # noqa: E402
from lgorbit import gaussian, mirror, report, toric  # noqa: E402

from tracer import Tracer, self_times, summarize  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("toric.ext_dims", 0.0, 10.0, -1),
        ("toric.cohomology_dims", 1.0, 4.0, 0),
        ("gaussian.ExactMatrix.rank", 2.0, 3.0, 1),
        ("poly.parse_poly", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    metrics = summarize(spans, wall=12.0)
    assert metrics["toric.self_s"] == 5.0
    assert metrics["toric.calls"] == 2
    assert metrics["toric.ext_dims.self_s"] == 3.0
    assert metrics["toric.cohomology_dims.self_s"] == 2.0
    assert metrics["unattributed_s"] == 2.0


def test_nested_toric_spans_add_up():
    fan, source, target = toric.HirzebruchFan(2), toric.PicClass(0, 0), toric.PicClass(-1, 0)
    with Tracer() as tracer:
        toric.ext_dims(fan, source, target)
    names = [span[0] for span in tracer.spans]
    assert names[0] == "toric.ext_dims"
    assert all(span[3] >= 0 for span in tracer.spans[1:])
    children = {names[i] for i, span in enumerate(tracer.spans) if span[3] == 0}
    assert {"toric.pic_to_divisor", "toric.cohomology_dims", "toric.PicClass.__sub__"} <= children
    own = self_times(tracer.spans)
    _, start, end, _ = tracer.spans[0]
    assert abs(sum(own) - (end - start)) < 1e-9
    assert all(value >= 0 for value in own)


def test_wrappers_reach_by_name_bindings_and_are_undone():
    original_run = lgorbit.cli.run
    original_suite = report.SUITES["quiver"]
    with Tracer() as tracer:
        assert lgorbit.cli.run is not original_run
        assert report.SUITES["quiver"] is not original_suite
        with contextlib.redirect_stdout(io.StringIO()):
            assert lgorbit.cli.main(["quiver"]) == 0
    assert lgorbit.cli.run is original_run
    assert report.SUITES["quiver"] is original_suite
    names = [span[0] for span in tracer.spans]
    for name in ("report.run", "report.suite_quiver", "quiver.end_algebra_dims_tilting",
                 "toric.ext_dims", "toric.cohomology_dims", "report.render_json"):
        assert name in names, name
    run_index = names.index("report.run")
    suite_index = names.index("report.suite_quiver")
    assert tracer.spans[suite_index][3] == run_index
    # the function-body import in quiver resolves to the wrapped toric.ext_dims
    ext_index = names.index("toric.ext_dims")
    parent = tracer.spans[ext_index][3]
    while names[parent] != "quiver.end_algebra_dims_tilting":
        parent = tracer.spans[parent][3]
        assert parent >= 0


def test_absent_callable_is_reported_not_raised(monkeypatch):
    monkeypatch.delattr(mirror, "exclusion_table")
    with Tracer() as tracer:
        pass
    assert tracer.absent == ["mirror.exclusion_table"]
    metrics = summarize(tracer.spans, 0.0, tracer.searches, tracer.absent)
    assert metrics["mirror.exclusion_table.self_s"] == 0.0
    assert metrics["trace.absent"] == 1


def test_search_hit_ratio_counts_witnesses():
    with Tracer() as tracer:
        assert mirror.search_mirror_pair(t_range=1, shift_range=0) is None
        assert mirror.search_mirror_pair(1, 0, target_forward={0: 2}) is not None
    metrics = summarize(tracer.spans, 1.0, tracer.searches)
    assert metrics["mirror.search_mirror_pair.hit_ratio"] == 0.5


def test_class_methods_are_wrapped_on_the_class_and_undone():
    before = dict(vars(gaussian.ExactMatrix))
    original_init = gaussian.ExactMatrix.__init__
    with Tracer() as tracer:
        assert gaussian.ExactMatrix.__init__ is not original_init
        matrix = gaussian.ExactMatrix.identity(2) + gaussian.ExactMatrix.identity(2)
        assert matrix.rank() == 2
    assert dict(vars(gaussian.ExactMatrix)) == before  # classmethods stay classmethods
    names = [span[0] for span in tracer.spans]
    for name in ("gaussian.ExactMatrix.identity", "gaussian.ExactMatrix.__init__",
                 "gaussian.ExactMatrix.__add__", "gaussian.ExactMatrix.rank"):
        assert name in names, name
    # per-element scalar arithmetic stays in its caller's self time
    assert not any(name.startswith("gaussian.GaussianRational") for name in names)
