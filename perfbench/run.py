"""lgorbit benchmark: time to a certificate from `python -m lgorbit`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; lgorbit is imported from its
``src/``.  One client runs the workload in a closed loop, one operation
after another, for S seconds.  Every operation's ``--json`` report passes
the correctness gate in ``gate.py`` or counts as failed.

``--trace 0`` spawns ``python -m lgorbit`` per operation and reports the
end-to-end metrics: ``wall_s`` (spawn to exit), ``cpu_s`` (user + system
of the child, from ``os.wait4``), ``peak_rss_mb`` (the child's
``ru_maxrss``) and ``setup_s`` (a fresh interpreter running
``import lgorbit.cli``, sampled between operations).  Each is the median
over the run.

``--trace 1`` alternates untraced and traced in-process runs, each in a
fresh interpreter, together with an import breakdown, and reports the
per-layer metrics of the median traced run (see ``tracer.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import WORKLOADS, Workload, report_problems  # noqa: E402
from tracer import summarize  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 60.0
MIN_SETUP_SAMPLES = 5

IMPORT_BREAKDOWN = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
try:
    import scipy.linalg
except ImportError:
    pass
t2 = time.perf_counter()
import lgorbit.cli
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2, lgorbit.cli.__file__]))
"""


def child_env() -> Dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: Sequence[str], out_path: Path) -> Tuple[int, float, os.struct_rusage]:
    """Run a child to completion: (exit code, wall seconds, rusage)."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def read_text(path: Path) -> Optional[str]:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def host_reference() -> float:
    """Seconds for a fixed pure-Python Fraction loop: a host-speed probe."""
    start = time.perf_counter()
    acc = 0
    for k in range(1, 5001):
        acc += (Fraction(k, 7) * Fraction(5, k + 3) + Fraction(1, 3)).numerator
    elapsed = time.perf_counter() - start
    if acc <= 0:
        raise AssertionError("reference loop lost its work")
    return elapsed


def setup_sample(work: Path) -> float:
    code, wall, _ = spawn([sys.executable, "-c", "import lgorbit.cli"], work / "setup.out")
    if code != 0:
        raise RuntimeError(f"import lgorbit.cli failed:\n{read_text(work / 'setup.out')}")
    return wall


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(p, value) for the highest p in a fixed ladder with >= 10 samples above it."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(ordered) * (1 - p / 100) >= 10:
            return p, ordered[math.ceil(p / 100 * len(ordered)) - 1]
    return None


class Operations:
    """Operations attempted and failed, with the reasons for failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[str] = None

    def check(self, workload: Workload, seed: int, code: int, report: Path) -> None:
        text = read_text(report)
        problems = report_problems(workload, seed, code, text, self.reference)
        if self.reference is None and text is not None:
            self.reference = text
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"operation {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)


def measure_untraced(name: str, seed: int, seconds: float, work: Path):
    """Closed loop of `python -m lgorbit` subprocesses: the end-to-end metrics."""
    workload = WORKLOADS[name]
    report = work / "report.json"
    argv = [sys.executable, "-m", "lgorbit", *workload.argv,
            "--seed", str(seed), "--json", str(report)]
    ops = Operations()
    samples: Dict[str, List[float]] = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "setup_s": []}
    host: List[float] = []
    import_breakdown(work)  # checks the import origin and compiles bytecode once
    deadline = time.perf_counter() + seconds
    while ops.attempted == 0 or time.perf_counter() < deadline:
        report.unlink(missing_ok=True)
        code, wall, usage = spawn(argv, work / "verify.out")
        ops.check(workload, seed, code, report)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(usage.ru_utime + usage.ru_stime)
        samples["peak_rss_mb"].append(usage.ru_maxrss / 1024)
        samples["setup_s"].append(setup_sample(work))
        host.append(host_reference())
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        samples["setup_s"].append(setup_sample(work))
    units = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    for key, values in samples.items():
        print(describe(key, values, units[key]))
    print(f"error_rate {ops.failed / ops.attempted:.4f} "
          f"({ops.failed} failed of {ops.attempted} operations)")
    metrics = {key: {"value": statistics.median(values), "unit": units[key]}
               for key, values in samples.items()}
    return ops, metrics, host


def describe(key: str, values: Sequence[float], unit: str) -> str:
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]:g} {tail[1]:.4f} {unit}" if tail else "no tail percentile (< 20 samples)"
    return (f"{key:12s} median {statistics.median(values):.4f} {unit}  "
            f"n={len(values)}  {tail_text}")


def import_breakdown(work: Path) -> List[float]:
    out = work / "imports.out"
    code, _, _ = spawn([sys.executable, "-c", IMPORT_BREAKDOWN], out)
    if code != 0:
        raise RuntimeError(f"import breakdown failed:\n{read_text(out)}")
    *times, origin = json.loads(read_text(out).splitlines()[-1])
    if SRC.resolve() not in Path(origin).resolve().parents:
        raise RuntimeError(f"lgorbit was imported from {origin}, not from {SRC}")
    return times


def measure_traced(name: str, seed: int, seconds: float, work: Path):
    """Untraced and traced in-process runs: the per-layer metrics."""
    workload = WORKLOADS[name]
    report = work / "report.json"
    ops = Operations()
    runs: Dict[bool, List[Dict]] = {False: [], True: []}
    imports: List[List[float]] = []
    host: List[float] = []
    imports.append(import_breakdown(work))
    host.append(host_reference())
    deadline = time.perf_counter() + seconds
    step = 0
    # one step at a time, so the loop overruns the deadline by one step at most
    while step < 2 or time.perf_counter() < deadline:
        kind, step = step % 3, step + 1
        if kind == 2:
            imports.append(import_breakdown(work))
            host.append(host_reference())
            continue
        traced = kind == 1
        spans = work / f"spans{step}.json"
        argv = [sys.executable, str(HERE / "inprocess.py"), "--src", str(SRC),
                "--json", str(report), *(["--spans", str(spans)] if traced else []),
                "--", *workload.argv, "--seed", str(seed)]
        report.unlink(missing_ok=True)
        code, _, _ = spawn(argv, work / "inprocess.out")
        ops.check(workload, seed, code, report)
        if code == 0:
            run = json.loads(read_text(work / "inprocess.out").splitlines()[-1])
            if SRC.resolve() not in Path(run["origin"]).resolve().parents:
                raise RuntimeError(f"lgorbit was imported from {run['origin']}")
            run["spans"] = spans
            runs[traced].append(run)
    if not runs[True] or not runs[False]:
        raise RuntimeError("no in-process run completed")
    ordered = sorted(runs[True], key=lambda run: run["wall"])
    median_run = ordered[(len(ordered) - 1) // 2]
    trace = json.loads(median_run["spans"].read_text(encoding="utf-8"))
    layer = summarize(trace["spans"], median_run["wall"], trace["searches"], trace["absent"])
    untraced = statistics.median(run["wall"] for run in runs[False])
    layer["trace.inprocess_s"] = median_run["wall"]
    layer["trace.overhead"] = statistics.median(run["wall"] for run in runs[True]) / untraced
    for i, key in enumerate(("import.numpy_s", "import.scipy_s", "import.lgorbit_s")):
        layer[key] = statistics.median(sample[i] for sample in imports)
    if trace["absent"]:
        print(f"absent callables: {trace['absent']}")
    covered = sum(end - start for _, start, end, parent in trace["spans"] if parent < 0)
    print(f"traced runs {len(runs[True])}, untraced runs {len(runs[False])}; "
          f"median traced in-process {median_run['wall']:.4f} s, "
          f"of which top-level spans cover {covered / median_run['wall']:.1%}")
    metrics = {key: {"value": value, "unit": unit_of(key)} for key, value in layer.items()}
    return ops, metrics, host


def unit_of(key: str) -> str:
    if key.endswith("_s"):
        return "s"
    if key.endswith(".calls") or key in ("trace.spans", "trace.absent"):
        return "count"
    return "ratio"


def git_sha() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    head = read_text(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head.strip() if head else None
    ref = head[5:].strip()
    loose = read_text(git / ref)
    if loose:
        return loose.strip()
    for line in (read_text(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def version(package: str) -> Optional[str]:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def loadavg() -> Optional[str]:
    text = read_text(Path("/proc/loadavg"))
    return text.strip() if text else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lgorbit" / "cli.py").is_file():
        print(f"run.py: no lgorbit sources under {SRC}", file=sys.stderr)
        return 2
    env: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "git_sha": git_sha(), "loadavg_before": loadavg(),
    }
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        work = Path(tmp)
        measure = measure_traced if args.trace else measure_untraced
        try:
            ops, metrics, host = measure(args.workload, args.seed, args.seconds, work)
        except (RuntimeError, OSError, ValueError) as exc:
            print(f"run.py: {exc}", file=sys.stderr)
            return 1
    env["loadavg_after"] = loadavg()
    env["host_reference_s"] = statistics.median(host)
    print(json.dumps({"env": env}))
    if args.trace:
        metrics["host.fraction_ref_s"] = {"value": env["host_reference_s"], "unit": "s"}
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
