"""Run `verify` once inside this interpreter, traced or not, and time it.

    python perfbench/inprocess.py --src SRC --json REPORT [--spans FILE] -- ARGS...

Imports lgorbit from SRC, runs ``lgorbit.cli.main(ARGS + ["--json", REPORT])``
with its text output discarded, prints one JSON line (the exit code, the
wall seconds of the call, and where lgorbit was imported from) and exits
with that call's exit code.  With ``--spans`` the callables are traced and
the spans are written to FILE when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--json", required=True)
    parser.add_argument("--spans")
    parser.add_argument("args", nargs=argparse.REMAINDER)
    opts = parser.parse_args()
    argv = [a for a in opts.args if a != "--"] + ["--json", opts.json]
    sys.path.insert(0, opts.src)
    import lgorbit.cli

    tracer = None
    if opts.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = lgorbit.cli.main(argv)
        wall = time.perf_counter() - start
    out = {"exit": code, "wall": wall, "origin": lgorbit.__file__}
    if tracer is not None:
        tracer.uninstall()
        with open(opts.spans, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "searches": tracer.searches,
                       "absent": tracer.absent}, handle)
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
