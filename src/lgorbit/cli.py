"""Command line entry point: `verify <suite> [--json PATH] [--KEY V]`.

Each field of ``report.Config`` is a flag, spelled with hyphens
(``t_range`` is ``--t-range``); a field left unset keeps its default.

Exit codes: 0 when every check passes (assumptions do not fail a run),
1 when any check fails, 2 for usage or configuration errors and for output
that cannot be written (one stderr line).
``main`` returns the code; only ``--help`` leaves through ``SystemExit`` (0).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .errors import PreconditionError
from .report import SUITES, Config, load_config, render_json, render_text, run


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # main prints one stderr line, without the usage dump
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="verify",
        description="Run the verification suites and emit a JSON report.",
    )
    parser.add_argument("suite", choices=sorted(SUITES) + ["all"],
                        help="suite to run, or 'all'")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="also write the JSON report to this file")
    for key in Config._fields:
        parser.add_argument(
            "--" + key.replace("_", "-"), type=int, help=f"set the config key {key}"
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"verify: usage error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = load_config({key: getattr(args, key) for key in Config._fields})
    except PreconditionError as exc:
        print(f"verify: config error: {exc}", file=sys.stderr)
        return 2
    report = run(args.suite, cfg)
    text = render_json(report)
    if args.json_path:
        try:
            with open(args.json_path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"verify: cannot write report: {exc}", file=sys.stderr)
            return 2
    try:
        sys.stdout.write(render_text(report))
        sys.stdout.flush()
    except OSError as exc:
        # the reader is gone; point fd 1 at devnull so that the interpreter's
        # flush at exit fails no more (Python's signal docs, "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"verify: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
