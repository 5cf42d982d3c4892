"""Command line entry point: `verify <suite> [--config FILE] [--json PATH] [--KEY V]`.

Each field of ``report.Config`` is a flag too, spelled with hyphens
(``t_range`` is ``--t-range``), that overrides the config file.

Exit codes: 0 when every check passes (assumptions do not fail a run),
1 when any check fails, 2 for usage or configuration errors (one stderr line).
``main`` returns the code; only ``--help`` leaves through ``SystemExit`` (0).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .report import SUITES, Config, load_config, render_json, render_text, run


def _grid(text: str):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected ROWSxCOLS, for example 9x64")
    try:
        return [int(parts[0]), int(parts[1])]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    parser.add_argument("--json", metavar="PATH", dest="json_path",
                        help="also write the JSON report to this file")
    for key, default in Config._field_defaults.items():
        parser.add_argument(
            "--" + key.replace("_", "-"),
            type=_grid if isinstance(default, tuple) else type(default),
            help=f"override the config key {key}",
        )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"verify: usage error: {exc}", file=sys.stderr)
        return 2
    overrides = {key: getattr(args, key) for key in Config._fields}
    try:
        cfg = load_config(args.config, overrides)
    except (OSError, ValueError) as exc:
        # PreconditionError is a ValueError; malformed JSON also lands here
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
    sys.stdout.write(render_text(report))
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
