"""Command-line entry point for the repro lint engine.

Examples::

    PYTHONPATH=src python -m repro.analysis src/
    PYTHONPATH=src python -m repro.analysis --strict --format json src/repro
    PYTHONPATH=src python -m repro.analysis --select FLOW src tests
    PYTHONPATH=src python -m repro.analysis --list-rules

Every finding is reported: fix it, or suppress it on its line with a
justified ``# repro: noqa[RULE] reason``.
"""

from __future__ import annotations

import argparse
import sys

from .engine import LintEngine
from .rules import rule_index

__all__ = ["main"]


def _split_ids(spec):
    return [part.strip().upper() for part in spec.split(",") if part.strip()]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Repro-specific AST lint engine (RNG discipline, "
        "autograd-tape hygiene, sampler validation, FLOW-DTYPE dtype "
        "dataflow...), one module at a time",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on any finding, warnings included",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids or family prefixes to enable "
        "exclusively (e.g. RNG selects RNG001,RNG002)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule ids or family prefixes to disable",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rid, (name, description, severity) in sorted(rule_index().items()):
            print("%s  %-28s [%s] %s" % (rid, name, severity, description))
        return 0

    if not args.paths:
        parser.error("no paths given (try: python -m repro.analysis src/)")

    try:
        report = LintEngine(
            select=_split_ids(args.select) if args.select else None,
            ignore=_split_ids(args.ignore) if args.ignore else None,
        ).run(args.paths)
    except (ValueError, FileNotFoundError) as exc:
        print("repro-lint: error: %s" % exc, file=sys.stderr)
        return 2

    try:
        print(report.format_json() if args.format == "json"
              else report.format_text())
    except BrokenPipeError:  # repro: noqa[RES002] downstream closed the pipe early; exit code still reports the findings
        pass
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
