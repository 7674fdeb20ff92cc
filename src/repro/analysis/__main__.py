"""Command-line entry point for the repro lint engine.

Examples::

    PYTHONPATH=src python -m repro.analysis src/
    PYTHONPATH=src python -m repro.analysis --strict --format json src/repro
    PYTHONPATH=src python -m repro.analysis --select FLOW src tests
    PYTHONPATH=src python -m repro.analysis --fix src/
    PYTHONPATH=src python -m repro.analysis --format sarif src/
    PYTHONPATH=src python -m repro.analysis --update-baseline src tests
    PYTHONPATH=src python -m repro.analysis --list-rules

Baseline semantics: ``--baseline FILE`` subtracts frozen findings from
the report (``.repro-lint-baseline.json`` in the current directory is
picked up automatically when present; ``--no-baseline`` disables the
discovery).  ``--update-baseline`` rewrites the file from the current
findings and exits 0.

``--fix`` applies every mechanical fix the enabled rules attached
(seedable RNG constructor injection for RNG002, explicit dtype kwargs
for FLOW-DTYPE), then re-lints and reports what remains; a second
``--fix`` run is a no-op.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .baseline import Baseline
from .engine import LintEngine
from .fixes import apply_fixes
from .rules import rule_index

__all__ = ["main"]

DEFAULT_BASELINE = ".repro-lint-baseline.json"


def _split_ids(spec):
    return [part.strip().upper() for part in spec.split(",") if part.strip()]


def _emit(report, fmt):
    if fmt == "json":
        print(report.format_json())
    elif fmt == "sarif":
        print(report.format_sarif(rule_index()))
    elif fmt == "github":
        print(report.format_github())
    else:
        print(report.format_text())


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Repro-specific AST lint engine (RNG discipline, "
        "autograd-tape hygiene, sampler validation...) with the "
        "whole-program FLOW-DTYPE dataflow analysis",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on any finding, warnings included",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif", "github"),
        default="text",
        help="output format (default: text); 'sarif' emits SARIF 2.1.0, "
        "'github' emits ::error workflow annotations",
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
        "--fix",
        action="store_true",
        help="apply mechanical fixes for fixable findings, then re-lint",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="subtract findings recorded in this baseline file "
        "(default: %s in the current directory, when present)"
        % DEFAULT_BASELINE,
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any default baseline file",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline file from the current findings and exit 0",
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

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline \
            and Path(DEFAULT_BASELINE).is_file():
        baseline_path = DEFAULT_BASELINE

    try:
        engine = LintEngine(
            select=_split_ids(args.select) if args.select else None,
            ignore=_split_ids(args.ignore) if args.ignore else None,
        )
        report = engine.run(args.paths)
    except (ValueError, FileNotFoundError) as exc:
        print("repro-lint: error: %s" % exc, file=sys.stderr)
        return 2

    if args.update_baseline:
        target = Path(baseline_path or DEFAULT_BASELINE)
        Baseline.from_findings(report.findings, target.parent).save(target)
        print(
            "baseline: froze %d finding(s) into %s"
            % (len(report.findings), target)
        )
        return 0

    if baseline_path is not None:
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError) as exc:
            print("repro-lint: error: bad baseline: %s" % exc, file=sys.stderr)
            return 2
        new, baselined = baseline.filter(report.findings)
        report.findings = new
        report.baselined = len(baselined)

    if args.fix:
        result = apply_fixes(report.findings)
        print("repro-lint: %s" % result.summary())
        report = engine.run(args.paths)
        if baseline_path is not None:
            new, baselined = baseline.filter(report.findings)
            report.findings = new
            report.baselined = len(baselined)

    try:
        _emit(report, args.format)
    except BrokenPipeError:  # repro: noqa[RES002] downstream closed the pipe early; exit code still reports the findings
        pass
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
