"""Command-line entry point: ``repro-report`` (``python -m repro.evals``).

Regenerates paper tables and figures as views over the sqlite result
store — no retraining — reports cross-run history, and summarizes
telemetry traces::

    repro-report table2                  # regenerate Table II from the store
    repro-report t2 --run-id 3           # a specific recorded run
    repro-report runs                    # list every recorded run
    repro-report perf                    # run durations + bench diffs
    repro-report ingest-bench RECORD.json    # append perfbench --out records
    repro-report trace TRACE.jsonl [--format json]  # summarize a trace

The store (``--store``, default ``evals.sqlite``) is populated by
``run_matrix(spec, store=...)`` or ``python -m repro.experiments
--store``; ``trace`` reads only its JSONL file (``--trace-out`` of the
experiment CLI, or :func:`repro.telemetry.session`).  Options may
follow the positional arguments.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ..telemetry.summarize import render_trace_report, summarize_trace
from .matrix import ALL_VIEWS, VIEW_KEYS
from .report import perf_report, regenerate, runs_report
from .store import EvalsStoreError, ResultStore

__all__ = ["main"]


def _bench_entries(payload, path):
    """The (name, payload) history entries of one benchmark record file.

    A perfbench suite record (``--out``) files one entry per workload,
    named by the workload and carrying the suite's ``seed``,
    ``env.git_sha`` and ``env.cpu_count``; a single-run record is named
    by its ``workload`` key and already carries them.  Any other payload
    is named by its ``benchmark`` key, else by the file's basename.
    """
    if not isinstance(payload, dict):
        return [(os.path.basename(path), payload)]
    if isinstance(payload.get("workloads"), dict):
        env = payload.get("env") or {}
        provenance = {
            "seed": payload.get("seed"),
            "env": {"git_sha": env.get("git_sha"),
                    "cpu_count": env.get("cpu_count")},
        }
        return [(name, dict(entry, **provenance))
                for name, entry in payload["workloads"].items()]
    if "workload" in payload:
        return [(payload["workload"], payload)]
    return [(payload.get("benchmark") or os.path.basename(path), payload)]


def _read_records(paths):
    """Parse every benchmark record file: ``[(path, payload)]``.

    Done before the store is opened, so a missing or malformed file
    ingests nothing and creates no store.
    """
    records = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            try:
                records.append((path, json.load(handle)))
            except ValueError as exc:  # not JSON, or not UTF-8 text
                raise ValueError("%s: %s" % (path, exc)) from None
    return records


def _ingest_bench(store, records):
    if not records:
        raise EvalsStoreError("ingest-bench needs at least one JSON path")
    for path, payload in records:
        for name, entry in _bench_entries(payload, path):
            store.record_bench(name, entry, source=os.path.abspath(path))
            print("ingested %s as %r" % (path, name))
    print(store.summary())


def _error(exc):
    print("repro-report: error: %s" % exc, file=sys.stderr)
    return 2


def _trace(path, output_format):
    """Print the per-phase / per-cell / per-sampler summary of a trace."""
    try:
        summary = summarize_trace(path)
    except (OSError, json.JSONDecodeError) as exc:
        return _error(exc)
    try:
        if output_format == "json":
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(render_trace_report(summary))
    except BrokenPipeError:  # repro: noqa[RES002] downstream closed the pipe early; the summary was already computed
        pass
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-report", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "target",
        help="view name (table1..table5, figure3..figure7, "
             "runtime_comparison, eos_pixel_vs_embedding; aliases "
             "t1-t5/f3-f7/rt/px), or runs | perf | ingest-bench | trace",
    )
    parser.add_argument("paths", nargs="*",
                        help="benchmark record JSON files, e.g. "
                             "perfbench --out (ingest-bench), or one "
                             "JSONL trace file (trace)")
    parser.add_argument("--store", default="evals.sqlite", metavar="PATH",
                        help="sqlite result store (default: evals.sqlite)")
    parser.add_argument("--run-id", type=int, default=None, metavar="N",
                        help="regenerate a specific recorded run "
                             "(default: newest complete run of the view)")
    parser.add_argument("--format", choices=("text", "json"), default=None,
                        help="trace output format (default: text; trace "
                             "only)")
    args = parser.parse_intermixed_args(argv)

    target = VIEW_KEYS.get(args.target, args.target)
    commands = ("runs", "perf", "ingest-bench", "trace")
    if target not in ALL_VIEWS + commands:
        parser.error(
            "unknown target %r (views: %s; or %s)"
            % (args.target, ", ".join(ALL_VIEWS), ", ".join(commands))
        )
    if target not in ("ingest-bench", "trace") and args.paths:
        parser.error("positional paths are only valid with ingest-bench "
                     "and trace")
    if target == "trace" and len(args.paths) != 1:
        parser.error("trace takes exactly one trace file")
    if target in commands and args.run_id is not None:
        parser.error("--run-id only applies to view targets")
    if target != "trace" and args.format is not None:
        parser.error("--format only applies to trace")

    if target == "trace":
        return _trace(args.paths[0], args.format)
    if target == "ingest-bench":
        try:
            records = _read_records(args.paths)
        except (OSError, ValueError) as exc:
            return _error(exc)
    elif not os.path.exists(args.store):
        print("store %s does not exist; run a matrix with --store first"
              % args.store, file=sys.stderr)
        return 1

    with ResultStore(args.store) as store:
        try:
            if target == "runs":
                print(runs_report(store))
            elif target == "perf":
                print(perf_report(store))
            elif target == "ingest-bench":
                _ingest_bench(store, records)
            else:
                print(regenerate(store, target, run_id=args.run_id))
        except EvalsStoreError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
