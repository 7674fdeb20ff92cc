"""``repro-serve`` — run and talk to the resampling daemon.

Examples::

    # foreground daemon (socket + journal under ./serve/)
    repro-serve start --socket serve/repro.sock --journal serve/journal.jsonl

    # submit work and wait for the result
    repro-serve submit --socket serve/repro.sock --kind echo \\
        --payload '{"hello": "world"}' --wait

    # liveness / queue / breaker / replay snapshot (add --json for raw)
    repro-serve status --socket serve/repro.sock --json

    # supervision snapshot: ok|degraded|draining + workers + journal
    repro-serve health --socket serve/repro.sock

    # graceful drain + clean stop marker
    repro-serve stop --socket serve/repro.sock

``start --workers N`` with N > 1 runs jobs on a supervised set of N
worker processes, forked once on the first job, with dead or hung
workers respawned; ``--workers 1`` (the default) runs jobs inline.
Long-lived deployments add ``--recycle-after K`` (replace each worker
after K jobs) and ``--compact-every M`` (fold the journal into a
checkpoint segment every M settlements so it stays bounded).

The hidden ``--chaos`` flag on ``start`` installs a
:class:`repro.resilience.FaultPlan` from a JSON spec — the chaos test
suite uses it to crash the daemon at exact fault points
(``serve.accept`` / ``serve.dispatch`` / ``serve.journal`` /
``serve.compact`` / ``worker.task``) and then assert that journal
replay recovers every accepted job exactly once.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .client import ServeError

__all__ = ["main"]


def _install_chaos(spec):
    """Install a FaultPlan from a JSON list of fault dicts."""
    from ..resilience.faults import FaultPlan, install_faults

    plan = FaultPlan()
    for fault in json.loads(spec):
        plan.inject(
            fault["point"],
            action=fault.get("action", "raise"),
            when=fault.get("when"),
            after=int(fault.get("after", 1)),
            times=fault.get("times", 1),
            seconds=fault.get("seconds"),
        )
    install_faults(plan)
    return plan


def _cmd_start(args):
    from .. import telemetry
    from .service import ReproService, ServiceAlreadyRunning

    if args.chaos:
        _install_chaos(args.chaos)
    traced = (telemetry.session(trace_out=args.trace_out)
              if args.trace_out else contextlib.nullcontext())
    with traced:
        try:
            service = ReproService(
                args.socket,
                args.journal,
                max_depth=args.max_depth,
                per_client_limit=args.per_client_limit,
                workers=args.workers,
                task_deadline=args.task_deadline,
                breaker_threshold=args.breaker_threshold,
                drain_seconds=args.drain_seconds,
                recycle_after=args.recycle_after,
                compact_every=args.compact_every,
                degraded_threshold=args.degraded_threshold,
            )
        except ValueError as exc:  # a limit out of range
            return _error(exc)
        print(service.describe(), flush=True)
        try:
            final = service.serve_forever()
        except ServiceAlreadyRunning as exc:
            return _error(exc)
    print(json.dumps(final, indent=2, sort_keys=True))
    return 0


def _error(exc):
    print("repro-serve: error: %s" % exc, file=sys.stderr)
    return 2


def _client(args):
    from .client import ServeClient

    return ServeClient(args.socket, client_id=args.client)


def _cmd_submit(args):
    from .client import LoadShedded

    client = _client(args)
    payload = json.loads(args.payload) if args.payload else {}
    try:
        if args.no_backoff:
            job_id = client.submit(args.kind, payload, job_id=args.job_id)
        else:
            job_id = client.submit_with_retry(
                args.kind, payload, job_id=args.job_id
            )
    except LoadShedded as shed:
        print(json.dumps(shed.response, indent=2, sort_keys=True))
        return 3
    if args.wait:
        print(json.dumps(client.wait(job_id, timeout=args.timeout),
                         indent=2, sort_keys=True))
    else:
        print(json.dumps({"status": "ok", "job_id": job_id},
                         indent=2, sort_keys=True))
    return 0


def _render_status(status):
    """Human-readable status summary (the default; ``--json`` for raw)."""
    journal = status.get("journal_stats", {})
    counters = status.get("counters", {})
    replay = status.get("replay", {})
    lines = [
        "repro-serve pid=%s health=%s uptime=%.1fs"
        % (status.get("pid"), status.get("health", "?"),
           status.get("uptime_seconds", 0.0)),
        "  queue: depth=%d outcomes=%d workers=%d"
        % (status.get("queue_depth", 0), status.get("outcomes", 0),
           status.get("workers", 1)),
        "  counters: accepted=%d completed=%d failed=%d shed=%d "
        "replayed=%d compactions=%d"
        % (counters.get("accepted", 0), counters.get("completed", 0),
           counters.get("failed", 0), counters.get("shed", 0),
           counters.get("replayed", 0), counters.get("compactions", 0)),
        "  journal: segments=%d bytes=%d corrupt_lines=%d"
        % (journal.get("segments", 0), journal.get("bytes", 0),
           journal.get("corrupt_lines", 0)),
        "  replay: recovered=%d torn_tail=%s clean_stop=%s"
        % (replay.get("recovered", 0), replay.get("torn_tail"),
           replay.get("clean_stop")),
    ]
    breakers = status.get("breakers") or {}
    if breakers:
        lines.append("  breakers open: %s" % ", ".join(sorted(breakers)))
    return "\n".join(lines)


def _cmd_status(args):
    status = _client(args).status()
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(_render_status(status))
    return 0


def _cmd_health(args):
    print(json.dumps(_client(args).health(), indent=2, sort_keys=True))
    return 0


def _cmd_result(args):
    print(json.dumps(_client(args).result(args.job_id), indent=2,
                     sort_keys=True))
    return 0


def _cmd_stop(args):
    print(json.dumps(_client(args).stop(), indent=2, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Crash-safe resampling-as-a-service daemon "
        "(journaled job queue over a local Unix socket).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    start = sub.add_parser("start", help="run the daemon in the foreground")
    start.add_argument("--socket", required=True)
    start.add_argument("--journal", required=True)
    start.add_argument("--max-depth", type=int, default=64)
    start.add_argument("--per-client-limit", type=int, default=None)
    start.add_argument("--workers", type=int, default=1)
    start.add_argument("--task-deadline", type=float, default=None)
    start.add_argument("--breaker-threshold", type=int, default=3)
    start.add_argument("--drain-seconds", type=float, default=5.0)
    start.add_argument("--trace-out", default=None,
                       help="flush a telemetry trace here on exit")
    start.add_argument("--recycle-after", type=int, default=None,
                       help="retire each pool worker after N jobs")
    start.add_argument("--compact-every", type=int, default=None,
                       help="fold the journal into a checkpoint segment "
                       "every N settlements")
    start.add_argument("--degraded-threshold", type=int, default=3,
                       help="consecutive worker deaths before degraded mode")
    start.add_argument("--chaos", default=None, help=argparse.SUPPRESS)
    start.set_defaults(fn=_cmd_start)

    for name, fn in (("submit", _cmd_submit), ("status", _cmd_status),
                     ("health", _cmd_health), ("result", _cmd_result),
                     ("stop", _cmd_stop)):
        cmd = sub.add_parser(name)
        cmd.add_argument("--socket", required=True)
        cmd.add_argument("--client", default="cli")
        cmd.set_defaults(fn=fn)
        if name == "status":
            cmd.add_argument("--json", action="store_true",
                             help="print the raw JSON snapshot")
        if name == "submit":
            cmd.add_argument("--kind", required=True)
            cmd.add_argument("--payload", default="")
            cmd.add_argument("--job-id", default=None)
            cmd.add_argument("--wait", action="store_true")
            cmd.add_argument("--timeout", type=float, default=30.0)
            cmd.add_argument("--no-backoff", action="store_true",
                             help="fail immediately on retry_after")
        if name == "result":
            cmd.add_argument("job_id")

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # downstream closed the pipe early (e.g. head)
        return 0
    except (OSError, json.JSONDecodeError, ServeError) as exc:
        return _error(exc)


if __name__ == "__main__":
    sys.exit(main())
