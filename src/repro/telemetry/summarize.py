"""Trace-file summarization: JSONL -> aggregate tables.

:func:`summarize_trace` folds a trace (path or record list) into
aggregates — per-phase wall time (the paper's phase1/phase2/phase3
decomposition), per-span statistics, per-cell and per-sampler timings,
plus the metrics snapshot — and :func:`render_trace_report` renders them
in the same ``format_table`` style as the experiment reports.
``repro-report trace FILE`` (see :mod:`repro.evals.__main__`) wraps
both.
"""

from __future__ import annotations

import json

__all__ = ["load_trace", "summarize_trace", "render_trace_report"]

#: Span names contributing to each of the paper's three phases
#: (``phase1.setup`` builds the dataset, model and optimiser that
#: phase-1 training runs on).
PHASE_SPANS = {
    "phase1": ("phase1", "phase1.setup"),
    "phase2": ("extract", "resample", "sampler.fit_resample"),
    "phase3": ("finetune",),
}


def load_trace(path, on_corrupt=None):
    """Parse a JSONL trace file into a list of records.

    A crashed run leaves a partially written trace (a torn final line,
    or — when the crash raced the atomic flush — older bytes mixed in).
    Lines that fail to decode as JSON objects are *skipped*, not fatal:
    a partial trace is still summarizable, which is exactly when a
    summary is most needed.  ``on_corrupt(line_number, line)`` is
    called for each skipped line so callers can count or report them.
    """
    records = []
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            if not isinstance(record, dict):
                if on_corrupt is not None:
                    on_corrupt(number, line)
                continue
            records.append(record)
    return records


def _span_groups(spans):
    groups = {}
    for span in spans:
        entry = groups.setdefault(
            span["name"], {"count": 0, "seconds": 0.0, "max": 0.0}
        )
        entry["count"] += 1
        entry["seconds"] += span["dur"]
        entry["max"] = max(entry["max"], span["dur"])
    for entry in groups.values():
        entry["mean"] = entry["seconds"] / entry["count"]
    return groups


def _phase_seconds(spans):
    """Per-phase wall time, avoiding parent/child double counting.

    A ``sampler.fit_resample`` span nested under a ``resample`` span or
    inside another sampler (combined pipelines like SMOTE-ENN) is
    already covered by its parent and is skipped.
    """
    phases = {name: {"count": 0, "seconds": 0.0} for name in PHASE_SPANS}
    for span in spans:
        for phase, names in PHASE_SPANS.items():
            if span["name"] not in names:
                continue
            if span["name"] == "sampler.fit_resample" and span.get(
                "parent"
            ) in ("resample", "sampler.fit_resample"):
                continue
            phases[phase]["count"] += 1
            phases[phase]["seconds"] += span["dur"]
    return phases


def summarize_trace(trace):
    """Aggregate a trace (path or record list) into a summary dict.

    Corrupt/truncated lines in a trace *file* are skipped and counted
    in the summary's ``corrupt_lines`` (the report prints a warning);
    record lists are assumed already decoded.
    """
    corrupt = []
    if isinstance(trace, str):
        records = load_trace(trace, on_corrupt=lambda n, _line: corrupt.append(n))
    else:
        records = list(trace)
    spans = [r for r in records if r.get("type") == "span"]
    events = [r for r in records if r.get("type") == "event"]
    metrics = {}
    for record in records:
        if record.get("type") == "metrics":
            metrics = record

    cells = []
    for span in spans:
        if span["name"] == "cell":
            attrs = span.get("attrs", {})
            cells.append({
                "cell": attrs.get("cell", "?"),
                "seconds": span["dur"],
                "outcome": attrs.get("outcome", "?"),
                "attempts": attrs.get("attempts", 1),
            })
    cells.sort(key=lambda c: -c["seconds"])

    samplers = {}
    for span in spans:
        if span["name"] != "sampler.fit_resample":
            continue
        attrs = span.get("attrs", {})
        entry = samplers.setdefault(
            attrs.get("sampler", "?"),
            {"calls": 0, "seconds": 0.0, "synthetic": 0},
        )
        entry["calls"] += 1
        entry["seconds"] += span["dur"]
        entry["synthetic"] += int(attrs.get("n_synthetic", 0))

    total = 0.0
    for span in spans:
        if span.get("depth") == 0:
            total += span["dur"]

    guard = {
        "watchdog_kills": [],
        "quarantined": [],
        "breakers_opened": [],
        "short_circuits": 0,
    }
    for event in events:
        attrs = event.get("attrs", {})
        if event["name"] == "guard.watchdog_kill":
            guard["watchdog_kills"].append({
                "task": attrs.get("task", "?"),
                "elapsed": attrs.get("elapsed", 0.0),
                "phase": attrs.get("phase"),
                "dispatch": attrs.get("dispatch", 0),
            })
        elif event["name"] == "guard.quarantined":
            guard["quarantined"].append({
                "reason": attrs.get("reason", "?"),
                "target": attrs.get("target", "?"),
                "files": attrs.get("files", 0),
            })
        elif event["name"] == "guard.breaker_opened":
            guard["breakers_opened"].append({
                "key": attrs.get("key", "?"),
                "signature": attrs.get("signature", "?"),
                "failures": attrs.get("failures", 0),
            })
        elif event["name"] == "guard.breaker_short_circuit":
            guard["short_circuits"] += 1

    serve = {"lifecycle": [], "shed": 0, "breakers_opened": [],
             "journal_corrupt": 0, "compactions": 0, "degraded_entries": 0,
             "worker_deaths": 0}
    for event in events:
        attrs = event.get("attrs", {})
        if event["name"] in ("serve.started", "serve.stopped",
                             "serve.drain_deadline"):
            serve["lifecycle"].append({
                "event": event["name"], "ts": event.get("ts", 0.0),
                **{k: attrs[k] for k in sorted(attrs) if k != "forwarded"},
            })
        elif event["name"] == "serve.shed":
            serve["shed"] += 1
        elif event["name"] == "serve.breaker_opened":
            serve["breakers_opened"].append({
                "kind": attrs.get("kind", "?"),
                "signature": attrs.get("signature", "?"),
            })
        elif event["name"] == "serve.journal_corrupt":
            serve["journal_corrupt"] += int(attrs.get("lines", 0))
        elif event["name"] == "serve.compacted":
            serve["compactions"] += 1
        elif event["name"] == "serve.degraded_enter":
            serve["degraded_entries"] += 1
        elif event["name"] == "parallel.worker_died":
            serve["worker_deaths"] += 1

    return {
        "n_spans": len(spans),
        "n_events": len(events),
        "corrupt_lines": len(corrupt),
        "total_seconds": total,
        "phases": _phase_seconds(spans),
        "spans": _span_groups(spans),
        "cells": cells,
        "samplers": samplers,
        "events": events,
        "guard": guard,
        "serve": serve,
        "counters": metrics.get("counters", {}),
        "gauges": metrics.get("gauges", {}),
        "histograms": metrics.get("histograms", {}),
    }


def render_trace_report(summary):
    """Render a :func:`summarize_trace` summary as aligned text tables."""
    from ..utils.tables import format_table

    sections = [
        "%d span(s), %d event(s), %.2fs top-level wall time"
        % (summary["n_spans"], summary["n_events"], summary["total_seconds"])
    ]
    if summary.get("corrupt_lines"):
        sections[0] += (
            "\nWARNING: skipped %d corrupt/truncated trace line(s) — "
            "summary covers the readable remainder" % summary["corrupt_lines"]
        )

    phase_total = sum(p["seconds"] for p in summary["phases"].values())
    rows = []
    for phase in ("phase1", "phase2", "phase3"):
        entry = summary["phases"][phase]
        share = entry["seconds"] / phase_total if phase_total > 0 else 0.0
        rows.append([
            phase,
            str(entry["count"]),
            "%.3fs" % entry["seconds"],
            "%.1f%%" % (100.0 * share),
        ])
    sections.append(format_table(
        ["phase", "spans", "seconds", "share"],
        rows,
        title="Per-phase wall time (train / resample / fine-tune)",
    ))

    rows = [
        [name, str(e["count"]), "%.3fs" % e["seconds"],
         "%.4fs" % e["mean"], "%.4fs" % e["max"]]
        for name, e in sorted(
            summary["spans"].items(), key=lambda kv: -kv[1]["seconds"]
        )
    ]
    if rows:
        sections.append(format_table(
            ["span", "count", "total", "mean", "max"],
            rows,
            title="Spans by name",
        ))

    if summary["cells"]:
        rows = [
            [c["cell"], "%.3fs" % c["seconds"], str(c["outcome"]),
             str(c["attempts"])]
            for c in summary["cells"]
        ]
        sections.append(format_table(
            ["cell", "seconds", "outcome", "attempts"],
            rows,
            title="Sweep cells (slowest first)",
        ))

    if summary["samplers"]:
        rows = [
            [name, str(e["calls"]), "%.3fs" % e["seconds"], str(e["synthetic"])]
            for name, e in sorted(
                summary["samplers"].items(), key=lambda kv: -kv[1]["seconds"]
            )
        ]
        sections.append(format_table(
            ["sampler", "calls", "seconds", "synthetic"],
            rows,
            title="Sampler fit_resample cost",
        ))

    if summary["counters"]:
        rows = [
            [name, str(value)]
            for name, value in sorted(summary["counters"].items())
        ]
        sections.append(format_table(
            ["counter", "value"], rows, title="Counters"
        ))

    if summary["histograms"]:
        rows = []
        for name, h in sorted(summary["histograms"].items()):
            rows.append([
                name,
                str(h.get("count", 0)),
                "-" if h.get("mean") is None else "%.4f" % h["mean"],
                "-" if h.get("min") is None else "%.4f" % h["min"],
                "-" if h.get("max") is None else "%.4f" % h["max"],
            ])
        sections.append(format_table(
            ["histogram", "count", "mean", "min", "max"],
            rows,
            title="Histograms",
        ))

    guard = summary.get("guard") or {}
    if (guard.get("watchdog_kills") or guard.get("quarantined")
            or guard.get("breakers_opened") or guard.get("short_circuits")):
        lines = ["Guard (watchdog / integrity / breakers):"]
        for kill in guard.get("watchdog_kills", ()):
            lines.append(
                "  watchdog killed %s after %.2fs (dispatch %d, phase %s)"
                % (kill["task"], kill["elapsed"], kill["dispatch"],
                   kill["phase"] if kill["phase"] is not None else "unknown")
            )
        for item in guard.get("quarantined", ()):
            lines.append(
                "  quarantined %d file(s) -> %s (%s)"
                % (item["files"], item["target"], item["reason"])
            )
        for opened in guard.get("breakers_opened", ()):
            lines.append(
                "  breaker opened for %s after %d failure(s): %s"
                % (opened["key"], opened["failures"], opened["signature"])
            )
        if guard.get("short_circuits"):
            lines.append(
                "  %d cell(s) short-circuited by open breakers"
                % guard["short_circuits"]
            )
        sections.append("\n".join(lines))

    serve = summary.get("serve") or {}
    if (serve.get("lifecycle") or serve.get("shed")
            or serve.get("breakers_opened") or serve.get("journal_corrupt")
            or serve.get("compactions") or serve.get("degraded_entries")
            or serve.get("worker_deaths")):
        lines = ["Serve (daemon lifecycle / admission / breakers):"]
        for item in serve.get("lifecycle", ()):
            attrs = ", ".join(
                "%s=%s" % (k, v) for k, v in sorted(item.items())
                if k not in ("event", "ts")
            )
            lines.append("  %8.3fs  %s  %s" % (item["ts"], item["event"], attrs))
        if serve.get("shed"):
            lines.append("  %d request(s) shed by admission control"
                         % serve["shed"])
        for opened in serve.get("breakers_opened", ()):
            lines.append("  breaker opened for kind %s: %s"
                         % (opened["kind"], opened["signature"]))
        if serve.get("journal_corrupt"):
            lines.append("  %d corrupt journal line(s) skipped on replay"
                         % serve["journal_corrupt"])
        if serve.get("compactions"):
            lines.append("  %d journal compaction(s)" % serve["compactions"])
        if serve.get("worker_deaths"):
            lines.append("  %d worker death(s) (respawned + re-dispatched)"
                         % serve["worker_deaths"])
        if serve.get("degraded_entries"):
            lines.append("  entered degraded mode %d time(s)"
                         % serve["degraded_entries"])
        sections.append("\n".join(lines))

    anomalies = [
        e for e in summary["events"]
        if e["name"] in ("divergence", "timeout", "cell.failed")
    ]
    if anomalies:
        lines = ["Anomaly events:"]
        for event in anomalies:
            attrs = ", ".join(
                "%s=%s" % (k, v) for k, v in sorted(event["attrs"].items())
            )
            lines.append("  %8.3fs  %s  %s" % (event["ts"], event["name"], attrs))
        sections.append("\n".join(lines))

    return "\n\n".join(sections)
