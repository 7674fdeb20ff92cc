"""Regenerate tables, run listings and the perf trajectory from the store.

A completed matrix run carries its full rendering recipe — the
compiled plan (title, headers, row labels, summary spec) plus every
cell payload — so :func:`regenerate` rebuilds any table *byte-identical*
to the live runner's report without retraining a single cell: the same
:func:`repro.evals.views.render_view` renders both.

:func:`perf_report` is the cross-run view: per-view run history
(duration + headline BAC, with deltas against the previous run of the
same view) joined with ingested benchmark records, so a speed or
metric regression surfaces as a signed diff instead of requiring a
manual comparison of checkpoint dirs.
"""

from __future__ import annotations

import json

from ..resilience import failure_from_payload
from ..utils import format_table
from .matrix import plan_from_payload
from .store import EvalsStoreError
from .views import render_view

__all__ = ["load_run_results", "perf_report", "regenerate", "runs_report"]


def _resolve_run(store, view, run_id):
    if run_id is None:
        run_id = store.latest_run_id(view, status="complete")
        if run_id is None:
            run_id = store.latest_run_id(view)
    if run_id is None:
        raise EvalsStoreError("store %s has no run for view %r"
                              % (store.path, view))
    run = store.run_row(run_id)
    if run is None:
        raise EvalsStoreError("store %s has no run %r"
                              % (store.path, run_id))
    return run


def load_run_results(store, run):
    """Rebuild (plan, results, timing) for a stored table run."""
    plan = plan_from_payload(json.loads(run["plan_json"]))
    recorded = store.cell_results(run["run_id"])
    results = {}
    timing = {}
    missing = []
    for cell in plan.cells:
        row = recorded.get(cell.cell_id)
        if row is None:
            missing.append(cell.cell_id)
            continue
        if row["status"] == "failed":
            results[cell.key] = failure_from_payload(row["payload"])
            if cell.timed:
                timing[cell.key] = None
        elif cell.timed:
            results[cell.key] = row["payload"]["metrics"]
            timing[cell.key] = row["payload"]["seconds"]
        else:
            results[cell.key] = row["payload"]
    if missing:
        raise EvalsStoreError(
            "run %d of view %r is missing %d cell(s) (%s); resume the "
            "run before regenerating its table"
            % (run["run_id"], plan.view, len(missing),
               ", ".join(missing[:5]))
        )
    return plan, results, timing


def regenerate(store, view, run_id=None):
    """Re-render a view's report from recorded cells (no retraining).

    Table views re-render through :func:`render_view`; figure views
    (whose row data is not cell-structured) return the report recorded
    when the run finished.
    """
    run = _resolve_run(store, view, run_id)
    if run.get("plan_json"):
        plan, results, timing = load_run_results(store, run)
        report, _ = render_view(plan, results, timing)
        return report
    if run.get("report") is None:
        raise EvalsStoreError(
            "run %d of view %r never finished and recorded no report"
            % (run["run_id"], run["view"])
        )
    return run["report"]


def runs_report(store):
    """Table of every recorded run, oldest first."""
    rows = []
    for run in store.runs():
        rows.append([
            str(run["run_id"]),
            run["view"],
            run["status"],
            "%.1fs" % run["seconds"] if run["seconds"] is not None else "-",
            (run["git_sha"] or "-")[:12],
            run["fingerprint"] or "-",
        ])
    if not rows:
        return "store %s holds no runs yet" % store.path
    return format_table(
        ["run", "view", "status", "seconds", "git", "fingerprint"],
        rows,
        title="Recorded matrix runs (%s)" % store.path,
    )


# ----------------------------------------------------------------------
# Perf trajectory: run history + bench history, with deltas
# ----------------------------------------------------------------------
def _mean_bac(store, run):
    values = []
    for row in store.cell_results(run["run_id"]).values():
        if row["status"] != "done":
            continue
        payload = row["payload"]
        metrics = payload.get("metrics", payload)
        bac = metrics.get("bac") if isinstance(metrics, dict) else None
        if isinstance(bac, (int, float)):
            values.append(float(bac))
    if not values:
        return None
    return sum(values) / len(values)


def _delta(value, prior):
    if value is None or prior is None:
        return "-"
    return "%+.4f" % (value - prior)


def perf_report(store):
    """Cross-run perf trajectory: durations, headline BAC, bench diffs."""
    sections = []

    rows = []
    previous = {}
    for run in store.runs():
        if run["status"] != "complete":
            continue
        view = run["view"]
        seconds = run["seconds"]
        bac = _mean_bac(store, run)
        prior_seconds, prior_bac = previous.get(view, (None, None))
        rows.append([
            str(run["run_id"]),
            view,
            "%.2fs" % seconds if seconds is not None else "-",
            ("%+.2fs" % (seconds - prior_seconds)
             if seconds is not None and prior_seconds is not None else "-"),
            "%.4f" % bac if bac is not None else "-",
            _delta(bac, prior_bac),
        ])
        previous[view] = (seconds, bac)
    if rows:
        sections.append(format_table(
            ["run", "view", "seconds", "Δs vs prev", "mean BAC",
             "ΔBAC vs prev"],
            rows,
            title="Perf trajectory: completed runs per view",
        ))
    else:
        sections.append("no completed runs recorded yet")

    bench_rows = []
    last_seen = {}
    for entry in store.bench_rows():
        payload = json.loads(entry["payload_json"])
        scalars = _flatten_scalars(payload)
        prior = last_seen.get(entry["name"], {})
        for field in sorted(scalars):
            value = scalars[field]
            bench_rows.append([
                entry["name"],
                field,
                "%.4f" % value,
                _delta(value, prior.get(field)),
            ])
        last_seen[entry["name"]] = scalars
    if bench_rows:
        sections.append(format_table(
            ["benchmark", "field", "value", "Δ vs prev"],
            bench_rows,
            title="BENCH history",
        ))
    return "\n\n".join(sections)


def _flatten_scalars(payload, prefix=""):
    """Numeric leaves of a nested bench payload, dot-joined."""
    scalars = {}
    if isinstance(payload, dict):
        for key, value in payload.items():
            scalars.update(_flatten_scalars(value, prefix + str(key) + "."))
    elif isinstance(payload, (int, float)) and not isinstance(payload, bool):
        scalars[prefix[:-1]] = float(payload)
    return scalars
