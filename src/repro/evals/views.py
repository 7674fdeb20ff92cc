"""Shared rendering: every table/report string comes from one place.

These functions are the single source of the reproduction's report
text.  ``run_matrix`` renders a live run through them, the result
store's ``repro-report`` CLI renders recorded cells through them, and
``sweep_report`` delegates to :func:`ranked_metric_table` — so a live
sweep, a store-backed regeneration, and a serial grid sweep cannot
drift apart formatting-wise.

Only :mod:`repro.utils` (formatting), :mod:`repro.resilience`
(CellFailure) and the stdlib are imported here; rendering a stored run
must not drag in numpy or the training stack.
"""

from __future__ import annotations

import math

from ..resilience import CellFailure
from ..utils import format_float, format_table

__all__ = [
    "degraded_summary",
    "metric_cells",
    "ranked_metric_table",
    "render_view",
]

_METRICS = ("bac", "gm", "fm")


def metric_cells(metrics):
    """The BAC/GM/FM triple as table cells, or a FAILED label."""
    if isinstance(metrics, CellFailure):
        return [metrics.label()] + ["-"] * (len(_METRICS) - 1)
    return [format_float(metrics[m]) for m in _METRICS]


def _bac(metrics):
    """A cell's BAC, or None when the cell failed (degraded)."""
    if isinstance(metrics, CellFailure):
        return None
    return metrics["bac"]


def degraded_summary(results):
    """Trailer listing every FAILED cell, or an empty string."""
    failures = [
        (key, value)
        for key, value in results.items()
        if isinstance(value, CellFailure)
    ]
    if not failures:
        return ""
    lines = [
        "",
        "DEGRADED: %d / %d cell(s) failed and were excluded from summaries:"
        % (len(failures), len(results)),
    ]
    for key, failure in failures:
        cell = "/".join(str(part) for part in key)
        lines.append(
            "  %s -> %s after %d attempt(s)"
            % (cell, failure.label(width=60), failure.attempts)
        )
    return "\n".join(lines)


def _post_wins_summary(summary, results):
    datasets = summary["datasets"]
    samplers = summary["samplers"]
    post_wins = sum(
        1
        for dataset in datasets
        for name in samplers
        if _bac(results[(dataset, "post", name)]) is not None
        and _bac(results[(dataset, "pre", name)]) is not None
        and _bac(results[(dataset, "post", name)])
        > _bac(results[(dataset, "pre", name)])
    )
    cells = len(datasets) * len(samplers)
    text = "\npost beats pre in %d / %d cells (paper: 7/9)" % (post_wins, cells)
    return text, {"post_wins": post_wins, "cells": cells}


def _eos_wins_summary(summary, results):
    datasets = summary["datasets"]
    losses = summary["losses"]
    samplers = summary["samplers"]
    eos_wins = 0
    comparisons = 0
    if "eos" in samplers:
        for dataset in datasets:
            for loss in losses:
                rivals = [
                    _bac(results[(dataset, loss, s)])
                    for s in samplers
                    if s not in ("eos", "none")
                ]
                rivals = [bac for bac in rivals if bac is not None]
                eos_bac = _bac(results[(dataset, loss, "eos")])
                if rivals and eos_bac is not None:
                    comparisons += 1
                    if eos_bac >= max(rivals):
                        eos_wins += 1
    text = "\nEOS best-of-samplers in %d / %d rows" % (eos_wins, comparisons)
    return text, {"eos_wins": eos_wins, "comparisons": comparisons}


_SUMMARIES = {
    "post_wins": _post_wins_summary,
    "eos_wins": _eos_wins_summary,
}


def render_view(plan, results, timing=None):
    """Render a compiled plan over its results.

    ``results`` maps each cell key to a metrics dict or a
    :class:`CellFailure`; ``timing`` (for ``show_seconds`` plans) maps
    keys to resample+tune seconds or None.  Returns ``(report,
    extras)`` where ``extras`` carries the summary statistics
    (``post_wins`` / ``eos_wins`` …) of the view's output.
    """
    timing = timing or {}
    rows = []
    for cell in plan.cells:
        row = list(cell.row) + metric_cells(results[cell.key])
        if plan.show_seconds:
            seconds = timing.get(cell.key)
            row.append("%.2fs" % seconds if seconds is not None else "-")
        rows.append(row)
    report = format_table(list(plan.headers), rows, title=plan.title)
    extras = {}
    render_summary = _SUMMARIES.get(plan.summary.get("kind"))
    if render_summary is not None:
        text, extras = render_summary(plan.summary, results)
        report += text
    report += degraded_summary(results)
    return report, extras


# ----------------------------------------------------------------------
# Ranked sweep table (shared by sweep_report and stored-sweep views)
# ----------------------------------------------------------------------
def _rank_key(value, descending):
    """Sort key placing NaN (degraded/failed cells) last, always."""
    try:
        value = float(value)
    except (TypeError, ValueError):
        return (1, 0.0)
    if math.isnan(value):
        return (1, 0.0)
    return (0, -value if descending else value)


def ranked_metric_table(results, sort_by="bac", descending=True, title=None):
    """Render sweep records as a ranked text table.

    NaN metrics (degraded or FAILED cells) always sort below every
    finite value — regardless of ``descending`` — keeping grid order
    among themselves, and their cells are marked with a ``*``.
    """
    if not results:
        raise ValueError("no sweep results to report")
    param_names = list(results[0]["params"])
    metric_names = list(results[0]["metrics"])
    if sort_by not in metric_names:
        raise KeyError("unknown metric %r" % sort_by)
    ordered = sorted(
        results, key=lambda r: _rank_key(r["metrics"][sort_by], descending)
    )
    rows = []
    flagged = False
    for record in ordered:
        cells = [str(record["params"][name]) for name in param_names]
        for name in metric_names:
            value = record["metrics"][name]
            text = format_float(value)
            try:
                if math.isnan(float(value)):
                    text += "*"
                    flagged = True
            except (TypeError, ValueError):  # repro: noqa[RES002] non-numeric metric cells render as-is; only NaN needs flagging
                pass
            cells.append(text)
        rows.append(cells)
    table = format_table(
        param_names + metric_names,
        rows,
        title=title or ("Sweep ranked by %s" % sort_by),
    )
    if flagged:
        table += "\n* nan metric (degraded/failed evaluation); ranked last"
    return table
