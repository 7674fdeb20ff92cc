"""Shared rendering: every table/report string comes from one place.

These functions are the single source of the reproduction's report
text.  ``run_matrix`` renders a live run through them and the result
store's ``repro-report`` CLI renders recorded cells through them, so a
live run and a store-backed regeneration cannot drift apart
formatting-wise.  A run with a ``seed`` axis also gets its
mean ± std-over-seeds table here, from the same cells.

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


def _post_wins_summary(plan, results):
    datasets = plan.summary["datasets"]
    samplers = plan.summary["samplers"]
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


def _eos_wins_summary(plan, results):
    datasets = plan.summary["datasets"]
    losses = plan.summary["losses"]
    samplers = plan.summary["samplers"]
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


def _mean_std(values):
    """Mean and population (ddof=0) standard deviation."""
    mean = math.fsum(values) / len(values)
    variance = math.fsum((value - mean) ** 2 for value in values)
    return mean, math.sqrt(variance / len(values))


def _seed_mean_summary(plan, results):
    """Mean ± std of BAC/GM/FM over the seed axis, one row per cell key.

    Rows drop the seed component from the key (so ``hyper`` values stay
    apart) and come in first-appearance order.  Failed seeds are left
    out of the mean; ``n`` counts the seeds averaged, and a row whose
    seeds all failed prints ``-``.
    """
    index, column = plan.summary["key_index"], plan.summary["column"]
    groups = {}
    for cell in plan.cells:
        key = cell.key[:index] + cell.key[index + 1:]
        label = cell.row[:column] + cell.row[column + 1:]
        runs = groups.setdefault(key, (label, []))[1]
        if not isinstance(results[cell.key], CellFailure):
            runs.append(results[cell.key])
    rows = []
    seed_means = {}
    for key, (label, runs) in groups.items():
        stats = {metric: _mean_std([run[metric] for run in runs])
                 if runs else None for metric in _METRICS}
        seed_means[key] = dict(stats, n=len(runs))
        texts = ["-" if stat is None else "%s ±%s" % (
                     format_float(stat[0]), format_float(stat[1], 3))
                 for stat in stats.values()]
        rows.append(list(label) + texts + [str(len(runs))])
    headers = [name for position, name in enumerate(plan.headers)
               if position != column]
    if plan.show_seconds:
        headers.pop()  # no resample+tune column: seconds are not averaged
    table = format_table(
        headers + ["n"], rows,
        title="Mean ± std over seeds %s"
              % ", ".join(str(seed) for seed in plan.summary["seeds"]),
    )
    return "\n\n" + table, {"seed_means": seed_means}


_SUMMARIES = {
    "post_wins": _post_wins_summary,
    "eos_wins": _eos_wins_summary,
    "seed_mean": _seed_mean_summary,
}


def render_view(plan, results, timing=None):
    """Render a compiled plan over its results.

    ``results`` maps each cell key to a metrics dict or a
    :class:`CellFailure`; ``timing`` (for ``show_seconds`` plans) maps
    keys to resample+tune seconds or None.  Returns ``(report,
    extras)`` where ``extras`` carries the summary statistics
    (``post_wins`` / ``eos_wins`` / ``seed_means`` …) of the view's
    output.
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
        text, extras = render_summary(plan, results)
        report += text
    report += degraded_summary(results)
    return report, extras
