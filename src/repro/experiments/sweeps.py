"""Grid sweeps over experiment configuration fields.

Generic hyper-parameter exploration for the reproduction: cross every
combination of the given config-field values, evaluate each with a
user-supplied function, and report a ranked table.  Used for the
K-neighborhood and fine-tune-length analyses beyond the fixed grids the
paper reports.
"""

from __future__ import annotations

import itertools

from ..evals.views import ranked_metric_table

__all__ = ["grid_sweep", "sweep_report"]


def grid_sweep(config, param_grid, evaluate, max_workers=1):
    """Evaluate ``evaluate(config_variant)`` over a parameter grid.

    Parameters
    ----------
    config:
        Base :class:`repro.experiments.ExperimentConfig`.
    param_grid:
        Dict mapping config field name -> list of values.  Keys that are
        not config fields raise immediately (typo guard).
    evaluate:
        Callable ``(config) -> dict`` returning at least one numeric
        metric (e.g. the BAC/GM/FM triple).
    max_workers:
        Grid points evaluated concurrently (process pool); results are
        identical to serial evaluation for any value.  ``None`` means
        one worker.

    Returns a list of ``{"params": {...}, "metrics": {...}}`` records in
    grid order.
    """
    if not param_grid:
        raise ValueError("param_grid must not be empty")
    for key in param_grid:
        if not hasattr(config, key):
            raise KeyError("unknown config field %r" % key)
    names = list(param_grid)
    variants = []
    for values in itertools.product(*(param_grid[name] for name in names)):
        params = dict(zip(names, values))
        variants.append((params, config.with_overrides(**params)))

    from ..parallel import parallel_map

    metrics_list = parallel_map(
        lambda item, _seed: dict(evaluate(item[1])),
        variants,
        max_workers=max_workers,
        task_label=lambda item, _index: repr(item[0]),
    )
    return [
        {"params": params, "metrics": metrics}
        for (params, _variant), metrics in zip(variants, metrics_list)
    ]


def sweep_report(results, sort_by="bac", descending=True, title=None):
    """Render sweep results as a ranked text table.

    NaN metrics (degraded or FAILED cells) always sort below every
    finite value — regardless of ``descending`` — keeping grid order
    among themselves, and their cells are marked with a ``*``.

    Rendering delegates to
    :func:`repro.evals.views.ranked_metric_table` — the same view
    function the result store uses — so serial sweeps and store-backed
    reports cannot drift apart.
    """
    return ranked_metric_table(results, sort_by=sort_by,
                               descending=descending, title=title)
