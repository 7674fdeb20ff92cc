"""Multi-seed repetition and aggregation for experiment results.

The paper trains every model on three cuts of the training set and
reports a single representative cut (variation < 2 BAC points).  These
helpers make that protocol explicit: run any metric-producing function
over several seeds and aggregate mean/std per metric.
"""

from __future__ import annotations

import numpy as np

from ..utils import format_float, format_table

__all__ = ["aggregate_metrics", "run_seeds", "repeated_sampler_comparison"]


def aggregate_metrics(metric_dicts):
    """Aggregate a list of {metric: value} dicts into mean/std per metric.

    Returns ``{metric: (mean, std)}``; every dict must share keys.
    """
    if not metric_dicts:
        raise ValueError("no metric dicts to aggregate")
    keys = set(metric_dicts[0])
    for d in metric_dicts[1:]:
        if set(d) != keys:
            raise ValueError("metric dicts have mismatched keys")
    return {
        key: (
            float(np.mean([d[key] for d in metric_dicts])),
            float(np.std([d[key] for d in metric_dicts])),
        )
        for key in keys
    }


def run_seeds(fn, seeds, max_workers=1):
    """Call ``fn(seed)`` (returning a metric dict) for each seed; aggregate.

    ``max_workers`` runs the seeds across worker processes (results are
    identical to serial for any value; ``None`` means one worker).
    Returns ``(per_seed_list, aggregated)``.
    """
    from ..parallel import parallel_map

    per_seed = parallel_map(
        lambda seed, _derived: fn(seed),
        seeds,
        max_workers=max_workers,
        task_label=lambda seed, _index: "seed=%r" % (seed,),
    )
    return per_seed, aggregate_metrics(per_seed)


def repeated_sampler_comparison(config, loss_name, sampler_names, seeds,
                                max_workers=1):
    """Seed-averaged sampler comparison on fresh extractors.

    Trains one extractor per seed (its own training cut and model init)
    and evaluates every sampler on each, mirroring the paper's
    three-cut protocol.  Each seed is one unit of parallel work (the
    extractor training dominates); ``max_workers`` fans seeds out with
    bit-identical results.  Returns a dict with per-sampler aggregated
    metrics and a rendered report.
    """
    from ..parallel import parallel_map
    from .pipeline import evaluate_sampler, train_phase1

    def one_seed(seed, _derived):
        artifacts = train_phase1(config.with_overrides(seed=seed), loss_name)
        return [evaluate_sampler(artifacts, name) for name in sampler_names]

    per_seed = parallel_map(
        one_seed,
        seeds,
        max_workers=max_workers,
        task_label=lambda seed, _index: "seed=%r" % (seed,),
    )
    per_sampler = {name: [] for name in sampler_names}
    for seed_metrics in per_seed:
        for name, metrics in zip(sampler_names, seed_metrics):
            per_sampler[name].append(metrics)

    aggregated = {
        name: aggregate_metrics(runs) for name, runs in per_sampler.items()
    }
    rows = []
    for name, agg in aggregated.items():
        rows.append(
            [name]
            + [
                "%s ±%s" % (format_float(agg[m][0]), format_float(agg[m][1], 3))
                for m in ("bac", "gm", "fm")
            ]
        )
    report = format_table(
        ["sampler", "BAC", "GM", "FM"],
        rows,
        title="Seed-averaged comparison (%s, %s, %d seeds)"
        % (config.dataset, loss_name, len(seeds)),
    )
    return {"per_sampler": per_sampler, "aggregated": aggregated, "report": report}
