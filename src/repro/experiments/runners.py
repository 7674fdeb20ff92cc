"""Cell thunks and figure/study implementations behind ``run_matrix``.

:func:`repro.evals.run_matrix` is the one entry point for every paper
view.  This module holds what it executes: the cell-thunk helpers of
the table views (``_sampler_cell`` / ``_timed_sampler_cell`` /
``_preprocessed_cell``, batched by ``_CellGrid``) and the figure/study
implementations (``_figure3_impl`` …), whose row data is not
cell-structured.  ``run_matrix`` resolves the config and the extractor
cache before it calls any of them.
"""

from __future__ import annotations

import numpy as np

from ..core import classifier_weight_norms, norm_imbalance
from ..core.gap import generalization_gap, tp_fp_gap
from ..evals.views import metric_cells as _metric_cells
from ..manifold import TSNE
from ..metrics import evaluate_predictions
from ..resilience import CellFailure
from ..telemetry import monotonic
from ..utils import format_float, format_table
from .config import build_sampler
from .pipeline import (
    ExtractorCache,
    evaluate_sampler,
    train_preprocessed,
)


def _make_cache(cache, registry, retry_policy):
    if cache is not None:
        return cache
    return ExtractorCache(registry=registry, retry_policy=retry_policy)


def _get_artifacts(cache, cfg, loss_name, fail_soft):
    """Phase-1 artifacts, or a CellFailure when training itself fails.

    A failed extractor degrades every cell that depends on it; the
    executor stamps the same failure into each of those cells.
    """
    try:
        return cache.get(cfg, loss_name)
    except Exception as exc:
        if not fail_soft:
            raise
        return CellFailure(str(exc), error_type=type(exc).__name__)


def _sampler_cell(artifacts, name, **eval_kwargs):
    """Thunk for one ``evaluate_sampler`` cell, honoring retry attempts
    (seed bump + fine-tuning LR backoff)."""
    config = artifacts.config

    def thunk(attempt):
        seed = config.seed + (0 if attempt is None else attempt.seed_offset)
        lr = config.finetune_lr * (
            1.0 if attempt is None else attempt.lr_scale
        )
        return evaluate_sampler(
            artifacts, name, seed=seed, finetune_lr=lr, **eval_kwargs
        )

    return thunk


def _timed_sampler_cell(artifacts, name, **eval_kwargs):
    """Like :func:`_sampler_cell` but keeps the resample+tune timing
    (JSON-safe payload: metrics + seconds, no weight arrays)."""
    inner = _sampler_cell(artifacts, name, return_details=True, **eval_kwargs)

    def thunk(attempt):
        details = inner(attempt)
        return {"metrics": details["metrics"], "seconds": details["seconds"]}

    return thunk


def _preprocessed_cell(config, loss_name, sampler_name):
    """Thunk for one pixel-space pre-processing cell (full retraining)."""

    def thunk(attempt):
        cfg = config
        max_seconds = None
        if attempt is not None:
            max_seconds = attempt.max_seconds
            if attempt.seed_offset or attempt.lr_scale != 1.0:
                cfg = config.with_overrides(
                    seed=config.seed + attempt.seed_offset,
                    lr=config.lr * attempt.lr_scale,
                )
        metrics, seconds = train_preprocessed(
            cfg, loss_name, sampler_name, max_seconds=max_seconds
        )
        return {"metrics": metrics, "seconds": seconds}

    return thunk


class _CellGrid:
    """Batch of sweep cells an executor collects, then runs as one unit.

    Each cell is registered with its results-dict ``key``, checkpoint
    ``cell_id`` and thunk; cells whose outcome is already decided (a
    failed extractor degrading every dependent cell) are stamped
    directly.  :meth:`run` evaluates the batch through
    :func:`repro.parallel.run_cells` — at one worker a per-cell
    ``run_cell`` loop (resume, retry, degradation and registry writes);
    above one worker the cells fan out across processes with identical
    results.
    """

    def __init__(self, registry=None, retry_policy=None, fail_soft=True,
                 workers=None, breaker=None):
        self.registry = registry
        self.retry_policy = retry_policy
        self.fail_soft = fail_soft
        self.workers = workers
        self.breaker = breaker
        self._keys = []
        self._tasks = []
        self._stamped = {}

    def add(self, key, cell_id, thunk):
        self._keys.append(key)
        self._tasks.append((cell_id, thunk))

    def stamp(self, key, outcome):
        self._stamped[key] = outcome

    def run(self):
        from ..parallel import run_cells

        outcomes = run_cells(
            self._tasks,
            registry=self.registry,
            retry_policy=self.retry_policy,
            fail_soft=self.fail_soft,
            max_workers=self.workers,
            breaker=self.breaker,
        )
        results = dict(self._stamped)
        results.update(zip(self._keys, outcomes))
        return results


# ----------------------------------------------------------------------
# Figure 3 — per-class generalization-gap curves
# ----------------------------------------------------------------------
def _figure3_impl(config, losses, samplers, cache):
    curves = {}
    rows = []
    for loss in losses:
        artifacts = cache.get(config, loss)
        train_labels = artifacts.train.labels
        for name in samplers:
            if name == "none":
                emb, labels = artifacts.train_embeddings, train_labels
            else:
                sampler = build_sampler(
                    name,
                    k_neighbors=config.k_neighbors,
                    random_state=config.seed,
                )
                emb, labels = sampler.fit_resample(
                    artifacts.train_embeddings, train_labels
                )
            gap = generalization_gap(
                emb,
                labels,
                artifacts.test_embeddings,
                artifacts.test.labels,
                artifacts.info["num_classes"],
            )
            curves[(loss, name)] = gap["per_class"]
            rows.append(
                [loss, name]
                + [format_float(v, 3) for v in gap["per_class"]]
                + [format_float(gap["mean"], 3)]
            )
    num_classes = len(next(iter(curves.values())))
    headers = ["loss", "sampler"] + ["c%d" % c for c in range(num_classes)] + ["mean"]
    report = format_table(
        headers, rows, title="Figure 3: per-class generalization gap (tail = minority)"
    )
    from ..utils import ascii_chart

    for loss in losses:
        chart_series = {
            name: curves[(loss, name)]
            for name in samplers
            if (loss, name) in curves
        }
        report += "\n\n" + ascii_chart(
            chart_series,
            width=max(40, 4 * num_classes),
            height=12,
            title="loss=%s (x: class index, y: gap)" % loss,
            x_label="class",
        )
    return {"curves": curves, "report": report}


# ----------------------------------------------------------------------
# Figure 4 — gap for true positives vs false positives
# ----------------------------------------------------------------------
def _figure4_impl(config, datasets, cache):
    results = {}
    rows = []
    for dataset in datasets:
        cfg = config.with_overrides(dataset=dataset)
        artifacts = cache.get(cfg, "ce")
        from ..core.training import predict_logits

        # Predictions must come from the phase-1 head, not whatever head
        # a previous experiment's fine-tuning left on the shared model.
        artifacts.restore_head()
        preds = predict_logits(
            artifacts.model, artifacts.test.images
        ).argmax(axis=1)
        gaps = tp_fp_gap(
            artifacts.train_embeddings,
            artifacts.train.labels,
            artifacts.test_embeddings,
            artifacts.test.labels,
            preds,
            artifacts.info["num_classes"],
        )
        results[dataset] = gaps
        rows.append(
            [
                dataset,
                format_float(gaps["tp"], 3),
                format_float(gaps["fp"], 3),
                format_float(gaps["ratio"], 2),
            ]
        )
    report = format_table(
        ["dataset", "TP gap", "FP gap", "FP/TP"],
        rows,
        title="Figure 4: generalization gap for TPs vs FPs",
    )
    return {"results": results, "report": report}


# ----------------------------------------------------------------------
# Figure 5 — classifier weight norms per class
# ----------------------------------------------------------------------
def _figure5_impl(config, losses, samplers, cache):
    profiles = {}
    rows = []
    for loss in losses:
        artifacts = cache.get(config, loss)
        for name in samplers:
            details = evaluate_sampler(artifacts, name, return_details=True)
            norms = classifier_weight_norms(details["head_weight"])
            profiles[(loss, name)] = norms
            summary = norm_imbalance(norms)
            rows.append(
                [loss, name]
                + [format_float(v, 3) for v in norms]
                + [format_float(summary["cv"], 3)]
            )
    num_classes = len(next(iter(profiles.values())))
    headers = ["loss", "sampler"] + ["c%d" % c for c in range(num_classes)] + ["cv"]
    report = format_table(
        headers, rows, title="Figure 5: classifier weight norms per class"
    )
    return {"profiles": profiles, "report": report}


# ----------------------------------------------------------------------
# Figure 6 — t-SNE of a 2-class decision boundary
# ----------------------------------------------------------------------
def _figure6_impl(config, samplers, cache, majority_class=1,
                  minority_class=9, max_points=150):
    artifacts = cache.get(config, "ce")
    embeddings = {}
    rows = []
    for name in samplers:
        if name == "none":
            emb, labels = artifacts.train_embeddings, artifacts.train.labels
        else:
            sampler = build_sampler(
                name, k_neighbors=config.k_neighbors, random_state=config.seed
            )
            emb, labels = sampler.fit_resample(
                artifacts.train_embeddings, artifacts.train.labels
            )
        mask = (labels == majority_class) | (labels == minority_class)
        sub_emb = emb[mask]
        sub_labels = labels[mask]
        if sub_emb.shape[0] > max_points:
            rng = np.random.default_rng(config.seed)
            pick = rng.choice(sub_emb.shape[0], size=max_points, replace=False)
            sub_emb, sub_labels = sub_emb[pick], sub_labels[pick]
        coords = TSNE(perplexity=12, n_iter=250, seed=config.seed).fit_transform(
            sub_emb
        )
        embeddings[name] = (coords, sub_labels)
        density = _minority_density(coords, sub_labels, minority_class)
        margin = _class_margin(coords, sub_labels, minority_class)
        rows.append([name, str(int((sub_labels == minority_class).sum())),
                     format_float(density, 3), format_float(margin, 3)])
    report = format_table(
        ["sampler", "minority pts", "minority mean-NN dist", "nearest-enemy dist"],
        rows,
        title="Figure 6: t-SNE class structure (majority=%d vs minority=%d)"
        % (majority_class, minority_class),
    )
    return {"embeddings": embeddings, "report": report}


def _minority_density(coords, labels, minority_class):
    from ..neighbors import KNeighbors

    pts = coords[labels == minority_class]
    if pts.shape[0] < 2:
        return float("nan")
    index = KNeighbors(k=1).fit(pts)
    dists, _ = index.query(pts, exclude_self=True)
    scale = np.abs(coords).max() or 1.0
    return float(dists.mean() / scale)


def _class_margin(coords, labels, minority_class):
    """Normalized mean distance from each minority point to its nearest
    other-class point in the t-SNE plane.  Low values for EOS reflect
    its boundary-targeted synthesis (samples deliberately approach the
    nearest adversaries); interpolative samplers stay interior."""
    from ..neighbors import nearest_enemies

    if (labels == minority_class).sum() == 0 or len(np.unique(labels)) < 2:
        return float("nan")
    dists, _ = nearest_enemies(coords, labels, k=1)
    scale = np.abs(coords).max() or 1.0
    minority_dists = dists[labels == minority_class, 0]
    finite = minority_dists[np.isfinite(minority_dists)]
    if finite.size == 0:
        return float("nan")
    return float(finite.mean() / scale)


# ----------------------------------------------------------------------
# Figure 7 — BAC vs fine-tuning epochs
# ----------------------------------------------------------------------
def _figure7_impl(config, samplers, cache, epochs=30):
    artifacts = cache.get(config, "ce")
    from ..core import finetune_classifier

    curves = {}
    for name in samplers:
        artifacts.restore_head()
        sampler = build_sampler(
            name, k_neighbors=config.k_neighbors, random_state=config.seed
        )
        emb, labels = sampler.fit_resample(
            artifacts.train_embeddings, artifacts.train.labels
        )

        def eval_hook(epoch):
            from ..core.training import predict_logits

            test_preds = predict_logits(
                artifacts.model, artifacts.test.images
            ).argmax(axis=1)
            train_preds = predict_logits(
                artifacts.model, artifacts.train.images
            ).argmax(axis=1)
            return {
                "test_bac": evaluate_predictions(
                    artifacts.test.labels, test_preds,
                    artifacts.info["num_classes"]
                )["bac"],
                "train_bac": evaluate_predictions(
                    artifacts.train.labels, train_preds,
                    artifacts.info["num_classes"]
                )["bac"],
            }

        history = finetune_classifier(
            artifacts.model,
            emb,
            labels,
            epochs=epochs,
            rng=np.random.default_rng(config.seed + 3),
            eval_hook=eval_hook,
        )
        curves[name] = history
    rows = []
    for name, history in curves.items():
        for rec in history:
            rows.append(
                [
                    name,
                    str(rec["epoch"]),
                    format_float(rec["train_bac"]),
                    format_float(rec["test_bac"]),
                ]
            )
    report = format_table(
        ["sampler", "epoch", "train BAC", "test BAC"],
        rows,
        title="Figure 7: balanced accuracy vs classifier fine-tuning epochs",
    )
    from ..utils import ascii_chart

    chart_series = {}
    for name, history in curves.items():
        chart_series["%s train" % name] = [r["train_bac"] for r in history]
        chart_series["%s test" % name] = [r["test_bac"] for r in history]
    report += "\n\n" + ascii_chart(
        chart_series, width=60, height=12,
        title="fine-tuning curves (x: epoch, y: BAC)", x_label="epoch",
    )
    return {"curves": curves, "report": report}


# ----------------------------------------------------------------------
# §V-E2 — runtime comparison
# ----------------------------------------------------------------------
def _runtime_comparison_impl(config, samplers):
    pre_seconds = []
    rows = []
    for name in samplers:
        _, seconds = train_preprocessed(config, "ce", name)
        pre_seconds.append(seconds)
        rows.append(["pre-%s (full training)" % name, "%.2f" % seconds])
    avg_pre = float(np.mean(pre_seconds))

    from .pipeline import train_phase1

    start = monotonic()
    artifacts = train_phase1(config, "ce")
    evaluate_sampler(artifacts, "eos")
    eos_seconds = monotonic() - start
    rows.append(["EOS (phase1 + embed + fine-tune)", "%.2f" % eos_seconds])
    speedup = avg_pre / eos_seconds if eos_seconds > 0 else float("inf")
    report = format_table(
        ["pipeline", "seconds"],
        rows,
        title="Runtime: pre-processing vs EOS framework",
    )
    report += "\naverage pre / EOS = %.2fx (paper: ~2.9x)" % speedup
    return {
        "pre_seconds": pre_seconds,
        "eos_seconds": eos_seconds,
        "speedup": speedup,
        "report": report,
    }


# ----------------------------------------------------------------------
# §V-E3 — EOS in pixel space vs embedding space
# ----------------------------------------------------------------------
def _eos_pixel_vs_embedding_impl(config, cache):
    pixel_metrics, _ = train_preprocessed(config, "ce", "eos")
    artifacts = cache.get(config, "ce")
    embedding_metrics = evaluate_sampler(artifacts, "eos")
    rows = [
        ["EOS in pixel space"] + _metric_cells(pixel_metrics),
        ["EOS in embedding space"] + _metric_cells(embedding_metrics),
    ]
    report = format_table(
        ["variant", "BAC", "GM", "FM"],
        rows,
        title="EOS: pixel-space vs embedding-space application",
    )
    delta = embedding_metrics["bac"] - pixel_metrics["bac"]
    report += "\nembedding-space advantage: %+.4f BAC" % delta
    return {
        "pixel": pixel_metrics,
        "embedding": embedding_metrics,
        "delta_bac": delta,
        "report": report,
    }
