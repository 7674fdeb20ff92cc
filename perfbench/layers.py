"""Reduce one traced repeat to the per-layer metrics in ``schema.PER_LAYER``.

Inputs are what the traced repeat collected from outside the program:
the telemetry records (spans, events, the metrics snapshot), the
``profile_ops`` aggregates, and the timing shims' counters.  Standard
library only.
"""

from __future__ import annotations

__all__ = ["from_trace"]

#: profile_ops backward op name -> per-layer metric.
_BACKWARD = {
    "conv2d": "tensor.bwd.conv2d_s",
    "batchnorm_train": "tensor.bwd.batchnorm_train_s",
    "relu": "tensor.bwd.relu_s",
    "nll_loss": "tensor.bwd.nll_loss_s",
    "log_softmax": "tensor.bwd.log_softmax_s",
    "__matmul__": "tensor.bwd.matmul_s",
}

_MODULES = ("Conv2d", "BatchNorm2d", "Linear")

_SAMPLERS = ("EOS", "SMOTE", "BorderlineSMOTE", "BalancedSVMSampler", "ADASYN")


def _self_seconds(spans, name):
    """Total duration of ``name`` spans minus their direct children's.

    Children are matched by parent name one level deeper, which is
    exact here because ``runner`` and ``cell`` never nest in themselves.
    """
    total = children = 0.0
    depths = set()
    for span in spans:
        if span["name"] == name:
            total += span["dur"]
            depths.add(span["depth"])
    for span in spans:
        if span.get("parent") == name and span["depth"] - 1 in depths:
            children += span["dur"]
    return total - children


def from_trace(records, profile, shims, wall):
    """Per-layer metrics of one traced repeat lasting ``wall`` seconds.

    ``records`` is a flushed telemetry record list, ``profile`` a
    ``profile_ops.stats()`` dict (empty when no tensor work was
    profiled) and ``shims`` a ``LayerShims`` (or None).
    """
    spans = [r for r in records if r.get("type") == "span"]
    counters = {}
    for record in records:
        if record.get("type") == "metrics":
            counters = record.get("counters", {})

    def seconds(name):
        return sum(s["dur"] for s in spans if s["name"] == name)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    out = {
        "core.phase1_s": seconds("phase1"),
        "core.train_batch_s": seconds("train.batch"),
        "core.train_batches": count("train.batch"),
        "core.extract_s": seconds("extract"),
        "core.finetune_s": seconds("finetune"),
        "core.finetune_batch_s": seconds("finetune.batch"),
        "core.finetune_batches": count("finetune.batch"),
        "evals.runner_s": seconds("runner"),
        "evals.runner_self_s": _self_seconds(spans, "runner"),
        "evals.cell_s": seconds("cell"),
        "evals.cell_overhead_s": _self_seconds(spans, "cell"),
        "evals.cache_hits": counters.get("cache.hits", 0),
        "evals.cache_misses": counters.get("cache.misses", 0),
        "parallel.serve_batch_s": seconds("serve.batch"),
        "parallel.serve_batches": count("serve.batch"),
        "span_coverage": (sum(s["dur"] for s in spans if s["depth"] == 0)
                          / wall),
        "traced_wall_s": wall,
    }

    fit = [s for s in spans if s["name"] == "sampler.fit_resample"]
    out["sampling.fit_resample_s"] = sum(s["dur"] for s in fit)
    out["sampling.synthetic_rows"] = sum(
        int(s.get("attrs", {}).get("n_synthetic", 0)) for s in fit
    )
    for name in _SAMPLERS:
        out["sampling.fit_resample.%s_s" % name] = sum(
            s["dur"] for s in fit if s.get("attrs", {}).get("sampler") == name
        )

    backward = profile.get("backward", {})
    for op, metric in _BACKWARD.items():
        out[metric] = backward.get(op, {}).get("seconds", 0.0)
    out["tensor.bwd.total_s"] = sum(e["seconds"] for e in backward.values())
    out["tensor.fwd_ops"] = sum(profile.get("forward_ops", {}).values())
    modules = profile.get("layers", {})
    for name in _MODULES:
        out["nn.fwd.%s_s" % name] = modules.get(name, {}).get("seconds", 0.0)

    if shims is not None:
        out["neighbors.knn_fit_s"] = shims.seconds["neighbors.knn_fit"]
        out["neighbors.knn_query_s"] = shims.seconds["neighbors.knn_query"]
        out["neighbors.knn_queries"] = shims.calls["neighbors.knn_query"]
        out["optim.sgd_step_s"] = shims.seconds["optim.sgd_step"]
        out["optim.sgd_steps"] = shims.calls["optim.sgd_step"]
    return out
