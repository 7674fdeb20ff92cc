"""Tier-1 gates for the tensor substrate's training fast path.

The timing gate re-measures the traced tiny Table-II workload and fails
when ``train.batch`` seconds, divided by the seconds of the rest of the
run, exceed 1.25x the committed :data:`TRAIN_BATCH_TO_REST`.
A ratio (not absolute seconds) is compared so the gate is robust to
machine speed; a fastpath regression (tape bookkeeping creeping back
into no_grad, scratch pool misses, un-fused kernels) shifts time into
``train.batch`` and moves the ratio.  The denominator is the rest of
the run, so a speed-up in the other phases raises the ratio with
``train.batch`` unchanged: batching the EOS draws took the tiny run's
EOS spans from 0.03-0.05 s to 0.006-0.008 s of a 0.35-0.51 s rest
(2-core x86 VM), 6-8% off the denominator.

The work ledger runs the same workload once and pins what it did as
exact counts: tape ops forward and backward, Module calls, scratch-pool
misses and retained bytes, and the rows each sampler synthesized.
Counts do not depend on the host, so they catch the same regressions
without noise; a change that moves one must say why in CHANGES.md.
"""

from repro import telemetry
from repro.evals import MatrixSpec, run_matrix
from repro.experiments import ExperimentConfig
from repro.telemetry import profile_ops
from repro.tensor.pool import clear_pool, pool_stats

# Median of 7 standalone runs of this measurement (2.1506, 2.182,
# 2.1954, 2.246, 2.3002, 2.3029, 2.307) on a 2-core machine, BLAS
# unpinned, float32 default.
TRAIN_BATCH_TO_REST = 2.246


def traced_table2():
    """Seconds of the whole run and of ``train.batch``, best of 2 repeats.

    Each repeat runs the tiny Table II (seed 0) under a fresh telemetry
    session; the repeat with the smaller total wins.
    """
    best = None
    for _ in range(2):
        config = ExperimentConfig(scale="tiny", seed=0)
        with telemetry.session() as tracer:
            run_matrix(MatrixSpec("table2", config=config))
        summary = telemetry.summarize_trace(tracer.records)
        span = summary["spans"].get("train.batch")
        measured = {
            "total_seconds": round(summary["total_seconds"], 4),
            "train_batch_seconds": round(span["seconds"], 4) if span else 0.0,
        }
        if best is None or measured["total_seconds"] < best["total_seconds"]:
            best = measured
    return best


def test_train_batch_share_has_not_regressed():
    measured = traced_table2()
    train_batch = measured["train_batch_seconds"]
    ratio = train_batch / (measured["total_seconds"] - train_batch)
    limit = TRAIN_BATCH_TO_REST * 1.25
    assert ratio <= limit, (
        "train.batch / rest-of-run %.4f exceeds committed baseline %.4f "
        "by more than 25%% — the substrate fast path has regressed "
        "(measured: %r)" % (ratio, TRAIN_BATCH_TO_REST, measured)
    )


# Counts of one tiny Table II run (seed 0): tape ops by name, forward
# calls by Module class, scratch-pool misses after clear_pool() and the
# bytes the pool then holds, and per sampler the number of
# fit_resample spans and synthetic rows.
FORWARD_OPS = {
    "__add__": 220, "__matmul__": 180, "__mul__": 280, "__neg__": 80,
    "__pow__": 80, "__sub__": 200, "__truediv__": 80,
    "batchnorm_train": 480, "clip": 120, "conv2d": 540, "exp": 40,
    "folded_batchnorm": 60, "global_avg_pool2d": 180, "log": 80,
    "log_softmax": 120, "nll_loss": 80, "relu": 540, "sigmoid": 40,
    "sum": 160, "transpose": 180,
}
BACKWARD_OPS = {
    "__add__": 200, "__matmul__": 160, "__mul__": 280, "__neg__": 80,
    "__pow__": 80, "__sub__": 160, "__truediv__": 80,
    "batchnorm_train": 480, "clip": 120, "conv2d": 480, "exp": 40,
    "global_avg_pool2d": 160, "log": 80, "log_softmax": 120,
    "nll_loss": 80, "relu": 480, "sigmoid": 40, "sum": 160,
    "transpose": 160,
}
LAYER_CALLS = {
    "BatchNorm2d": 540, "Conv2d": 540, "GlobalAvgPool2d": 180,
    "Linear": 180, "SmallConvNet": 160,
}
POOL = {"misses": 9, "bytes": 1282048}
SAMPLER_WORK = {
    "BalancedSVMSampler": (4, 1824), "BorderlineSMOTE": (4, 1824),
    "EOS": (4, 1824), "SMOTE": (8, 3648),
}


def table2_work_ledger():
    """Exact work counts of one tiny Table II run (seed 0)."""
    clear_pool()
    before = pool_stats()
    config = ExperimentConfig(scale="tiny", seed=0)
    with telemetry.session() as tracer, profile_ops() as prof:
        run_matrix(MatrixSpec("table2", config=config))
    after = pool_stats()
    stats = prof.stats()
    samplers = {}
    for record in tracer.records:
        if record["type"] == "span" and record["name"] == "sampler.fit_resample":
            spans, rows = samplers.get(record["attrs"]["sampler"], (0, 0))
            samplers[record["attrs"]["sampler"]] = (
                spans + 1, rows + record["attrs"]["n_synthetic"]
            )
    return {
        "forward_ops": stats["forward_ops"],
        "backward": {op: entry["count"]
                     for op, entry in stats["backward"].items()},
        "layers": {name: entry["count"]
                   for name, entry in stats["layers"].items()},
        "pool": {"misses": after["misses"] - before["misses"],
                 "bytes": after["bytes"]},
        "samplers": samplers,
    }


def test_table2_work_ledger_is_unchanged():
    ledger = table2_work_ledger()
    assert ledger["forward_ops"] == FORWARD_OPS
    assert ledger["backward"] == BACKWARD_OPS
    assert ledger["layers"] == LAYER_CALLS
    assert ledger["pool"] == POOL
    assert ledger["samplers"] == SAMPLER_WORK
