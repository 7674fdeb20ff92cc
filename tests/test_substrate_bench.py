"""Tier-1 smoke gate for the tensor substrate's training fast path.

Re-measures the traced tiny Table-II workload and fails when
``train.batch`` seconds, divided by the seconds of the rest of the
run, exceed 1.25x the committed :data:`TRAIN_BATCH_TO_REST`.
A ratio (not absolute seconds) is compared so the gate is robust to
machine speed; a fastpath regression (tape bookkeeping creeping back
into no_grad, scratch pool misses, un-fused kernels) shifts time into
``train.batch`` and moves the ratio.  The denominator is the rest of
the run rather than the whole of it, so that speeding up the other
phases cannot by itself push ``train.batch`` over the limit.
"""

from repro import telemetry
from repro.evals import MatrixSpec, run_matrix
from repro.experiments import ExperimentConfig

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
