"""Substrate benchmark: traced tiny Table-II plus hot-kernel micro timings.

Measures the two things the ROADMAP's "make the tensor substrate fast"
item cares about:

* the **traced tiny Table-II run** — the same workload BENCH_trace.json
  recorded — reporting wall time and the share of ``train.batch`` (the
  autograd hot path) in the total, and
* **micro-kernels**: conv2d forward+backward (the dominant op by tape
  profile), a full eval-mode model forward under ``no_grad`` (the fast
  path that skips tape bookkeeping), and one head fine-tuning step.

Run it from the repo root::

    PYTHONPATH=src python benchmarks/bench_substrate.py --out measured.json

The committed ``BENCH_substrate.json`` holds a ``before`` snapshot
(recorded at the pre-optimization commit) and an ``after`` snapshot from
the same machine, plus a ``gate`` value; ``tests/test_substrate_bench.py``
re-measures at tiny scale and fails when ``train.batch`` seconds over the
seconds of the rest of the run exceed 1.25x that committed value.
"""

from __future__ import annotations

import argparse
import json

import numpy as np

from repro import telemetry
from repro.evals import MatrixSpec, run_matrix
from repro.experiments import ExperimentConfig
from repro.telemetry import summarize_trace
from repro.telemetry.clock import monotonic

__all__ = ["traced_table2", "micro_kernels", "measure_all"]


def _default_dtype():
    """The substrate default; float64 on the pre-switch substrate."""
    try:
        from repro.tensor import default_dtype
    except ImportError:
        return np.float64
    return default_dtype()


def traced_table2(seed=0, repeats=1):
    """Run the traced tiny Table-II workload; return span aggregates.

    This is the BENCH_trace.json workload: every phase-1 extractor, every
    sampler comparison, fully traced.  Returns total wall seconds plus
    per-span totals for the hot-path spans and the ``train.batch`` share.
    """
    best = None
    for _ in range(repeats):
        config = ExperimentConfig(scale="tiny", seed=seed)
        with telemetry.session() as sess:
            run_matrix(MatrixSpec("table2", config=config))
        summary = summarize_trace(sess.records)
        spans = summary["spans"]

        def span_seconds(name):
            entry = spans.get(name)
            return round(entry["seconds"], 4) if entry else 0.0

        total = summary["total_seconds"]
        result = {
            "total_seconds": round(total, 4),
            "train_batch_seconds": span_seconds("train.batch"),
            "finetune_batch_seconds": span_seconds("finetune.batch"),
            "extract_seconds": span_seconds("extract"),
            "train_batch_share": round(
                span_seconds("train.batch") / total, 4
            ) if total else 0.0,
        }
        if best is None or result["total_seconds"] < best["total_seconds"]:
            best = result
    return best


def _best_of(fn, repeats=5, inner=1):
    """Minimum wall seconds of ``inner`` calls, over ``repeats`` trials."""
    best = float("inf")
    for _ in range(repeats):
        start = monotonic()
        for _ in range(inner):
            fn()
        best = min(best, (monotonic() - start) / inner)
    return best


def micro_kernels(repeats=5):
    """Time the individual hot kernels; returns {name: seconds}."""
    from repro.losses import CrossEntropyLoss
    from repro.nn import SmallConvNet
    from repro.optim import SGD
    from repro.tensor import Tensor, conv2d, no_grad

    dt = _default_dtype()
    rng = np.random.default_rng(0)
    results = {}

    # conv2d forward+backward: the top op by tape-profiler backward cost.
    x_data = rng.normal(size=(32, 8, 12, 12)).astype(dt)
    w_data = (rng.normal(size=(16, 8, 3, 3)) * 0.1).astype(dt)
    x = Tensor(x_data, requires_grad=True)
    w = Tensor(w_data, requires_grad=True)

    def conv_train():
        x.zero_grad()
        w.zero_grad()
        out = conv2d(x, w, stride=1, padding=1)
        out.sum().backward()

    results["conv2d_train_step"] = _best_of(conv_train, repeats, inner=4)

    # conv2d forward under no_grad: the eval/extract fast path.
    x_eval = Tensor(x_data)
    w_eval = Tensor(w_data)

    def conv_eval():
        with no_grad():
            conv2d(x_eval, w_eval, stride=1, padding=1)

    results["conv2d_eval_forward"] = _best_of(conv_eval, repeats, inner=8)

    # Full model eval forward (BN running-stats path + pooling + head).
    model = SmallConvNet(num_classes=10, in_channels=3, width=8,
                         rng=np.random.default_rng(1))
    batch = (rng.normal(size=(64, 3, 12, 12)) * 0.2).astype(dt)
    model(Tensor(batch))  # one training-mode pass to warm BN stats
    model.eval()

    def model_eval():
        with no_grad():
            model(Tensor(batch))

    results["model_eval_forward"] = _best_of(model_eval, repeats, inner=4)

    # One head fine-tuning step: the phase-3 hot loop.
    emb = rng.normal(size=(256, model.feature_dim)).astype(dt)
    labels = rng.integers(0, 10, size=256)
    loss = CrossEntropyLoss()
    optimizer = SGD(model.classifier.parameters(), lr=0.05, momentum=0.9)

    def finetune_step():
        optimizer.zero_grad()
        value = loss(model.forward_head(Tensor(emb)), labels)
        value.backward()
        optimizer.step()

    results["finetune_step"] = _best_of(finetune_step, repeats, inner=8)

    return {name: round(seconds, 6) for name, seconds in results.items()}


def measure_all(seed=0, table_repeats=1, micro_repeats=5):
    """One full measurement payload (table run + micro kernels)."""
    return {
        "default_dtype": str(np.dtype(_default_dtype())),
        "table2_tiny_traced": traced_table2(seed=seed, repeats=table_repeats),
        "micro_kernels": micro_kernels(repeats=micro_repeats),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="write the measurement JSON here")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--table-repeats", type=int, default=1)
    parser.add_argument("--micro-repeats", type=int, default=5)
    args = parser.parse_args(argv)
    payload = measure_all(seed=args.seed, table_repeats=args.table_repeats,
                          micro_repeats=args.micro_repeats)
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
