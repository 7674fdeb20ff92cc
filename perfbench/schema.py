"""Every workload and metric the harness emits, with its unit.

``BENCHMARK.json`` at the repository root declares the same names with
their directions and bounds; ``test_bench_harness.py`` keeps the two in
step.  Standard library only.
"""

from __future__ import annotations

__all__ = ["WORKLOADS", "END_TO_END", "PER_LAYER"]

WORKLOADS = (
    "table2-small",
    "runtime-rt",
    "embed-sweep",
    "serve-resample",
)

#: name -> (unit, better).  Every workload reports every one of these.
END_TO_END = {
    "throughput": ("ops/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> unit, grouped by the repro package that does the work.  A
#: layer a workload never enters reports 0.
PER_LAYER = {
    # core: Trainer.fit (phase 1), feature extraction, head fine-tuning
    "core.phase1_s": "s",
    "core.train_batch_s": "s",
    "core.train_batches": "count",
    "core.extract_s": "s",
    "core.finetune_s": "s",
    "core.finetune_batch_s": "s",
    "core.finetune_batches": "count",
    # tensor: per-op backward time and forward op count (profile_ops)
    "tensor.bwd.conv2d_s": "s",
    "tensor.bwd.batchnorm_train_s": "s",
    "tensor.bwd.relu_s": "s",
    "tensor.bwd.nll_loss_s": "s",
    "tensor.bwd.log_softmax_s": "s",
    "tensor.bwd.matmul_s": "s",
    "tensor.bwd.total_s": "s",
    "tensor.fwd_ops": "count",
    # nn: per-Module forward time (profile_ops, inclusive of children)
    "nn.fwd.Conv2d_s": "s",
    "nn.fwd.BatchNorm2d_s": "s",
    "nn.fwd.Linear_s": "s",
    # optim: SGD.step (timing shim)
    "optim.sgd_step_s": "s",
    "optim.sgd_steps": "count",
    # sampling: sampler.fit_resample spans
    "sampling.fit_resample_s": "s",
    "sampling.fit_resample.EOS_s": "s",
    "sampling.fit_resample.SMOTE_s": "s",
    "sampling.fit_resample.BorderlineSMOTE_s": "s",
    "sampling.fit_resample.BalancedSVMSampler_s": "s",
    "sampling.fit_resample.ADASYN_s": "s",
    "sampling.synthetic_rows": "count",
    # neighbors: KNeighbors.fit / query (timing shims)
    "neighbors.knn_fit_s": "s",
    "neighbors.knn_query_s": "s",
    "neighbors.knn_queries": "count",
    # evals / experiments: runner and cell spans, extractor cache, results
    "evals.runner_s": "s",
    "evals.runner_self_s": "s",
    "evals.cell_s": "s",
    "evals.cell_overhead_s": "s",
    "evals.cache_hits": "count",
    "evals.cache_misses": "count",
    "experiments.eos_bac": "BAC",
    "experiments.rt_eos_s": "s",
    "experiments.rt_pixel_s": "s",
    "experiments.rt_speedup": "x",
    # serve, client side: submit ACK, submit->settled latency, polling,
    # and the drain rate of back-to-back bursts
    "serve.ack_p50_ms": "ms",
    "serve.ack_p90_ms": "ms",
    "serve.latency_p50_ms": "ms",
    "serve.latency_p90_ms": "ms",
    "serve.result_polls_per_job": "polls/job",
    "serve.handler_ms": "ms",
    "serve.burst_jobs_per_s": "jobs/s",
    # serve, daemon side: the final health snapshot
    "serve.completed": "count",
    "serve.failed": "count",
    "serve.shed": "count",
    "serve.admission_mean_service_ms": "ms",
    "serve.journal_bytes": "B",
    "serve.journal_segments": "count",
    # parallel: the daemon's serve.batch spans (parallel_map dispatch)
    "parallel.serve_batch_s": "s",
    "parallel.serve_batches": "count",
    # the traced repeat itself
    "span_coverage": "share",
    "traced_wall_s": "s",
    "trace_overhead_s": "s",
}
