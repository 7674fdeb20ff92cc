"""Experiment harness: configs, pipelines, statistics and sweeps."""

from .config import (
    LOSS_NAMES,
    SAMPLER_NAMES,
    ExperimentConfig,
    bench_config,
    build_sampler,
    full_config,
)
from .pipeline import (
    ExtractorCache,
    Phase1Artifacts,
    evaluate_sampler,
    phase1_fingerprint,
    train_phase1,
    train_preprocessed,
)
from .result import RunResult
from .stats import aggregate_metrics, repeated_sampler_comparison, run_seeds
from .sweeps import grid_sweep, sweep_report

__all__ = [
    "ExperimentConfig",
    "bench_config",
    "full_config",
    "build_sampler",
    "SAMPLER_NAMES",
    "LOSS_NAMES",
    "ExtractorCache",
    "Phase1Artifacts",
    "evaluate_sampler",
    "phase1_fingerprint",
    "train_phase1",
    "train_preprocessed",
    "RunResult",
    "aggregate_metrics",
    "run_seeds",
    "repeated_sampler_comparison",
    "grid_sweep",
    "sweep_report",
]
