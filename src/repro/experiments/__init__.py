"""Experiment harness: configs, the three-phase pipeline and run results.

Every paper view, seed-averaged runs included, runs through
:func:`repro.evals.run_matrix`: ``MatrixSpec(seeds=...)`` expands the
seed axis and its report ends with a mean ± std-over-seeds table.
"""

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
]
