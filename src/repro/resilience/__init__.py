"""Fault-tolerant experiment execution.

Long multi-seed sweeps on a CPU-only numpy substrate must survive the
failures that real training runs hit: divergent trials (GAN baselines
especially), crashed cells, and killed processes.  This package supplies
the four coordinated pieces:

* :mod:`~repro.resilience.checkpoint` — :class:`RunRegistry`, a durable
  run manifest plus phase-boundary artifact store (atomic writes), so an
  interrupted sweep resumes from its completed cells;
* :mod:`~repro.resilience.retry` — :class:`RetryPolicy`, deterministic
  seed-bump + LR-backoff retry with per-trial wall-clock budgets;
* :mod:`~repro.resilience.degrade` — :class:`CellFailure`, the graceful
  ``FAILED(reason)`` outcome of a sweep cell that
  :func:`repro.parallel.run_cells` settles instead of raising;
* :mod:`~repro.resilience.faults` — :class:`FaultPlan`, deterministic
  injection of NaN losses, raised exceptions, simulated kills, hung
  workers and corrupted artifacts, so all of the above is testable
  against the real code paths.

The supervision layer on top — hung-worker watchdog, artifact digest
verification/quarantine, failure circuit breakers — lives in
:mod:`repro.guard` and plugs into this package through
``RetryPolicy.task_deadline``, ``RunRegistry(strict=...)`` /
``RunRegistry.load_breakers`` and the ``breaker`` argument of
:func:`repro.parallel.run_cells`.
"""

from .checkpoint import RunRegistry, fingerprint_of
from .degrade import CellFailure, failure_from_payload
from .errors import (
    CheckpointCorruptError,
    CheckpointMismatchError,
    DivergenceError,
    FaultInjected,
    ResilienceError,
    RetryBudgetExhausted,
    SimulatedKill,
    TrialTimeoutError,
)
from .faults import (
    FaultPlan,
    active_plan,
    clear_faults,
    inject_faults,
    install_faults,
    maybe_fire,
)
from .retry import Attempt, RetryPolicy

__all__ = [
    "RunRegistry",
    "fingerprint_of",
    "CellFailure",
    "failure_from_payload",
    "ResilienceError",
    "DivergenceError",
    "TrialTimeoutError",
    "RetryBudgetExhausted",
    "CheckpointCorruptError",
    "CheckpointMismatchError",
    "FaultInjected",
    "SimulatedKill",
    "FaultPlan",
    "active_plan",
    "clear_faults",
    "inject_faults",
    "install_faults",
    "maybe_fire",
    "Attempt",
    "RetryPolicy",
]
