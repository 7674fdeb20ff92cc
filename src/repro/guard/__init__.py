"""repro.guard — supervision layer for the execution substrate.

Three pillars, woven through :mod:`repro.parallel`,
:mod:`repro.resilience`, :mod:`repro.experiments` and
:mod:`repro.telemetry`:

* **Watchdog** — the process pool enforces a per-task wall-clock
  deadline (``RetryPolicy.task_deadline`` / CLI ``--task-deadline``):
  a hung worker is SIGKILLed, attributed with its elapsed time and
  last reported phase (:mod:`~repro.guard.phase`), and the task is
  re-dispatched under the same derived seed, so a hung-then-killed
  run is bit-identical to a clean one.
* **Integrity** — every checkpoint artifact carries a sha256 sidecar;
  :mod:`~repro.guard.integrity` verifies digests on resume and
  quarantines mismatched or truncated artifacts with a structured
  reason so the cell transparently recomputes (``--strict-resume``
  raises :class:`repro.resilience.CheckpointCorruptError` instead).
* **Circuit breaker** — :class:`~repro.guard.breaker.CircuitBreaker`
  trips after N equivalent failures under one configuration key and
  converts further attempts into immediate
  ``FAILED(circuit_open: <signature>)`` cells; state persists in the
  run registry and ``--reset-breakers`` clears it.

All three emit telemetry (``guard.watchdog_kill`` /
``guard.quarantined`` / ``guard.breaker_opened`` events and matching
``guard.*`` counters) that ``repro-report trace`` folds into a
dedicated guard section, and all three are exercised end-to-end by the
``hang`` and ``corrupt`` fault kinds in
:class:`repro.resilience.FaultPlan`.
"""

from .breaker import CircuitBreaker, default_breaker_key, failure_signature
from .integrity import IntegrityFailure, quarantine, verify_artifact
from .phase import current_phase, report_phase, set_phase_reporter

__all__ = [
    "CircuitBreaker",
    "default_breaker_key",
    "failure_signature",
    "IntegrityFailure",
    "quarantine",
    "verify_artifact",
    "current_phase",
    "report_phase",
    "set_phase_reporter",
]
