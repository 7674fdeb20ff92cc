"""Deterministic parallel execution for sweeps, trials and serve jobs.

Public surface:

* :class:`PersistentPool` — the one worker supervisor: a set of
  workers forked once, fed tasks as pickled frames; explicit per-task
  seeds keep results byte-identical, and dead/hung workers are
  SIGKILLed, respawned, and their task re-dispatched under the same
  seed.  The serve daemon keeps one alive for its whole life.
* :func:`parallel_map` — a call-scoped ``PersistentPool`` whose results
  are bit-identical to serial execution for any worker count (per-task
  seeds derived from position, results assembled in item order); the
  workers fork after ``fn`` and ``items`` exist, so only indices and
  results cross the pipes.
* :func:`run_cells` — the sweep-cell runner: resume, retry,
  ``FAILED(...)`` degradation and circuit breaking over one
  :func:`parallel_map` call at any worker count.
* :func:`derive_seed` — the position-based seed derivation.
* :func:`resolve_workers` — the effective worker count of a
  ``max_workers`` argument; ``None`` means one worker, so every caller
  that wants more passes its count explicitly.
* :func:`in_worker` — True inside a pool worker (nested pools degrade
  to serial there).
* :class:`TaskFailure` / :class:`WorkerError` — per-task failure record
  and the exception wrapping it.
* :class:`PoolInterrupted` — structured SIGINT/SIGTERM interruption
  (a ``KeyboardInterrupt`` subclass raised only after every worker has
  been killed and reaped, carrying settled vs pending task indices).
* :class:`Skip` — sentinel a ``pre_dispatch`` hook returns to settle a
  task without running it (how open circuit breakers short-circuit
  queued cells).

The pool is supervised by :mod:`repro.guard`: a per-task wall-clock
deadline (``task_deadline``) SIGKILLs hung workers, and a hung or dead
worker's task is re-dispatched under the same derived seed, preserving
bit-exactness.

All process fan-out in this codebase goes through this package — lint
rule PAR001 flags direct ``multiprocessing``/``concurrent.futures``
use elsewhere.
"""

from .cells import run_cells
from .pool import (
    PersistentPool,
    PoolInterrupted,
    Skip,
    TaskFailure,
    WorkerError,
    derive_seed,
    in_worker,
    parallel_map,
    resolve_workers,
)

__all__ = [
    "PersistentPool",
    "PoolInterrupted",
    "Skip",
    "TaskFailure",
    "WorkerError",
    "derive_seed",
    "in_worker",
    "parallel_map",
    "resolve_workers",
    "run_cells",
]
