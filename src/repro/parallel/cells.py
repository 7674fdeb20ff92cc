"""Sweep-cell execution with the full resilience contract.

:func:`run_cells` evaluates ``(cell_id, thunk)`` tasks through one
:func:`repro.parallel.parallel_map` call at every worker count, which
runs them inline at one worker and on a call-scoped pool above it, with
the same hooks either way:

1. **resume** — cells a :class:`~repro.resilience.RunRegistry` already
   holds are loaded, not recomputed;
2. **retry** — each remaining cell runs under an optional
   :class:`~repro.resilience.RetryPolicy`; every attempt passes the
   ``sweep.cell`` fault point inside a ``cell`` span, wherever the
   thunk runs;
3. **degrade** — a cell that still fails settles as a
   :class:`~repro.resilience.CellFailure` rendered ``FAILED(...)``, so
   the sweep completes;
4. **circuit break** — with a :class:`repro.guard.CircuitBreaker`, the
   pool's ``pre_dispatch`` hook settles a cell whose configuration
   family already tripped as ``FAILED(circuit_open: <signature>)``
   without invoking its thunk, and every genuine failure feeds the
   breaker's counters.

Resume checks and registry writes happen in the calling process only
(one writer for ``manifest.json``); each outcome is checkpointed as it
settles, through the pool's ``on_result`` hook, so an interrupted batch
loses only unfinished cells.  A worker that dies (a real crash or an
injected ``SimulatedKill``) settles as
``CellFailure(error_type="WorkerDied")`` with status ``"failed"``, which
:meth:`RunRegistry.has_cell` treats as absent, so resume re-runs it.
Inline, a ``SimulatedKill`` unwinds the calling process itself, and
SIGINT/SIGTERM unwind as :class:`~repro.parallel.PoolInterrupted`.

Cell thunks carry their own seeds (runner configs seed every trial
explicitly), so the pool's derived per-task seed is unused here:
identical results at any worker count follow from order-preserved
assembly alone.
"""

from __future__ import annotations

from ..guard.breaker import default_breaker_key
from ..guard.phase import report_phase
from ..resilience.degrade import CellFailure
from ..resilience.errors import RetryBudgetExhausted
from ..resilience.faults import maybe_fire
from ..telemetry import get_metrics, get_tracer
from .pool import Skip, TaskFailure, WorkerError, parallel_map, \
    resolve_workers

__all__ = ["run_cells"]


def run_cells(tasks, registry=None, retry_policy=None, fail_soft=True,
              max_workers=None, breaker=None):
    """Evaluate sweep cells with resume, retry, degradation and breaker.

    ``tasks`` is a sequence of ``(cell_id, thunk)`` pairs; a thunk takes
    the retry :class:`~repro.resilience.Attempt` (``None`` without a
    ``retry_policy``).  Returns one outcome per task, in task order:
    the thunk's result, the registry-loaded result, or a
    :class:`CellFailure`.

    ``registry`` loads finished cells and records every new outcome
    (success *and* failure).  ``breaker`` installs a
    :class:`repro.guard.CircuitBreaker` over the batch, keyed by
    :func:`repro.guard.default_breaker_key` of the cell id.
    ``retry_policy.task_deadline`` arms the pool's hung-worker watchdog,
    with one re-dispatch per retry the policy allows.

    With ``fail_soft=False``, a cell that runs inline (one worker)
    raises its own exception at once and records nothing; across
    workers a failing cell raises :class:`~repro.parallel.WorkerError`
    *after* the batch drains, with finished cells already checkpointed.
    """
    tracer = get_tracer()
    metrics = get_metrics()
    tasks = list(tasks)
    results = [None] * len(tasks)
    pending = []
    for position, (cell_id, thunk) in enumerate(tasks):
        if registry is not None and registry.has_cell(cell_id):
            results[position] = registry.load_cell(cell_id)
            tracer.event("cell.resumed", cell=cell_id)
            metrics.counter("cells.resumed").inc()
        else:
            pending.append((position, cell_id, thunk))
    workers = min(resolve_workers(max_workers), len(pending))
    reraise = not fail_soft and workers <= 1

    def execute(task, _seed):
        """Retry + fault point + span, no registry I/O.

        Returns ``("done", result)`` or ``("failed", CellFailure)``.
        With ``reraise`` the cell's own exception escapes instead;
        non-``Exception`` errors (``SimulatedKill``) always escape, so a
        worker genuinely dies and the parent takes its dead-worker path.
        """
        _, cell_id, thunk = task
        attempts_made = [0]

        def trial(attempt):
            attempts_made[0] += 1
            index = 0 if attempt is None else attempt.index
            report_phase("cell:%s" % cell_id)
            maybe_fire("sweep.cell", cell=cell_id, attempt=index)
            return thunk(attempt)

        # get_tracer() rather than the caller's tracer: a worker installs
        # its own, whose records the pool forwards to the parent.
        with get_tracer().span("cell", cell=cell_id) as span:
            try:
                if retry_policy is not None:
                    result = retry_policy.run(trial)
                else:
                    result = trial(None)
            except Exception as exc:
                if reraise:
                    raise
                cause = exc
                if isinstance(exc, RetryBudgetExhausted) and \
                        exc.last_error is not None:
                    cause = exc.last_error
                attempts = max(attempts_made[0], 1)
                span.set(outcome="failed", attempts=attempts)
                return ("failed", CellFailure(
                    str(cause), error_type=type(cause).__name__,
                    attempts=attempts,
                ))
            span.set(outcome="done", attempts=max(attempts_made[0], 1))
        return ("done", result)

    def pre_dispatch(task, _index):
        """Settle a cell of a tripped configuration family unrun."""
        if breaker is None:
            return None
        cell_id = task[1]
        key = default_breaker_key(cell_id)
        signature = breaker.open_signature(key)
        if signature is None:
            return None
        tracer.event("guard.breaker_short_circuit", cell=cell_id, key=key,
                     signature=signature)
        metrics.counter("guard.breaker_short_circuits").inc()
        return Skip(("skipped", CellFailure(signature,
                                            error_type="circuit_open",
                                            attempts=0)))

    def record(task_index, outcome):
        """Checkpoint one settled cell, in completion order."""
        position, cell_id, _ = pending[task_index]
        if isinstance(outcome, TaskFailure):  # a dead or hung worker
            outcome = ("failed", CellFailure(
                outcome.message or outcome.reason,
                error_type=outcome.reason, attempts=1,
            ))
        kind, value = outcome
        if kind == "done":
            metrics.counter("cells.done").inc()
        elif kind == "failed":
            tracer.event("cell.failed", cell=cell_id,
                         error_type=value.error_type,
                         attempts=value.attempts)
            metrics.counter("cells.failed").inc()
            if breaker is not None:
                breaker.record_failure(default_breaker_key(cell_id),
                                       value.error_type, value.reason,
                                       count=value.attempts)
        if registry is not None:
            if kind == "done":
                registry.record_cell(cell_id, value, status="done")
            else:
                registry.record_cell(cell_id, value.to_payload(),
                                     status="failed")
        results[position] = value

    parallel_map(
        execute,
        pending,
        max_workers=workers,
        on_error="raise" if reraise else "return",
        task_label=lambda task, _index: task[1],
        on_result=record,
        task_deadline=(retry_policy.task_deadline
                       if retry_policy is not None else None),
        deadline_retries=(max(1, retry_policy.max_retries)
                          if retry_policy is not None else 1),
        pre_dispatch=pre_dispatch,
    )

    if not fail_soft and workers > 1:
        for position, outcome in enumerate(results):
            if isinstance(outcome, CellFailure):
                raise WorkerError(TaskFailure(
                    position, outcome.error_type, outcome.reason,
                ))
    return results
