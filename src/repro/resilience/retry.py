"""Retry policies for divergent or timed-out training trials.

GAN-based over-samplers (and, at aggressive learning rates, plain CNN
training) occasionally diverge to NaN; on a CPU-only substrate a single
such trial used to abort an hours-long sweep.  :class:`RetryPolicy`
re-runs a failed trial with a deterministic *seed bump* (so the retry
explores a different random draw, reproducibly) and a *learning-rate
backoff* (the standard fix for divergence), up to a bounded budget and
optional per-trial wall-clock timeout.

The schedule is pure data — :meth:`RetryPolicy.attempts` yields the same
:class:`Attempt` sequence every time, which is what makes retried runs
reproducible end-to-end.
"""

from __future__ import annotations

from .errors import DivergenceError, RetryBudgetExhausted, TrialTimeoutError

__all__ = ["Attempt", "RetryPolicy"]


class Attempt:
    """One scheduled trial attempt.

    Attributes
    ----------
    index:
        0 for the initial try, 1.. for retries.
    seed_offset:
        Deterministic offset to add to the trial's base seed
        (``index * seed_bump``).
    lr_scale:
        Multiplier for the trial's learning rate
        (``lr_backoff ** index``).
    max_seconds:
        Per-trial wall-clock budget, or None for unlimited.
    """

    __slots__ = ("index", "seed_offset", "lr_scale", "max_seconds")

    def __init__(self, index, seed_offset, lr_scale, max_seconds):
        self.index = index
        self.seed_offset = seed_offset
        self.lr_scale = lr_scale
        self.max_seconds = max_seconds

    def __repr__(self):
        return ("Attempt(index=%d, seed_offset=%d, lr_scale=%g, "
                "max_seconds=%r)" % (self.index, self.seed_offset,
                                     self.lr_scale, self.max_seconds))


class RetryPolicy:
    """Bounded retry with deterministic seed-bump and LR backoff.

    Parameters
    ----------
    max_retries:
        Retries allowed *after* the initial attempt (total attempts =
        ``max_retries + 1``).
    seed_bump:
        Seed offset added per retry, so attempt ``i`` runs with
        ``base_seed + i * seed_bump``.  Deterministic by construction.
    lr_backoff:
        Per-retry learning-rate multiplier (attempt ``i`` trains at
        ``lr * lr_backoff ** i``).
    trial_timeout:
        Optional per-attempt wall-clock budget in seconds (positive),
        carried on each :class:`Attempt` for the trial to enforce.
    retry_on:
        Exception types that trigger a retry; anything else propagates
        immediately.  Defaults to divergence and timeout.
    task_deadline:
        Optional per-task wall-clock budget in seconds enforced
        *externally* by the process pool's watchdog
        (:func:`repro.parallel.parallel_map`): a worker past this
        deadline is SIGKILLed and its task re-dispatched under the same
        seed.  Unlike ``trial_timeout`` (which the trial checks
        cooperatively between batches), the watchdog catches workers
        that are fully hung and can no longer check anything.
    """

    def __init__(self, max_retries=2, seed_bump=1000, lr_backoff=0.5,
                 trial_timeout=None,
                 retry_on=(DivergenceError, TrialTimeoutError),
                 task_deadline=None):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (0.0 < lr_backoff <= 1.0):
            raise ValueError("lr_backoff must be in (0, 1]")
        if trial_timeout is not None and trial_timeout <= 0:
            raise ValueError("trial_timeout must be positive")
        if task_deadline is not None and task_deadline <= 0:
            raise ValueError("task_deadline must be positive")
        self.max_retries = int(max_retries)
        self.seed_bump = int(seed_bump)
        self.lr_backoff = float(lr_backoff)
        self.trial_timeout = trial_timeout
        self.retry_on = tuple(retry_on)
        self.task_deadline = (None if task_deadline is None
                              else float(task_deadline))

    def attempts(self):
        """Yield the deterministic :class:`Attempt` schedule."""
        for index in range(self.max_retries + 1):
            yield Attempt(
                index,
                index * self.seed_bump,
                self.lr_backoff ** index,
                self.trial_timeout,
            )

    def run(self, trial, on_retry=None):
        """Run ``trial(attempt)`` until it succeeds or the budget is spent.

        Parameters
        ----------
        trial:
            Callable receiving an :class:`Attempt`; its return value is
            passed through on success.
        on_retry:
            Optional callback ``(attempt, exc)`` invoked after each
            failed attempt (for logging / bookkeeping).

        Raises
        ------
        RetryBudgetExhausted
            When every attempt failed with a retryable error; the last
            error is chained as ``__cause__``.
        """
        last_error = None
        attempts_made = 0
        for attempt in self.attempts():
            attempts_made += 1
            try:
                return trial(attempt)
            except self.retry_on as exc:
                last_error = exc
                if on_retry is not None:
                    on_retry(attempt, exc)
        raise RetryBudgetExhausted(
            "trial failed on every attempt",
            attempts=attempts_made,
            last_error=last_error,
        ) from last_error
