"""Failure circuit breakers for sweep execution.

A sweep over hundreds of cells can hide a *systematic* failure: one
mis-specified sampler configuration diverges in every cell that uses
it, and each of those cells still burns its full retry budget before
degrading to ``FAILED``.  A :class:`CircuitBreaker` notices the
repetition — N failures with an *equivalent signature* under the same
configuration key — and opens, converting every further attempt under
that key into an immediate ``FAILED(circuit_open: <signature>)`` cell
without invoking its thunk.  The sweep degrades in seconds instead of
hours.

Keys and signatures are both plain strings:

* the **key** names the configuration family a cell belongs to
  (:func:`default_breaker_key` folds the dataset axis out of a
  ``t2/<dataset>/<loss>/<sampler>`` cell id, so equivalent failures on
  different datasets pool together);
* the **signature** (:func:`failure_signature`) normalizes an error
  into ``"ErrorType: message"`` with numbers collapsed to ``#`` so
  ``epoch=3`` vs ``epoch=7`` provenance does not defeat the match.

Breaker state is a pure JSON-serializable dict, optionally persisted
through a *store* (duck-typed: ``load_breakers()`` /
``save_breakers(state)`` — :class:`repro.resilience.RunRegistry`
implements both), so a resumed sweep honors breakers its predecessor
tripped and ``--reset-breakers`` can clear them.
"""

from __future__ import annotations

import re

__all__ = ["CircuitBreaker", "default_breaker_key", "failure_signature"]

_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?")
_SIGNATURE_WIDTH = 96


def failure_signature(error_type, reason=""):
    """Normalize a failure into a short, provenance-free signature.

    Two failures are *equivalent* when their type and message agree
    after numeric literals (epoch/batch/loss values, seeds, elapsed
    times) are collapsed to ``#``.
    """
    text = str(reason).splitlines()[0].strip() if reason else ""
    text = _NUMBER_RE.sub("#", text)
    if len(text) > _SIGNATURE_WIDTH:
        text = text[: _SIGNATURE_WIDTH - 3] + "..."
    return "%s: %s" % (error_type, text) if text else str(error_type)


def default_breaker_key(cell_id):
    """Configuration-family key for a ``<table>/<dataset>/...`` cell id.

    Folds out the dataset component (the second ``/`` segment) so that
    e.g. ``t2/cifar10_like/ce/smote`` and ``t2/mnist_like/ce/smote``
    share the key ``t2/*/ce/smote`` — the same (loss, sampler)
    configuration failing identically on several datasets is one
    systematic fault, not several independent ones.  Cell ids with
    fewer than three segments are their own key.
    """
    parts = str(cell_id).split("/")
    if len(parts) < 3:
        return str(cell_id)
    return "/".join([parts[0], "*"] + parts[2:])


class CircuitBreaker:
    """Per-configuration failure breaker with persistent state.

    Parameters
    ----------
    threshold:
        Number of equivalent failures (same key, same signature —
        counted across cells *and* retry attempts) that opens the
        breaker for that key.
    store:
        Optional persistence backend exposing ``load_breakers()`` and
        ``save_breakers(state)`` (e.g. a
        :class:`repro.resilience.RunRegistry`).  State is loaded at
        construction and saved after every transition, so breaker
        decisions survive kill/resume cycles.
    """

    def __init__(self, threshold=3, store=None):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = int(threshold)
        self.store = store
        self._state = {}
        if store is not None:
            self._state = {
                key: dict(entry)
                for key, entry in (store.load_breakers() or {}).items()
            }

    # ------------------------------------------------------------------
    def _entry(self, key):
        return self._state.setdefault(key, {"open": None, "failures": {}})

    def _persist(self):
        if self.store is not None:
            self.store.save_breakers(self._state)

    # ------------------------------------------------------------------
    def open_signature(self, key):
        """The signature the breaker for ``key`` opened on, or None."""
        entry = self._state.get(key)
        return entry.get("open") if entry is not None else None

    def is_open(self, key):
        """True when the breaker for ``key`` has tripped."""
        return self.open_signature(key) is not None

    def open_breakers(self):
        """Mapping of key -> open signature, for every tripped breaker."""
        return {
            key: entry["open"]
            for key, entry in sorted(self._state.items())
            if entry.get("open") is not None
        }

    def record_failure(self, key, error_type, reason="", count=1):
        """Count ``count`` equivalent failures against ``key``.

        ``count`` lets a cell that exhausted a retry budget report every
        attempt at once ("across cells/retries").  Returns the signature
        the breaker opened on when this call tripped it, else None.
        """
        entry = self._entry(key)
        if entry["open"] is not None:
            return None
        signature = failure_signature(error_type, reason)
        seen = entry["failures"].get(signature, 0) + max(1, int(count))
        entry["failures"][signature] = seen
        opened = None
        if seen >= self.threshold:
            entry["open"] = signature
            opened = signature
            from ..telemetry import get_metrics, get_tracer

            get_tracer().event(
                "guard.breaker_opened", key=key, signature=signature,
                failures=seen,
            )
            get_metrics().counter("guard.breaker_open").inc()
        self._persist()
        return opened

    def reset(self):
        """Clear all breaker state (the ``--reset-breakers`` path)."""
        self._state = {}
        if self.store is not None and hasattr(self.store, "reset_breakers"):
            self.store.reset_breakers()
        else:
            self._persist()

    def state(self):
        """The raw JSON-serializable state dict (for inspection)."""
        return self._state

    def __repr__(self):
        return "CircuitBreaker(threshold=%d, open=%d/%d key(s))" % (
            self.threshold,
            len(self.open_breakers()),
            len(self._state),
        )
