"""Graceful degradation for sweep cells.

A sweep over samplers × losses × datasets should never lose hours of
finished cells because one cell diverged.  A cell that still fails
after its retries settles as a :class:`CellFailure` recording the
reason instead of raising, so the sweep completes and renders a
``FAILED(...)`` row; :func:`failure_from_payload` rebuilds one from
its checkpoint payload.  :func:`repro.parallel.run_cells` is the one
runner that produces them, alongside resume, retry and circuit
breaking.

:class:`SimulatedKill` (a ``BaseException``) is never absorbed — it
models the process dying, which only checkpoint/resume survives.
"""

from __future__ import annotations

__all__ = ["CellFailure", "failure_from_payload"]


class CellFailure:
    """Recorded outcome of a sweep cell that produced no metrics.

    Stands in for the metrics dict in a runner's ``results`` mapping;
    renders as ``FAILED(ErrorType: reason)`` in reports.
    """

    __slots__ = ("reason", "error_type", "attempts")

    def __init__(self, reason, error_type="Exception", attempts=1):
        self.reason = str(reason)
        self.error_type = error_type
        self.attempts = int(attempts)

    def label(self, width=40):
        """Compact ``FAILED(...)`` cell text for table rendering."""
        text = "%s: %s" % (self.error_type, self.reason)
        if len(text) > width:
            text = text[: width - 3] + "..."
        return "FAILED(%s)" % text

    def to_payload(self):
        """JSON-serializable manifest payload."""
        return {
            "reason": self.reason,
            "error_type": self.error_type,
            "attempts": self.attempts,
        }

    def __repr__(self):
        return "CellFailure(%s, attempts=%d)" % (self.label(), self.attempts)


def failure_from_payload(payload):
    """Rebuild a :class:`CellFailure` from its manifest payload."""
    return CellFailure(
        payload.get("reason", "unknown"),
        error_type=payload.get("error_type", "Exception"),
        attempts=payload.get("attempts", 1),
    )
