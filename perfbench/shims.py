"""Timing shims for layers that emit no spans of their own.

``KNeighbors.fit`` / ``KNeighbors.query`` (the neighbors layer) and
``SGD.step`` (the optim layer) carry no telemetry.  The traced run
times them from outside by swapping the class attributes for timing
wrappers and restoring the originals on exit.  Only the traced run
imports this module, so the timed run executes the unmodified code.
"""

from __future__ import annotations

import functools
import time

from repro.neighbors import KNeighbors
from repro.optim import SGD

__all__ = ["LayerShims"]

_TARGETS = (
    ("neighbors.knn_fit", KNeighbors, "fit"),
    ("neighbors.knn_query", KNeighbors, "query"),
    ("optim.sgd_step", SGD, "step"),
)


class LayerShims:
    """Context manager: per-target call counts and seconds while active.

    Nested calls (``KNeighbors.predict`` calling ``query``) are counted
    once per call, so ``seconds`` is inclusive, like a span.
    """

    def __init__(self):
        self.calls = {name: 0 for name, _, _ in _TARGETS}
        self.seconds = {name: 0.0 for name, _, _ in _TARGETS}
        self._saved = []

    def _wrap(self, name, original):
        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start
                self.calls[name] += 1

        return timed

    def __enter__(self):
        for name, owner, attr in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, exc_type, exc, tb):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False
