"""Structured runner results: :class:`RunResult`.

:class:`RunResult` is what :func:`repro.evals.run_matrix` returns for
every view.  It is a read-only :class:`collections.abc.Mapping` over the
view's own outputs (``out["results"]``, ``out["report"]``, a table's
summary counts, a figure's ``curves`` / ``profiles`` / ``embeddings``,
the runtime study's ``speedup`` …) plus the ``telemetry`` and
``degraded`` keys.  The fields every view shares are also attributes:

* ``cells`` — the view's ``results`` mapping (per-cell metrics on
  table views; empty when the view has none);
* ``report`` — the rendered table/figure text;
* ``telemetry`` — the runner's wall time plus, when telemetry is
  enabled, the metrics snapshot captured as the runner finished;
* ``degraded`` — the cell keys whose value is a
  :class:`~repro.resilience.CellFailure` (empty for clean runs);
* ``store_run_id`` — the :class:`repro.evals.ResultStore` run this
  invocation recorded into (None when no store was attached).
"""

from __future__ import annotations

from collections.abc import Mapping

from ..resilience import CellFailure

__all__ = ["RunResult"]


class RunResult(Mapping):
    """A view's outputs as a read-only mapping, plus typed shared fields.

    The mapping holds every output key of the view plus ``telemetry``
    and ``degraded`` (and ``store_run_id`` when a result store recorded
    the run).
    """

    def __init__(self, data, telemetry=None, store_run_id=None):
        self._data = dict(data)
        if "telemetry" not in self._data:
            self._data["telemetry"] = telemetry if telemetry is not None else {}
        if "degraded" not in self._data:
            self._data["degraded"] = _failed_cells(self._data.get("results"))
        if store_run_id is not None and "store_run_id" not in self._data:
            self._data["store_run_id"] = store_run_id

    def __getitem__(self, key):
        return self._data[key]

    def __iter__(self):
        return iter(self._data)

    def __len__(self):
        return len(self._data)

    @property
    def cells(self):
        """The view's ``results`` mapping (empty when it has none)."""
        return self._data.get("results", {})

    @property
    def report(self):
        """The rendered table/figure report text."""
        return self._data.get("report", "")

    @property
    def telemetry(self):
        """Runner wall time and (when enabled) the metrics snapshot."""
        return self._data["telemetry"]

    @property
    def degraded(self):
        """Cell keys that degraded to :class:`CellFailure` outcomes."""
        return self._data["degraded"]

    @property
    def store_run_id(self):
        """The result-store run id this run recorded into, or None."""
        return self._data.get("store_run_id")

    def __repr__(self):
        return "RunResult(keys=%s, degraded=%d)" % (
            sorted(map(str, self._data)),
            len(self.degraded),
        )


def _failed_cells(results):
    if not isinstance(results, dict):
        return []
    return [key for key, value in results.items()
            if isinstance(value, CellFailure)]
