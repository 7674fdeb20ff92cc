"""Declarative experiment matrix + queryable sqlite result store.

``repro.evals`` is the system's source of truth for results:

* :class:`MatrixSpec` declares one paper view and its axes (datasets ×
  samplers × losses × seeds × hyper-parameters, with include/exclude
  predicates); :func:`compile_matrix` turns it into a deterministic
  cell plan.
* :func:`run_matrix` executes any spec through the full
  resilience/guard contract — the one entry point for every paper
  view.
* :class:`ResultStore` is the append-only, schema-versioned sqlite
  archive of every finished run (its cell results, telemetry snapshot
  and config/git fingerprint) and of ingested benchmark records.
* :func:`regenerate` / :func:`perf_report` and the ``repro-report``
  CLI render tables and the perf trajectory as views over the store —
  no retraining.
"""

from .matrix import (
    ALL_VIEWS,
    FIGURE_VIEWS,
    TABLE_VIEWS,
    VIEW_KEYS,
    MatrixCell,
    MatrixPlan,
    MatrixSpec,
    compile_matrix,
    plan_from_payload,
    plan_to_payload,
    spec_to_payload,
)
from .report import load_run_results, perf_report, regenerate, runs_report
from .runner import run_matrix
from .store import SCHEMA_VERSION, EvalsStoreError, ResultStore
from .views import degraded_summary, metric_cells, render_view

__all__ = [
    "ALL_VIEWS",
    "FIGURE_VIEWS",
    "TABLE_VIEWS",
    "VIEW_KEYS",
    "MatrixCell",
    "MatrixPlan",
    "MatrixSpec",
    "compile_matrix",
    "plan_from_payload",
    "plan_to_payload",
    "spec_to_payload",
    "load_run_results",
    "perf_report",
    "regenerate",
    "runs_report",
    "run_matrix",
    "SCHEMA_VERSION",
    "EvalsStoreError",
    "ResultStore",
    "degraded_summary",
    "metric_cells",
    "render_view",
]
