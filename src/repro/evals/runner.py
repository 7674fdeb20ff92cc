"""``run_matrix``: the single entry point for every paper experiment.

A :class:`~repro.evals.matrix.MatrixSpec` compiles to a deterministic
cell plan and executes through the existing resilience/guard contract
(:func:`repro.parallel.run_cells` — checkpoint resume, retry with
seed-bump + LR-backoff, FAILED-cell degradation, circuit breakers,
bit-identical results at any worker count).  Figure views execute
their dedicated implementations directly.

With ``store=``, the finished run — report, every cell outcome and the
telemetry snapshot — is written to the
:class:`~repro.evals.store.ResultStore` once, in one transaction, after
the view has run.  Nothing reaches the store before that: a run in
progress is recorded only in the checkpoint manifest of ``registry=``
(a :class:`~repro.resilience.RunRegistry`).  A killed run therefore
leaves nothing in the store, and its resume, which reads the completed
cells back from the manifest, records the whole run once it finishes.
"""

from __future__ import annotations

import json
import subprocess

from ..resilience import CellFailure, fingerprint_of
from ..telemetry import get_metrics, get_tracer, monotonic
from .matrix import TABLE_VIEWS, MatrixSpec, compile_matrix
from .matrix import plan_to_payload, spec_to_payload, validate_spec
from .store import ResultStore
from .views import render_view

__all__ = ["run_matrix"]


def run_matrix(spec, *, store=None, cache=None, registry=None,
               retry_policy=None, fail_soft=True, workers=None,
               breaker=None):
    """Execute one paper view and return a ``RunResult``.

    ``spec`` is a :class:`MatrixSpec` or a bare view name; a spec that
    sets an axis its view does not read raises :class:`ValueError`
    before any work.  ``cache`` shares phase-1 extractors across calls.
    On table views, ``registry`` checkpoints cells and artifacts,
    ``retry_policy`` / ``fail_soft`` / ``breaker`` control the failure
    path, and ``workers`` fans cells out across processes.  ``store`` —
    a :class:`ResultStore` or a path — records the run once it has
    finished; pass a path to have the store opened and closed around
    this call.
    """
    from ..experiments.result import RunResult

    if isinstance(spec, str):
        spec = MatrixSpec(view=spec)
    validate_spec(spec)
    own_store = store is not None and not isinstance(store, ResultStore)
    if own_store:
        store = ResultStore(store)
    tracer = get_tracer()
    start = monotonic()
    try:
        with tracer.span("runner", runner=spec.view):
            if spec.view in TABLE_VIEWS:
                data, record = _run_grid(
                    spec, cache, registry, retry_policy, fail_soft,
                    workers, breaker,
                )
            else:
                data, record = _run_figure(spec, cache)
        info = {
            "runner": spec.view,
            "enabled": tracer.enabled,
            "seconds": monotonic() - start,
        }
        if tracer.enabled:
            info["metrics"] = get_metrics().snapshot()
        run_id = None
        if store is not None:
            run_id = _record_run(store, spec, data, info, **record)
        return RunResult(data, telemetry=info, store_run_id=run_id)
    finally:
        if own_store:
            store.close()


def _record_run(store, spec, data, info, config, plan=None, cells=()):
    """Write one finished run to the store, in one transaction.

    ``config`` is what the fingerprint covers: a table's resolved
    config, stored with its plan, or a figure's ``spec.config``.
    """
    spec_payload = spec_to_payload(spec)
    return store.record_run(
        spec.view,
        fingerprint=fingerprint_of(
            "evals", json.dumps(spec_payload, sort_keys=True), repr(config)
        ),
        spec=spec_payload,
        plan=None if plan is None else plan_to_payload(plan),
        config=None if plan is None else _config_payload(config),
        git_sha=_git_sha(),
        report=data.get("report", ""),
        extras=_json_safe_extras(data),
        cells=cells,
        telemetry=info.get("metrics"),
        seconds=info["seconds"],
    )


# ----------------------------------------------------------------------
# Table views: compiled plan -> cell grid -> rendered view
# ----------------------------------------------------------------------
def _run_grid(spec, cache, registry, retry_policy, fail_soft, workers,
              breaker):
    from ..experiments import runners as R
    from ..experiments.config import bench_config
    from ..experiments.pipeline import prewarm_extractors
    from ..parallel import run_cells

    config = spec.config if spec.config is not None else bench_config()
    for name in (spec.hyper or {}):
        if not hasattr(config, name):
            raise KeyError("unknown config field %r" % name)
    plan = compile_matrix(spec)
    cache = R._make_cache(cache, registry, retry_policy)
    prewarm_extractors(
        cache,
        [(config.with_overrides(**overrides), loss)
         for overrides, loss in plan.prewarm],
        max_workers=workers,
    )
    # A cell whose extractor failed keeps that CellFailure; every other
    # cell becomes a (cell_id, thunk) task for run_cells.
    outcomes, keys, tasks = {}, [], []
    artifacts_memo = {}
    for cell in plan.cells:
        cfg = (config.with_overrides(**cell.overrides)
               if cell.overrides else config)
        if cell.kind == "preprocessed":
            thunk = R._preprocessed_cell(cfg, cell.loss, cell.sampler)
        else:
            memo_key = (repr(sorted(cell.overrides.items(), key=repr)),
                        cell.loss)
            if memo_key not in artifacts_memo:
                artifacts_memo[memo_key] = R._get_artifacts(
                    cache, cfg, cell.loss, fail_soft
                )
            artifacts = artifacts_memo[memo_key]
            if isinstance(artifacts, CellFailure):
                outcomes[cell.key] = artifacts
                continue
            make = (R._timed_sampler_cell
                    if cell.kind == "timed_sampler" else R._sampler_cell)
            thunk = make(artifacts, cell.sampler, cfg, **cell.eval_kwargs)
        keys.append(cell.key)
        tasks.append((cell.cell_id, thunk))
    outcomes.update(zip(keys, run_cells(
        tasks, registry=registry, retry_policy=retry_policy,
        fail_soft=fail_soft, max_workers=workers, breaker=breaker,
    )))

    results, timing, cell_rows = _assemble(plan, outcomes)
    report, summary_extras = render_view(plan, results, timing)
    data = {"results": results}
    if plan.show_seconds:
        data["timing"] = timing
    data.update(plan.extras)
    data.update(summary_extras)
    data["report"] = report
    return data, {"config": config, "plan": plan, "cells": cell_rows}


def _assemble(plan, outcomes):
    """Split raw outcomes into results/timing plus store cell rows."""
    results = {}
    timing = {}
    rows = []
    for index, cell in enumerate(plan.cells):
        out = outcomes[cell.key]
        if isinstance(out, CellFailure):
            metrics, seconds = out, None
            payload, status = out.to_payload(), "failed"
        elif cell.timed:
            metrics, seconds = out["metrics"], out["seconds"]
            payload, status = out, "done"
        else:
            metrics, seconds = out, None
            payload, status = out, "done"
        results[cell.key] = metrics
        if cell.timed:
            timing[cell.key] = seconds
        rows.append({"position": index, "cell_id": cell.cell_id,
                     "key": cell.key, "status": status,
                     "payload": payload})
    return results, timing, rows


def _config_payload(config):
    import dataclasses

    try:
        return dataclasses.asdict(config)
    except TypeError:
        return {"repr": repr(config)}


def _git_sha():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _json_safe_extras(data):
    """The JSON-serializable extras of a run's output dict.

    Figure outputs carry arrays and tuple-keyed curve dicts; those are
    reproducible from the stored report/cells and are skipped rather
    than coerced.
    """
    extras = {}
    for key, value in data.items():
        if key in ("results", "report", "timing"):
            continue
        try:
            json.dumps(value, default=_coerce_scalar)
        except (TypeError, ValueError):
            continue
        extras[key] = value
    return extras


def _coerce_scalar(value):
    if hasattr(value, "item"):
        return value.item()
    raise TypeError("not JSON serializable: %r" % (value,))


# ----------------------------------------------------------------------
# Figure views: direct execution of the dedicated implementations
# ----------------------------------------------------------------------
def _run_figure(spec, cache):
    from ..experiments import runners as R
    from ..experiments.config import bench_config

    config = spec.config if spec.config is not None else bench_config()
    cache = R._make_cache(cache, None, None)
    options = dict(spec.options or {})
    view = spec.view
    if view == "figure3":
        data = R._figure3_impl(config, losses=spec.resolved("losses"),
                               samplers=spec.resolved("samplers"),
                               cache=cache)
    elif view == "figure4":
        data = R._figure4_impl(config, datasets=spec.resolved("datasets"),
                               cache=cache)
    elif view == "figure5":
        data = R._figure5_impl(config, losses=spec.resolved("losses"),
                               samplers=spec.resolved("samplers"),
                               cache=cache)
    elif view == "figure6":
        data = R._figure6_impl(config, samplers=spec.resolved("samplers"),
                               cache=cache, **options)
    elif view == "figure7":
        data = R._figure7_impl(config, samplers=spec.resolved("samplers"),
                               cache=cache, **options)
    elif view == "runtime_comparison":
        data = R._runtime_comparison_impl(
            config, samplers=spec.resolved("samplers")
        )
    else:
        data = R._eos_pixel_vs_embedding_impl(config, cache=cache)
    return data, {"config": spec.config}
