"""``run_matrix``: the single entry point for every paper experiment.

A :class:`~repro.evals.matrix.MatrixSpec` compiles to a deterministic
cell plan and executes through the existing resilience/guard contract
(:func:`repro.parallel.run_cells` — checkpoint resume, retry with
seed-bump + LR-backoff, FAILED-cell degradation, circuit breakers,
bit-identical results at any worker count).  Figure views execute
their dedicated implementations directly.

With ``store=`` and ``registry=`` both set, every cell outcome is
appended to the :class:`~repro.evals.store.ResultStore` *as it
completes*, from the parent process only: the store subscribes to the
:class:`~repro.resilience.RunRegistry` cell sink, which fires after
each manifest flush.  A killed run therefore leaves its completed
cells both in the checkpoint manifest and in the store; resuming with
the same registry re-binds to the same store run (matched by spec
fingerprint) and the idempotent insert discipline guarantees no
duplicate rows.  With a store but no registry there is no sink, and
the cells reach the store together at ``finish_run``.
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
    a :class:`ResultStore` or a path — records the run; pass a path to
    have the store opened and closed around this call.
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
                data, run_id, cell_rows = _run_grid(
                    spec, store, cache, registry, retry_policy,
                    fail_soft, workers, breaker,
                )
            else:
                data, run_id, cell_rows = _run_figure(spec, store, cache)
        info = {
            "runner": spec.view,
            "enabled": tracer.enabled,
            "seconds": monotonic() - start,
        }
        if tracer.enabled:
            info["metrics"] = get_metrics().snapshot()
        if store is not None and run_id is not None:
            store.finish_run(
                run_id,
                report=data.get("report", ""),
                extras=_json_safe_extras(data),
                cells=cell_rows,
                telemetry=info.get("metrics"),
                seconds=info["seconds"],
            )
        return RunResult(data, telemetry=info, store_run_id=run_id)
    finally:
        if own_store:
            store.close()


# ----------------------------------------------------------------------
# Table views: compiled plan -> cell grid -> rendered view
# ----------------------------------------------------------------------
def _run_grid(spec, store, cache, registry, retry_policy, fail_soft,
              workers, breaker):
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

    run_id = None
    if store is not None:
        run_id = _bind_run(store, spec, plan, config, registry)
        if registry is not None:
            positions = {cell.cell_id: (index, cell)
                         for index, cell in enumerate(plan.cells)}

            def sink(cell_id, payload, status):
                entry = positions.get(cell_id)
                if entry is None:
                    return
                index, cell = entry
                store.record_cell(run_id, cell_id, index, cell.key,
                                  status, payload)

            registry.set_cell_sink(sink)
    try:
        prewarm_extractors(
            cache,
            [(config.with_overrides(**overrides), loss)
             for overrides, loss in plan.prewarm],
            max_workers=workers,
        )
        # A cell whose extractor failed keeps that CellFailure; every
        # other cell becomes a (cell_id, thunk) task for run_cells.
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
    finally:
        if store is not None and registry is not None:
            registry.set_cell_sink(None)

    results, timing, cell_rows = _assemble(plan, outcomes)
    report, summary_extras = render_view(plan, results, timing)
    data = {"results": results}
    if plan.show_seconds:
        data["timing"] = timing
    data.update(plan.extras)
    data.update(summary_extras)
    data["report"] = report
    return data, run_id, cell_rows


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


def _bind_run(store, spec, plan, config, registry):
    """Open a store run, or re-bind to the one a resumed registry holds."""
    spec_payload = spec_to_payload(spec)
    fingerprint = fingerprint_of(
        "evals", json.dumps(spec_payload, sort_keys=True), repr(config)
    )
    if registry is not None:
        prior = registry.evals_run_id()
        if prior is not None and store.is_resumable_run(prior, fingerprint):
            return prior
    run_id = store.begin_run(
        spec.view,
        fingerprint=fingerprint,
        spec=spec_payload,
        plan=plan_to_payload(plan),
        config=_config_payload(config),
        git_sha=_git_sha(),
    )
    if registry is not None:
        registry.bind_evals_run(run_id)
    return run_id


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
def _run_figure(spec, store, cache):
    from ..experiments import runners as R
    from ..experiments.config import bench_config

    config = spec.config if spec.config is not None else bench_config()
    cache = R._make_cache(cache, None, None)
    options = dict(spec.options or {})
    run_id = None
    if store is not None:
        run_id = store.begin_run(
            spec.view,
            fingerprint=fingerprint_of(
                "evals", json.dumps(spec_to_payload(spec), sort_keys=True),
                repr(spec.config),
            ),
            spec=spec_to_payload(spec),
            git_sha=_git_sha(),
        )
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
    return data, run_id, ()
