"""Command-line entry point: ``python -m repro.experiments <keys...>``.

Runs the selected paper experiments (or all of them) and prints each
reproduced table.  Keys: t1-t5 (Tables I-V), f3-f7 (Figures 3-7),
rt (runtime comparison), px (pixel-vs-embedding EOS).

Fault tolerance: ``--checkpoint-dir`` checkpoints every table cell and
phase-1 extractor through a :class:`repro.resilience.RunRegistry`
(``--resume`` continues an interrupted run from it), ``--max-retries`` /
``--trial-timeout`` retry diverged or overlong trials with seed-bump +
LR-backoff, and failed cells degrade to ``FAILED(reason)`` rows unless
``--fail-fast`` is given.

Parallelism: ``--workers N`` evaluates sweep cells and phase-1
trainings across N worker processes (``repro.parallel``); results and
reports are bit-identical to ``--workers 1`` for any N.

Result store: ``--store PATH`` appends every run — cell results,
telemetry snapshot, config/git fingerprint — to the sqlite store at
PATH (``repro.evals``) when it finishes; an interrupted run's progress
lives in ``--checkpoint-dir``.  Tables regenerate from the store
without retraining: ``repro-report t2 --store PATH``.

Hardening (``repro.guard``): ``--task-deadline`` arms the pool's
hung-worker watchdog (SIGKILL + same-seed re-dispatch past the
deadline), ``--strict-resume`` makes a corrupted checkpoint artifact
raise instead of being quarantined and recomputed, and
``--breaker-threshold`` installs a per-configuration circuit breaker
that converts repeated equivalent failures into immediate
``FAILED(circuit_open: ...)`` cells (``--reset-breakers`` clears the
persisted breaker state before running).

Examples::

    python -m repro.experiments t2 f3
    python -m repro.experiments --scale tiny --datasets cifar10_like
    python -m repro.experiments t2 --checkpoint-dir runs/t2 --max-retries 2
    python -m repro.experiments t2 --checkpoint-dir runs/t2 --resume
"""

from __future__ import annotations

import argparse
import sys

from .. import telemetry
from ..evals import VIEW_KEYS, MatrixSpec, run_matrix
from ..guard import CircuitBreaker
from ..resilience import RetryPolicy, RunRegistry, fingerprint_of
from . import ExtractorCache, bench_config

__all__ = ["build_registry", "main"]

#: The title printed above each view; ``VIEW_KEYS`` maps keys to views.
_TITLES = {
    "t1": "Table I (pre vs post over-sampling)",
    "t2": "Table II (losses x samplers)",
    "t3": "Table III (GAN comparison)",
    "t4": "Table IV (EOS K sweep)",
    "t5": "Table V (architectures)",
    "f3": "Figure 3 (gap curves)",
    "f4": "Figure 4 (TP vs FP gap)",
    "f5": "Figure 5 (weight norms)",
    "f6": "Figure 6 (t-SNE boundary)",
    "f7": "Figure 7 (fine-tune epochs)",
    "rt": "Runtime comparison (V-E2)",
    "px": "EOS pixel vs embedding (V-E3)",
}


def build_registry(config, datasets, cache, run_registry=None,
                   retry_policy=None, fail_soft=True, workers=None,
                   breaker=None, store=None):
    """Map experiment keys to (title, runner-thunk).

    Every key routes through :func:`repro.evals.run_matrix`.
    ``run_registry`` / ``retry_policy`` / ``fail_soft`` / ``workers`` /
    ``breaker`` apply to the table views (the sweeps worth
    checkpointing, parallelizing and guarding); figure views execute
    directly.  ``store`` records every run in the sqlite result store.
    """
    run_kwargs = {
        "store": store,
        "cache": cache,
        "registry": run_registry,
        "retry_policy": retry_policy,
        "fail_soft": fail_soft,
        "workers": workers,
        "breaker": breaker,
    }

    def entry(view):
        # Only the views that read a datasets axis are given one.
        axes = ({"datasets": datasets}
                if MatrixSpec(view).resolved("datasets") is not None else {})
        spec = MatrixSpec(view, config=config, **axes)
        return lambda: run_matrix(spec, **run_kwargs)

    return {key: (_TITLES[key], entry(view))
            for key, view in VIEW_KEYS.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("keys", nargs="*", help="experiment keys (default: all)")
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "medium"))
    parser.add_argument("--datasets", nargs="+", default=["cifar10_like"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="checkpoint cells + phase-1 artifacts into DIR (atomic "
             "manifest; enables crash-safe sweeps)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted run from --checkpoint-dir "
             "(completed cells are loaded, not recomputed)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=0, metavar="N",
        help="retry diverged/timed-out trials up to N times with "
             "deterministic seed-bump and LR-backoff (default: 0)",
    )
    parser.add_argument(
        "--trial-timeout", type=float, default=None, metavar="SECONDS",
        help="per-trial wall-clock budget; overlong trials raise and "
             "follow the retry/degradation path",
    )
    parser.add_argument(
        "--task-deadline", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock deadline enforced by the worker "
             "watchdog (--workers > 1): a hung worker is SIGKILLed and "
             "its cell re-dispatched under the same seed",
    )
    parser.add_argument(
        "--strict-resume", action="store_true",
        help="raise CheckpointCorruptError when a resumed artifact "
             "fails digest verification, instead of quarantining it "
             "and recomputing",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=None, metavar="N",
        help="open a circuit breaker after N equivalent failures under "
             "one configuration family; further matching cells settle "
             "as FAILED(circuit_open: ...) without running (state "
             "persists in --checkpoint-dir)",
    )
    parser.add_argument(
        "--reset-breakers", action="store_true",
        help="clear persisted circuit-breaker state in --checkpoint-dir "
             "before running",
    )
    parser.add_argument(
        "--fail-fast", action="store_true",
        help="abort the sweep on the first failed cell instead of "
             "recording it as FAILED(reason)",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="enable telemetry and export the run's trace (spans, "
             "events, metrics snapshot) to PATH as JSON lines; summarize "
             "with `repro-report trace PATH`",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="evaluate sweep cells and phase-1 trainings across N worker "
             "processes; results are bit-identical to --workers 1 "
             "(default: 1, exact serial execution)",
    )
    parser.add_argument(
        "--store", metavar="PATH",
        help="record every run (cells, telemetry, config/git fingerprint) "
             "in the sqlite result store at PATH; regenerate tables later "
             "with `repro-report <view> --store PATH`",
    )
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error("--workers must be >= 1")

    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    if args.strict_resume and not args.checkpoint_dir:
        parser.error("--strict-resume requires --checkpoint-dir")
    if args.breaker_threshold is not None and args.breaker_threshold < 1:
        parser.error("--breaker-threshold must be >= 1")
    if args.trial_timeout is not None and args.trial_timeout <= 0:
        parser.error("--trial-timeout must be positive")
    if args.task_deadline is not None and args.task_deadline <= 0:
        parser.error("--task-deadline must be positive")

    retry_policy = None
    if (args.max_retries > 0 or args.trial_timeout is not None
            or args.task_deadline is not None):
        retry_policy = RetryPolicy(
            max_retries=max(args.max_retries, 0),
            trial_timeout=args.trial_timeout,
            task_deadline=args.task_deadline,
        )

    run_registry = None
    if args.checkpoint_dir:
        run_registry = RunRegistry(args.checkpoint_dir,
                                   strict=args.strict_resume)
        has_prior_cells = bool(run_registry.cell_statuses())
        if has_prior_cells and not args.resume:
            parser.error(
                "%s already holds a checkpointed run; pass --resume to "
                "continue it or use a fresh --checkpoint-dir"
                % args.checkpoint_dir
            )
        run_registry.ensure_fingerprint(
            fingerprint_of("cli", args.scale, tuple(args.datasets), args.seed)
        )

    if args.reset_breakers and run_registry is not None:
        run_registry.reset_breakers()

    breaker = None
    if args.breaker_threshold is not None:
        breaker = CircuitBreaker(threshold=args.breaker_threshold,
                                 store=run_registry)

    config = bench_config(scale=args.scale, seed=args.seed)
    cache = ExtractorCache(registry=run_registry, retry_policy=retry_policy)
    store = None
    if args.store:
        from ..evals import ResultStore

        store = ResultStore(args.store)
    registry = build_registry(
        config,
        tuple(args.datasets),
        cache,
        run_registry=run_registry,
        retry_policy=retry_policy,
        fail_soft=not args.fail_fast,
        workers=args.workers,
        breaker=breaker,
        store=store,
    )

    keys = list(args.keys) or list(registry)
    unknown = [key for key in keys if key not in registry]
    if unknown:
        parser.error(
            "unknown keys: %s (valid: %s)"
            % (", ".join(unknown), ", ".join(registry))
        )

    if args.trace_out is not None:
        telemetry.enable()
    try:
        for key in keys:
            title, runner = registry[key]
            print("=" * 72)
            print("%s  [%s]" % (title, key))
            print("=" * 72)
            start = telemetry.monotonic()
            out = runner()
            print(out.report)
            print("(%.1fs)\n" % (telemetry.monotonic() - start))
    finally:
        if args.trace_out is not None:
            telemetry.disable(args.trace_out)
            print("trace: %s (summarize with `repro-report trace %s`)"
                  % (args.trace_out, args.trace_out))
        if store is not None:
            print("store: %s" % store.summary())
            store.close()
    if run_registry is not None:
        print("checkpoint: %s" % run_registry.summary())
    if breaker is not None:
        for key, signature in breaker.open_breakers().items():
            print("breaker open: %s -> %s" % (key, signature))
    return 0


if __name__ == "__main__":
    sys.exit(main())
