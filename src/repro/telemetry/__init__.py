"""repro.telemetry — tracing, metrics and profiling for the repro stack.

Three cooperating instruments behind one on/off switch:

* :class:`Tracer` — nested spans with monotonic-clock durations and
  instantaneous events, exported as JSON-lines (one object per line);
* :class:`MetricsRegistry` — counters / gauges / histograms (batches
  per second, loss curves, per-class synthetic-sample counts, extractor
  cache hit rates), snapshotted into every flushed trace;
* :class:`profile_ops` — opt-in tensor-op profiler hooked into the
  autograd tape (forward op counts, per-op backward wall time,
  per-layer forward wall time).

The default state is **off**: the process-wide tracer and registry are
shared null objects whose methods are allocation-free no-ops, so the
instrumented hot paths (``Trainer.fit``, ``fit_resample``, ``run_cell``)
behave byte-identically to uninstrumented code.  Turn everything on for
a region with :func:`session`::

    from repro import telemetry
    from repro.evals import MatrixSpec, run_matrix

    with telemetry.session(trace_out="trace.jsonl"):
        run_matrix(MatrixSpec("table2", config=config))

    # later: python -m repro.telemetry trace.jsonl   (or `repro-trace`)

or process-wide with :func:`enable` / :func:`disable` (what the
``--trace-out`` CLI flag uses).
"""

from __future__ import annotations

from .clock import monotonic, wall_time
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    get_metrics,
    set_metrics,
)
from .profiler import is_profiling, profile_ops
from .summarize import load_trace, render_trace_report, summarize_trace
from .tracer import NullTracer, Span, Tracer, get_tracer, set_tracer

__all__ = [
    "monotonic",
    "wall_time",
    "Span",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "get_metrics",
    "set_metrics",
    "profile_ops",
    "is_profiling",
    "load_trace",
    "summarize_trace",
    "render_trace_report",
    "enable",
    "disable",
    "telemetry_enabled",
    "session",
]


def telemetry_enabled():
    """True when a recording tracer is installed process-wide."""
    return get_tracer().enabled


def enable():
    """Install a fresh recording tracer + metrics registry process-wide.

    Returns the new :class:`Tracer`.  Idempotent in spirit but not in
    state: calling it twice discards the first tracer's records — use
    :func:`session` for scoped/nested instrumentation.
    """
    tracer = Tracer()
    set_tracer(tracer)
    set_metrics(MetricsRegistry())
    return tracer


def disable(trace_out=None):
    """Flush and uninstall the process-wide tracer.

    With ``trace_out``, the trace (spans, events, metrics snapshot) is
    written there as JSONL first.  Returns the flushed record list (empty
    when telemetry was already off).
    """
    tracer = get_tracer()
    records = tracer.flush(trace_out) if tracer.enabled else []
    set_tracer(None)
    set_metrics(None)
    return records


class session:
    """Scoped telemetry: enable on entry, flush + restore on exit.

    Nestable — the previous tracer/registry pair is reinstated when the
    block exits, so a traced region inside a traced region keeps its own
    records.  The flushed record list is available as ``.records`` after
    exit.
    """

    def __init__(self, trace_out=None):
        self.trace_out = trace_out
        self.tracer = None
        self.records = []
        self._prev_tracer = None
        self._prev_metrics = None

    def __enter__(self):
        self.tracer = Tracer()
        self._prev_tracer = set_tracer(self.tracer)
        self._prev_metrics = set_metrics(MetricsRegistry())
        return self.tracer

    def __exit__(self, exc_type, exc, tb):
        self.records = self.tracer.flush(self.trace_out)
        set_tracer(self._prev_tracer)
        set_metrics(self._prev_metrics)
        return False
