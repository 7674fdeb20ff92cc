"""Structured span tracing with JSON-lines export.

A :class:`Tracer` records *spans* (named, nested regions with
monotonic-clock durations) and *events* (instantaneous markers).  The
process-wide tracer defaults to :class:`NullTracer`, whose every method
is a no-op returning shared singletons — instrumented hot paths pay one
attribute read and no allocations when tracing is off.

Usage::

    from repro import telemetry

    with telemetry.session(trace_out="trace.jsonl"):
        run_matrix(MatrixSpec("table2", config=config))  # instrumented

    # or manually:
    tracer = telemetry.get_tracer()
    with tracer.span("phase1", loss="ce") as sp:
        ...
        sp.set(epochs_done=12)      # attach attrs mid-span
    tracer.event("divergence", epoch=3, batch=17)
    tracer.flush("trace.jsonl")

Every record is one JSON object per line: spans carry ``ts`` (seconds
since the tracer started), ``dur``, ``depth`` and ``parent``; the final
record is a snapshot of the metrics registry so one file holds the
complete timing *and* counter picture of a run.
"""

from __future__ import annotations

import json

from .clock import monotonic, wall_time

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "get_tracer",
    "set_tracer",
]


class Span:
    """One open (or closed) traced region.  Use as a context manager."""

    __slots__ = ("name", "attrs", "start", "duration", "depth", "parent",
                 "_tracer")

    def __init__(self, tracer, name, attrs):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = None
        self.duration = None
        self.depth = 0
        self.parent = None

    def set(self, **attrs):
        """Merge attributes into the span (e.g. outcomes known at exit)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False


class _NullSpan:
    """Shared do-nothing span; one instance serves every disabled call."""

    __slots__ = ()

    def set(self, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every call is a no-op on shared singletons."""

    __slots__ = ()
    enabled = False

    def span(self, name, **attrs):
        return _NULL_SPAN

    def event(self, name, **attrs):
        return None

    def annotate(self, **attrs):
        return None

    def merge(self, records, ts_offset=None):
        return None

    def flush(self, path=None):
        return []


_NULL_TRACER = NullTracer()


class Tracer:
    """Recording tracer: nested spans, events, JSONL export.

    Parameters
    ----------
    clock:
        Duration clock; defaults to the telemetry monotonic clock.  Tests
        inject a fake clock to make durations deterministic.
    """

    enabled = True

    def __init__(self, clock=None):
        self._clock = clock if clock is not None else monotonic
        self._t0 = self._clock()
        self._stack = []
        self.records = []
        self.started_at = wall_time()

    # ------------------------------------------------------------------
    def span(self, name, **attrs):
        """Create a span context manager; timing starts on ``__enter__``."""
        return Span(self, name, attrs)

    def event(self, name, **attrs):
        """Record an instantaneous marker (e.g. a divergence)."""
        self.records.append({
            "type": "event",
            "name": name,
            "ts": self._clock() - self._t0,
            "depth": len(self._stack),
            "attrs": attrs,
        })

    def annotate(self, **attrs):
        """Attach attributes to the innermost open span, if any."""
        if self._stack:
            self._stack[-1].attrs.update(attrs)

    def merge(self, records, ts_offset=None):
        """Forward records captured by another tracer (a worker process).

        Each record is re-anchored under the innermost *open* span of
        this tracer: depths shift by the current stack depth, top-level
        forwarded spans adopt the open span as their ``parent``, and
        timestamps are rebased onto this tracer's clock (by default the
        merge instant).  Forwarded records are marked with a
        ``forwarded`` attribute so trace consumers can tell them from
        locally recorded spans.
        """
        base_depth = len(self._stack)
        parent = self._stack[-1].name if self._stack else None
        if ts_offset is None:
            ts_offset = self._clock() - self._t0
        for record in records:
            if record.get("type") == "metrics":
                continue
            record = dict(record)
            record["ts"] = record.get("ts", 0.0) + ts_offset
            record["depth"] = record.get("depth", 0) + base_depth
            if record.get("type") == "span" and record.get("parent") is None:
                record["parent"] = parent
            attrs = dict(record.get("attrs") or {})
            attrs.setdefault("forwarded", True)
            record["attrs"] = attrs
            self.records.append(record)

    # ------------------------------------------------------------------
    def _push(self, span):
        span.start = self._clock()
        span.depth = len(self._stack)
        span.parent = self._stack[-1].name if self._stack else None
        self._stack.append(span)

    def _pop(self, span):
        now = self._clock()
        span.duration = now - span.start
        # Tolerate out-of-order exits (an exception unwinding through
        # several spans): close everything above the span too.
        while self._stack:
            top = self._stack.pop()
            if top is not span and top.duration is None:
                top.duration = now - top.start
                top.attrs.setdefault("unclosed", True)
            self._record(top)
            if top is span:
                break

    def _record(self, span):
        self.records.append({
            "type": "span",
            "name": span.name,
            "ts": span.start - self._t0,
            "dur": span.duration,
            "depth": span.depth,
            "parent": span.parent,
            "attrs": span.attrs,
        })

    # ------------------------------------------------------------------
    def flush(self, path=None, metrics=None):
        """Close dangling spans, append a metrics snapshot, export JSONL.

        Returns the list of records.  With ``path``, the JSONL file is
        written atomically (temp + fsync + rename) so a crash can never
        leave a torn trace.  ``metrics`` defaults to the process-wide
        registry snapshot.
        """
        now = self._clock()
        while self._stack:
            top = self._stack.pop()
            top.duration = now - top.start
            top.attrs.setdefault("unclosed", True)
            self._record(top)
        if metrics is None:
            from .metrics import get_metrics

            metrics = get_metrics().snapshot()
        records = list(self.records)
        records.append({
            "type": "metrics",
            "ts": now - self._t0,
            "started_at": self.started_at,
            **metrics,
        })
        if path is not None:
            from ..utils.serialization import atomic_write

            payload = "".join(
                json.dumps(record, sort_keys=True) + "\n" for record in records
            ).encode("utf-8")
            atomic_write(path, lambda handle: handle.write(payload))
        return records


_TRACER = _NULL_TRACER


def get_tracer():
    """The process-wide tracer (a :class:`NullTracer` unless enabled)."""
    return _TRACER


def set_tracer(tracer):
    """Install ``tracer`` process-wide; returns the previous tracer.

    Pass ``None`` to restore the shared :class:`NullTracer`.
    """
    global _TRACER
    previous = _TRACER
    _TRACER = tracer if tracer is not None else _NULL_TRACER
    return previous
