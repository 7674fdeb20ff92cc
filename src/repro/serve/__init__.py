"""repro.serve — crash-safe resampling-as-a-service.

A long-running daemon (:class:`ReproService`) over a local Unix socket
speaking a length-prefixed JSON protocol, built on the reliability
machinery of PRs 2–5:

* **write-ahead journaled job queue** (:mod:`~repro.serve.journal`,
  :mod:`~repro.serve.queue`) — accept is fsynced before it is ACKed;
  replay after a SIGKILL recovers every accepted-but-unsettled job
  exactly once and serves already-settled results without
  re-execution; crash-safe compaction folds settled history into a
  checkpoint segment so the journal stays bounded over a long life;
* **admission control** (:mod:`~repro.serve.admission`) — bounded
  depth and per-client caps shed overload with a structured
  ``retry_after`` instead of accepting work the daemon would drop;
* **supervised dispatch** — jobs run inline with one worker, or on a
  :class:`repro.parallel.PersistentPool` forked once with more
  (watchdog deadlines, dead-worker respawn + same-seed re-dispatch,
  recycling), behind a :class:`repro.guard.CircuitBreaker` keyed per
  job kind; the ``health`` verb reports ``ok|degraded|draining`` plus
  per-worker liveness;
* **graceful shutdown** — SIGTERM/SIGINT drain to a deadline, then a
  clean ``stop`` marker is journaled; anything unfinished stays
  journaled for the successor.

A ``resample`` result packs its matrix ``x`` (:func:`pack_array`, the
base64 of its float64 bytes), and :class:`ServeClient` sends a
``resample`` payload's ``x`` packed (:func:`pack_payload`);
:func:`unpack_array` reads either back.

The ``repro-serve`` CLI (:mod:`~repro.serve.__main__`) wraps
start/submit/status/result/stop, and the chaos suite in
``tests/test_serve_chaos.py`` proves the recovery contract by
SIGKILLing the daemon mid-batch and diffing replayed results against a
crash-free run.
"""

from .admission import AdmissionController, ShedDecision
from .client import LoadShedded, ServeClient, ServeError, retry_jitter
from .journal import Journal, JournalStats, read_journal, segment_paths
from .protocol import (
    MAX_FRAME,
    ProtocolError,
    error_response,
    ok_response,
    pack_array,
    pack_payload,
    read_message,
    retry_after_response,
    unpack_array,
    write_message,
)
from .queue import JobQueue, recover
from .router import Router, default_router, job_seed
from .service import ReproService, ServiceAlreadyRunning

__all__ = [
    "AdmissionController",
    "ShedDecision",
    "LoadShedded",
    "ServeClient",
    "ServeError",
    "Journal",
    "JournalStats",
    "read_journal",
    "retry_jitter",
    "segment_paths",
    "MAX_FRAME",
    "ProtocolError",
    "error_response",
    "ok_response",
    "pack_array",
    "pack_payload",
    "read_message",
    "retry_after_response",
    "unpack_array",
    "write_message",
    "JobQueue",
    "recover",
    "Router",
    "default_router",
    "job_seed",
    "ReproService",
    "ServiceAlreadyRunning",
]
