"""The resampling daemon: accept loop, dispatch loop, graceful death.

:class:`ReproService` is a single-process event loop over a Unix
socket.  Its reliability contract, end to end:

* **No acknowledged job is ever lost.**  ``submit`` journals (fsync)
  before it ACKs; a SIGKILL at any later instant leaves a record that
  :func:`repro.serve.queue.recover` turns back into a pending job.
  Handlers are deterministic in ``(payload, job_seed(job_id))``, so the
  replayed execution is byte-identical to the one the crash stole.
* **No job is ever run twice to completion.**  Settlements ride in the
  journal; replay serves recorded results instead of re-executing, and
  a client that lost its ACK can re-submit the same ``job_id`` (same
  kind, byte-equal canonical payload) for an idempotent ``ok`` instead
  of a duplicate error.
* **No job is accepted that the daemon cannot honor.**  Admission
  control (:mod:`repro.serve.admission`) sheds with a structured
  ``retry_after`` *before* the journal is touched; a shed job was never
  promised.
* **Overload and poison jobs degrade, not crash.**  With one worker
  jobs run inline; with more they stream to a supervised
  :class:`~repro.parallel.PersistentPool` that respawns dead or hung
  workers and re-dispatches their job under the same seed.  A result
  that JSON cannot encode fails inside its job (``TypeError``), not in
  the loop.  A :class:`repro.guard.CircuitBreaker` keyed per job kind
  settles repeat offenders as ``circuit_open`` failures without
  dispatching them.
* **The journal stays bounded.**  With ``compact_every`` set, the
  daemon folds settled history into a checkpoint segment every N
  settlements (:meth:`repro.serve.queue.JobQueue.compact`) — crash-safe
  at every step, deferred while degraded, streamed one result at a
  time, and skipped (event ``serve.compact_refused``) while a result's
  journal line no longer verifies, since copying it would lose the job.
* **Settlements are pushed, not polled for.**  A ``result`` request
  carrying ``wait`` seconds on an unsettled job parks its connection in
  the loop; the settlement is sent the moment it is journaled.  The
  wait (at most ``_CONN_TIMEOUT``), a stop, or a full parked set
  (``max_depth`` connections) answers ``pending``.
* **A settled job costs a locator.**  The result is encoded to
  canonical JSON inside the job and crosses from a worker as that one
  string.  The journal line and the answers to clients parked on the
  job are spliced around it, and then the daemon drops it: it keeps the
  job's fingerprint and the locator of its ``done`` line.  A later
  ``result`` reads that line back and checks its checksum; a line that
  no longer verifies answers ``error`` naming the job, never unverified
  bytes, and a restart re-executes the job.  ``failed`` settlements are
  small and stay as text.
* **Health is observable.**  The ``health`` verb reports an overall
  ``ok | degraded | draining`` state plus queue depth, journal
  segments/bytes, per-worker liveness, and breaker states.  Repeated
  worker deaths (``degraded_threshold`` in a row without a success)
  enter *degraded mode*: admission sheds down to a floor and compaction
  is deferred until workers hold again.
* **SIGTERM/SIGINT drain.**  The daemon stops accepting (submits shed
  with ``reason="stopping"``), finishes what it can inside
  ``drain_seconds``, journals a clean ``stop`` marker, and leaves
  anything unfinished safely journaled for its successor.

Fault points (see :class:`repro.resilience.FaultPlan`): ``serve.accept``
fires between admission and the journal write, ``serve.dispatch``
inside each job execution, ``serve.journal`` inside every journal
append, and ``serve.compact`` at each phase boundary of a compaction.
All support ``kill``/``hang``/``raise``; ``serve.journal`` additionally
supports ``corrupt`` (a torn append).
"""

from __future__ import annotations

import errno
import json
import math
import os
import signal
import socket
import traceback

from ..guard import CircuitBreaker, failure_signature
from ..parallel import PersistentPool, TaskFailure
from ..resilience.faults import maybe_fire
from ..telemetry import get_metrics, get_tracer
from ..telemetry.clock import monotonic, wall_time
from .admission import AdmissionController
from .journal import _canonical
from .protocol import (
    ProtocolError,
    error_response,
    ok_response,
    read_message,
    retry_after_response,
    write_message,
)
from .queue import _done_text, recover
from .router import default_router, job_seed

__all__ = ["ReproService", "ServiceAlreadyRunning"]

#: Longest single wait of the loop (idle accept, pool poll): it bounds
#: dispatch latency and how late a parked ``result`` wait is answered.
#: Settlements themselves reach parked clients without waiting on it.
_POLL_SECONDS = 0.05

#: Listen backlog, and the most connections one accept pass answers.
_BACKLOG = 16

#: Per-connection socket timeout: a stalled client cannot wedge the loop.
#: Also the longest a ``result`` request may stay parked.
_CONN_TIMEOUT = 5.0


class ServiceAlreadyRunning(RuntimeError):
    """The socket path is owned by a live daemon."""


def _breaker_key(kind):
    return "serve/%s" % kind


def _settled_frame(job_id, text):
    """The ``result`` answer for a job settled as canonical ``text``:
    ``"job_id"`` spliced in front — the first key in sorted order — so
    the frame is byte-identical to the one ``write_message`` would
    encode from the decoded settlement, and nothing is encoded or
    decoded again."""
    return ('{"job_id":%s,%s' % (json.dumps(job_id), text[1:])).encode("utf-8")


def _close_quietly(conn):
    try:
        conn.close()
    except OSError:  # repro: noqa[RES002] closing a reset socket can itself raise; the fd is gone either way
        pass


class _CircuitOpen:
    """Pre-dispatch marker: the job's family breaker is open."""

    __slots__ = ("signature",)

    def __init__(self, signature):
        self.signature = signature


class ReproService:
    """One daemon instance bound to a socket path and a journal file.

    Parameters
    ----------
    socket_path, journal_path:
        The Unix socket to serve on and the write-ahead journal backing
        the queue.  The journal's directory is created if needed.
    max_depth, per_client_limit:
        Admission bounds (see :class:`~repro.serve.admission.AdmissionController`).
    workers:
        Concurrency for job execution.  1 runs jobs inline in the
        daemon; >1 streams them to a supervised
        :class:`repro.parallel.PersistentPool`, pre-forked on the first
        dispatch: a dead or hung worker is respawned and its job
        re-dispatched under the same ``job_seed``, so results stay
        byte-identical to inline.
    task_deadline, deadline_retries:
        Per-job wall-clock budget (positive) enforced by the pool
        watchdog, and re-dispatches allowed after a watchdog kill or a
        worker death (``workers > 1`` only — inline dispatch has no
        supervisor process to preempt a hung call).
    breaker_threshold:
        Equivalent failures per job kind before its breaker opens.
    drain_seconds:
        Shutdown budget for finishing journaled work before the clean
        stop marker is written.
    router:
        A :class:`repro.serve.Router`; defaults to the built-ins.
    recycle_after:
        Retire and replace each pool worker after this many completed
        jobs (bounds slow memory growth; None disables).
    compact_every:
        Compact the journal after this many settlements (None disables).
    degraded_threshold:
        Consecutive worker deaths (without an intervening completed
        job) that flip the daemon into degraded mode.
    """

    def __init__(self, socket_path, journal_path, max_depth=64,
                 per_client_limit=None, workers=1, task_deadline=None,
                 deadline_retries=1, breaker_threshold=3, drain_seconds=5.0,
                 router=None, recycle_after=None,
                 compact_every=None, degraded_threshold=3):
        self.socket_path = os.fspath(socket_path)
        self.journal_path = os.fspath(journal_path)
        # A limit out of range raises here, before recover() creates the
        # journal.
        if task_deadline is not None and task_deadline <= 0:
            raise ValueError("task_deadline must be positive")
        self.admission = AdmissionController(
            max_depth=max_depth, per_client_limit=per_client_limit
        )
        self.router = router if router is not None else default_router()
        self.breaker = CircuitBreaker(threshold=breaker_threshold)
        self.queue, self.replay_stats = recover(self.journal_path)
        self.workers = max(1, int(workers))
        self.task_deadline = task_deadline
        self.deadline_retries = int(deadline_retries)
        self.drain_seconds = float(drain_seconds)
        self.recycle_after = recycle_after
        self.compact_every = (
            None if not compact_every else max(1, int(compact_every))
        )
        self.degraded_threshold = max(1, int(degraded_threshold))
        self.counters = {
            "accepted": 0, "completed": 0, "failed": 0, "shed": 0,
            "replayed": len(self.queue.pending), "compactions": 0,
        }
        self.heartbeats = {}
        self._stop_requested = None
        self._listener = None
        self._started_at = monotonic()
        self._client_of = {}
        self._parked = []  # [(deadline, job_id, conn)] long-poll results
        self._pool = None
        self._dispatch_started = {}
        self._settled_since_compact = 0
        self._degraded = False
        self._death_streak = 0
        self._deaths_seen = 0
        if self.replay_stats.corrupt:
            get_tracer().event(
                "serve.journal_corrupt", lines=self.replay_stats.corrupt
            )

    # ------------------------------------------------------------------
    # Socket lifecycle

    def _claim_socket(self):
        """Bind the Unix socket, reclaiming a stale path from a dead
        predecessor but refusing to shadow a live one."""
        if os.path.exists(self.socket_path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            probe.settimeout(0.5)
            try:
                probe.connect(self.socket_path)
            except OSError:
                os.unlink(self.socket_path)  # stale: owner died un-drained
            else:
                probe.close()
                raise ServiceAlreadyRunning(
                    "a daemon already serves %s" % self.socket_path
                )
            finally:
                probe.close()
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(_BACKLOG)
        listener.settimeout(_POLL_SECONDS)
        self._listener = listener

    # ------------------------------------------------------------------
    # Request handling

    def _handle_submit(self, request):
        kind = request.get("kind")
        client = str(request.get("client", "anonymous"))
        if kind not in self.router.kinds():
            return error_response(
                "unknown job kind %r (registered: %s)"
                % (kind, ", ".join(self.router.kinds()))
            )
        # Idempotent re-submit: a client that lost the ACK (connection
        # died after the fsynced journal write) retries the same job_id.
        # The daemon already holds that job, so the retry succeeds —
        # checked before admission, because the job occupies no *new*
        # capacity and a shed here would wrongly tell the client its
        # accepted job was refused.  A reused id with a different kind
        # or a payload whose canonical text differs is a genuine
        # conflict and stays an error.
        requested_id = request.get("job_id")
        if requested_id is not None:
            requested_id = str(requested_id)
        if requested_id in self.queue.accepted:
            if self.queue.same_work(requested_id, kind,
                                    request.get("payload") or {}):
                return ok_response(
                    job_id=requested_id,
                    position=self.queue.depth(),
                    duplicate=True,
                )
            return error_response(
                "job id %r already used with a different kind/payload"
                % requested_id
            )
        shed = self.admission.admit(
            client, self.queue.depth(),
            stopping=self._stop_requested is not None,
            degraded=self._degraded,
        )
        if shed is not None:
            self.counters["shed"] += 1
            get_metrics().counter("serve.shed").inc()
            get_tracer().event("serve.shed", reason=shed.reason,
                               client=client, depth=self.queue.depth())
            return retry_after_response(
                shed.retry_after, shed.reason, detail=shed.detail
            )
        maybe_fire("serve.accept", kind=kind, client=client)
        job_id = request.get("job_id")
        if not job_id:
            # An anonymous job takes the first free generated name: a
            # client may already hold the next one as its own job id.
            seq = self.queue._seq + 1
            while "job-%08d" % seq in self.queue.accepted:
                seq += 1
            job_id = "job-%08d" % seq
        job = {
            "job_id": str(job_id),
            "kind": kind,
            "client": client,
            "payload": request.get("payload") or {},
        }
        try:
            self.queue.accept(job)
        except ValueError as exc:
            return error_response(str(exc))
        self.admission.register(client)
        self._client_of[job["job_id"]] = client
        self.counters["accepted"] += 1
        return ok_response(job_id=job["job_id"], position=self.queue.depth())

    def _unsettled(self, job_id):
        return job_id in self.queue.pending or job_id in self.queue.taken

    def _result_response(self, job_id):
        """The answer to a ``result`` request for ``job_id``, now.

        A settled job's answer is its settlement text, read back from
        the journal for a ``done`` job (:meth:`JobQueue.settlement`),
        with ``"job_id"`` spliced in front (:func:`_settled_frame`).  A
        ``done`` line that no longer verifies answers ``error``.
        """
        if job_id not in self.queue.outcomes:
            if self._unsettled(job_id):
                return {"status": "pending", "job_id": job_id,
                        "depth": self.queue.depth()}
            return {"status": "not_found", "job_id": job_id}
        text = self.queue.settlement(job_id)
        if text is None:
            return error_response(
                "the journal line holding the result of job %r no longer "
                "verifies" % job_id, job_id=job_id)
        return _settled_frame(job_id, text)

    def _health_state(self):
        if self._stop_requested is not None:
            return "draining"
        if self._degraded:
            return "degraded"
        return "ok"

    def _journal_stats(self):
        journal = self.queue.journal
        return {
            "segments": len(journal.segments()),
            "bytes": journal.size_bytes(),
            "corrupt_lines": self.replay_stats.corrupt,
            "compactions": self.counters["compactions"],
        }

    def _worker_stats(self):
        if self.workers == 1:
            return {"count": 1}
        if self._pool is None:
            return {"count": self.workers, "started": False}
        return {"count": self.workers, "started": True, **self._pool.stats()}

    def status(self):
        """The liveness/readiness + telemetry snapshot (``status`` verb)."""
        payload = {
            "pid": os.getpid(),
            "socket": self.socket_path,
            "journal": self.journal_path,
            "uptime_seconds": round(monotonic() - self._started_at, 3),
            "stopping": self._stop_requested is not None,
            "health": self._health_state(),
            "queue_depth": self.queue.depth(),
            "outcomes": len(self.queue.outcomes),
            "counters": dict(self.counters),
            "admission": self.admission.snapshot(),
            "breakers": self.breaker.open_breakers(),
            "heartbeats": dict(sorted(self.heartbeats.items())),
            "kinds": self.router.kinds(),
            "workers": self.workers,
            "journal_stats": self._journal_stats(),
            "replay": {
                "recovered": self.counters["replayed"],
                "corrupt_lines": self.replay_stats.corrupt,
                "torn_tail": self.replay_stats.torn_tail,
                "clean_stop": self.replay_stats.clean_stop,
            },
        }
        return ok_response(**payload)

    def health(self):
        """The supervision snapshot (``health`` verb).

        Smaller and more pointed than ``status``: the overall
        ``ok | degraded | draining`` state plus exactly what an
        orchestrator needs to decide whether to route work here —
        queue depth and in-flight count, journal segments/bytes,
        per-worker liveness (last heartbeat age, jobs served,
        respawn/death/recycle counts), and open breakers.
        """
        return ok_response(
            health=self._health_state(),
            pid=os.getpid(),
            queue_depth=self.queue.depth(),
            in_flight=len(self.queue.taken),
            death_streak=self._death_streak,
            journal=self._journal_stats(),
            workers=self._worker_stats(),
            breakers=self.breaker.open_breakers(),
            admission=self.admission.snapshot(),
            counters=dict(self.counters),
        )

    def _handle_request(self, request):
        verb = request.get("verb")
        if verb == "submit":
            return self._handle_submit(request)
        if verb == "result":
            return self._result_response(str(request.get("job_id", "")))
        if verb == "status":
            return self.status()
        if verb == "health":
            return self.health()
        if verb == "stop":
            self._stop_requested = "stop-verb"
            return ok_response(stopping=True, depth=self.queue.depth())
        return error_response("unknown verb %r" % (verb,))

    def _serve_one_connection(self, conn):
        """Answer one request; a misbehaving peer never crashes the loop.

        ``OSError`` covers the whole family of routine peer failures —
        ``socket.timeout`` (stalled mid-frame), ``ConnectionResetError``
        (peer reset under us), ``BrokenPipeError`` (peer gave up waiting
        for a slow job and closed before reading the response).  All of
        them end this connection, not the daemon: degrade, not crash.
        A long-poll ``result`` may instead park the connection, which
        is then answered later by :meth:`_wake` or :meth:`_expire_parked`.
        """
        conn.settimeout(_CONN_TIMEOUT)
        parked = False
        try:
            request = read_message(conn)
            if request is None:
                return
            if not isinstance(request, dict):
                write_message(conn, error_response("request must be an object"))
                return
            parked = self._park(conn, request)
            if not parked:
                write_message(conn, self._handle_request(request))
        except (ProtocolError, OSError) as exc:
            self._conn_failed(conn, exc)
        finally:
            if not parked:
                _close_quietly(conn)

    def _send(self, conn, response):
        """Answer a parked connection and close it."""
        try:
            write_message(conn, response)
        except (ProtocolError, OSError) as exc:
            self._conn_failed(conn, exc)
        finally:
            _close_quietly(conn)

    def _conn_failed(self, conn, exc):
        """One ``serve.conn_error`` event and a best-effort error reply."""
        get_tracer().event("serve.conn_error",
                           error=type(exc).__name__, detail=str(exc))
        try:
            write_message(conn, error_response(str(exc)))
        except OSError:  # repro: noqa[RES002] peer is already gone; nothing left to tell it
            pass

    # ------------------------------------------------------------------
    # Long-poll ``result``

    def _park(self, conn, request):
        """Hold a ``result`` request with ``wait`` seconds until its job
        settles; True when ``conn`` joined the parked set.

        Settled and unknown jobs are answered at once, and so is any
        request while the daemon stops or ``max_depth`` connections are
        already parked (``pending``, which the client reads as "ask
        again later").
        """
        if request.get("verb") != "result":
            return False
        job_id = str(request.get("job_id", ""))
        try:
            wait = float(request.get("wait") or 0.0)
        except (TypeError, ValueError):
            return False
        if (not wait > 0.0 or not self._unsettled(job_id)
                or self._stop_requested is not None
                or len(self._parked) >= self.admission.max_depth):
            return False
        self._parked.append(
            (monotonic() + min(wait, _CONN_TIMEOUT), job_id, conn)
        )
        return True

    def _wake(self, job_id, result_text=None):
        """Answer every connection parked on ``job_id``, whose settlement
        was just journaled; a ``done`` job is answered from
        ``result_text``, its result's canonical text, still in hand."""
        waiting = [entry for entry in self._parked if entry[1] == job_id]
        if not waiting:
            return
        self._parked = [entry for entry in self._parked if entry[1] != job_id]
        response = (self._result_response(job_id) if result_text is None
                    else _settled_frame(job_id, _done_text(result_text)))
        for _, _, conn in waiting:
            self._send(conn, response)

    def _expire_parked(self, until):
        """Answer ``pending`` to the parked connections due by ``until``
        (``math.inf`` answers all of them: the daemon is stopping)."""
        due = [entry for entry in self._parked if entry[0] <= until]
        if not due:
            return
        self._parked = [entry for entry in self._parked if entry[0] > until]
        for _, job_id, conn in due:
            self._send(conn, self._result_response(job_id))

    # ------------------------------------------------------------------
    # Dispatch

    def _run_job(self, job, _seed):
        """Execute ``job``; returns its result's canonical JSON text.

        The encode happens here, inside the job (inline or on a worker),
        so only the text crosses back, and a result that JSON cannot
        encode fails this job (``TypeError``) instead of the daemon's
        loop.
        """
        maybe_fire("serve.dispatch", job_id=job["job_id"], kind=job["kind"])
        return _canonical(self.router.dispatch(job))

    def _settle_outcome(self, job, outcome):
        """Journal one job's settlement, answer its parked clients, and
        release its admission slot.  ``outcome`` is the result text from
        :meth:`_run_job`, a ``TaskFailure``, or a ``_CircuitOpen``; a
        result text answers the parked clients and is then dropped (the
        queue keeps its journal line's locator)."""
        job_id = job["job_id"]
        result_text = None
        self.heartbeats[job["kind"]] = round(wall_time(), 3)
        self.heartbeats["worker"] = round(wall_time(), 3)
        if isinstance(outcome, _CircuitOpen):
            self.queue.settle_failed(
                job_id, "circuit_open:%s" % outcome.signature,
                "breaker for %r is open" % job["kind"],
            )
            self.counters["failed"] += 1
        elif isinstance(outcome, TaskFailure):
            self.queue.settle_failed(job_id, outcome.reason,
                                     outcome.message)
            self.counters["failed"] += 1
            opened = self.breaker.record_failure(
                _breaker_key(job["kind"]), outcome.reason, outcome.message,
            )
            if opened is not None:
                get_tracer().event("serve.breaker_opened",
                                   kind=job["kind"], signature=opened)
        else:
            self.queue.settle_done(job_id, outcome)
            self.counters["completed"] += 1
            self._death_streak = 0
            result_text = outcome
        self._wake(job_id, result_text)
        self._settled_since_compact += 1
        client = self._client_of.pop(job_id, job.get("client"))
        if client is not None:
            self.admission.release(client)

    def _dispatch_some(self):
        """Advance job execution one step; returns jobs touched."""
        if self.workers == 1:
            return self._dispatch_inline()
        return self._dispatch_pool()

    def _short_circuit(self, job):
        """Settle ``job`` as ``circuit_open`` if its family's breaker is
        open; True when it did (the job is never run)."""
        signature = self.breaker.open_signature(_breaker_key(job["kind"]))
        if signature is None:
            return False
        get_metrics().counter("serve.circuit_short_circuit").inc()
        self._settle_outcome(job, _CircuitOpen(signature))
        return True

    def _dispatch_inline(self):
        """Run pending jobs in this process, settling each as it lands.

        The serial reference path: no worker process, so a crash here is
        a daemon crash and the unsettled jobs replay on restart.  One
        step runs at least one job and starts no new one after
        ``_POLL_SECONDS``, so waiting clients and the drain deadline are
        served between slow jobs.
        """
        ran = 0
        step_end = monotonic() + _POLL_SECONDS
        while self.queue.pending and (not ran or monotonic() < step_end):
            (job,) = self.queue.take(1)
            ran += 1
            if self._short_circuit(job):
                continue
            started = monotonic()
            try:
                outcome = self._run_job(job, job_seed(job["job_id"]))
            except Exception as exc:
                outcome = TaskFailure(job["job_id"], type(exc).__name__,
                                      str(exc), traceback.format_exc())
            self._settle_outcome(job, outcome)
            self.admission.observe_service(monotonic() - started)
        return ran

    def _ensure_pool(self):
        """Lazily pre-fork the supervised worker set (first dispatch)."""
        if self._pool is None:
            self._pool = PersistentPool(
                self._run_job,
                workers=self.workers,
                task_deadline=self.task_deadline,
                task_retries=self.deadline_retries,
                recycle_after=self.recycle_after,
            )
            get_tracer().event("serve.pool_started", workers=self.workers)
        return self._pool

    def _dispatch_pool(self):
        """Stream jobs to the worker pool; settle what completed.

        Jobs flow to idle workers as they free up, and completions
        settle (journal + admission release) the same loop iteration
        they land, so submit/result latency is one pool round trip.
        """
        pool = self._ensure_pool()
        dispatched = 0
        while pool.capacity() > 0 and self.queue.pending:
            (job,) = self.queue.take(1)
            if self._short_circuit(job):
                continue
            self._dispatch_started[job["job_id"]] = monotonic()
            pool.submit(
                job["job_id"], job, job_seed(job["job_id"]),
                label="serve/%s/%s" % (job["kind"], job["job_id"]),
            )
            dispatched += 1
        busy = bool(self.queue.pending or self.queue.taken)
        completions = pool.poll(0.0 if (dispatched or not busy) else
                                _POLL_SECONDS)
        for job_id, outcome in completions:
            job = self.queue.taken.get(job_id) or self.queue.accepted.get(
                job_id, {"job_id": job_id, "kind": "?"}
            )
            started = self._dispatch_started.pop(job_id, None)
            self._settle_outcome(job, outcome)
            if started is not None:
                self.admission.observe_service(monotonic() - started)
        self._supervise(pool)
        return dispatched + len(completions)

    def _supervise(self, pool):
        """Track worker deaths and flip degraded mode on a streak."""
        if pool.deaths > self._deaths_seen:
            self._death_streak += pool.deaths - self._deaths_seen
            self._deaths_seen = pool.deaths
        degraded = self._death_streak >= self.degraded_threshold
        if degraded and not self._degraded:
            self._degraded = True
            get_metrics().counter("serve.degraded").inc()
            get_tracer().event("serve.degraded_enter",
                               deaths=self._death_streak)
        elif not degraded and self._degraded:
            self._degraded = False
            get_tracer().event("serve.degraded_exit")

    def _maybe_compact(self):
        """Compact the journal once per ``compact_every`` settlements.

        At most one compaction per loop pass; a pass that settled more
        than ``compact_every`` jobs is caught up on the following passes.
        Deferred while degraded: a daemon whose workers are dying should
        spend its cycles (and its I/O) on recovery, not on rewriting
        history — the journal stays correct either way, only larger.
        """
        if self.compact_every is None:
            return False
        if self._settled_since_compact < self.compact_every:
            return False
        if self._degraded:
            return False
        path = self.queue.compact()
        self._settled_since_compact -= self.compact_every
        if path is None:
            get_tracer().event("serve.compact_refused",
                               settled=len(self.queue.outcomes))
            return False
        self.counters["compactions"] += 1
        get_tracer().event(
            "serve.compacted", segment=os.path.basename(path),
            bytes=self.queue.journal.size_bytes(),
            live=self.queue.depth(), settled=len(self.queue.outcomes),
        )
        return True

    # ------------------------------------------------------------------
    # Main loop

    def _signal_handler(self, signum, _frame):
        self._stop_requested = signal.Signals(signum).name

    def serve_forever(self):
        """Bind, recover, serve until stopped; returns the final status.

        The loop alternates between draining the accept socket and
        advancing dispatch, so submit/status latency is bounded by the
        slowest single step.  On a stop request (SIGTERM, SIGINT, or
        the ``stop`` verb) it stops accepting, drains journaled work
        inside ``drain_seconds``, writes the clean ``stop`` marker, and
        removes the socket.
        """
        self._claim_socket()
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, self._signal_handler)
            except ValueError:  # repro: noqa[RES002] not the main thread (tests); signals stay with the host
                pass
        get_tracer().event(
            "serve.started", pid=os.getpid(), socket=self.socket_path,
            recovered=self.counters["replayed"],
        )
        try:
            while self._stop_requested is None:
                self._poll_accept()
                self._dispatch_some()
                self._expire_parked(monotonic())
                self._maybe_compact()
            self._drain()
            self.queue.mark_stop()
            get_tracer().event("serve.stopped",
                               reason=self._stop_requested,
                               depth=self.queue.depth())
        finally:
            self._expire_parked(math.inf)
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            if self._listener is not None:
                self._listener.close()
                self._listener = None
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            self.queue.close()
        return self.status()

    def _poll_accept(self):
        """Accept and answer the connections currently waiting.

        Idle, the first accept blocks for ``_POLL_SECONDS`` so an empty
        daemon does not spin.  Every other accept is non-blocking, and a
        pass answers (or parks) at most ``_BACKLOG`` connections: a
        client that reconnects faster than the poll (e.g. one asking
        ``result`` without ``wait``) can delay dispatch by one pass,
        never starve it.
        """
        idle = not (self.queue.pending or self.queue.taken)
        self._listener.settimeout(_POLL_SECONDS if idle else 0.0)
        for _ in range(_BACKLOG):
            try:
                conn, _ = self._listener.accept()
            except (socket.timeout, BlockingIOError):
                return
            except OSError as exc:
                if exc.errno in (errno.EBADF, errno.EINVAL):
                    return
                raise
            self._listener.settimeout(0.0)
            self._serve_one_connection(conn)

    def _drain(self):
        """Finish journaled work inside the shutdown budget.

        Jobs still pending at the deadline stay journaled (accepted,
        unsettled) — the successor daemon replays them; they are *not*
        marked failed, because nothing about them failed.  Parked
        clients get the settlements the drain produces, or ``pending``
        when their wait runs out first.
        """
        deadline = monotonic() + self.drain_seconds
        while ((self.queue.pending or self.queue.taken)
               and monotonic() < deadline):
            self._dispatch_some()
            self._expire_parked(monotonic())
        if self.queue.pending or self.queue.taken:
            get_tracer().event("serve.drain_deadline",
                               left=self.queue.depth())

    def describe(self):
        """One-line startup summary for the CLI."""
        return (
            "repro-serve pid=%d socket=%s journal=%s depth=%d "
            "recovered=%d workers=%d"
            % (os.getpid(), self.socket_path, self.journal_path,
               self.queue.depth(), self.counters["replayed"], self.workers)
        )
