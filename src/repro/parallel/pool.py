"""Deterministic fork-based worker pool with one supervisor.

Every parallel task in this codebase runs on a :class:`PersistentPool`:
a set of workers forked **once**, fed tasks as length-prefixed pickled
frames over one pipe pair per worker, and supervised by the parent.
:func:`parallel_map` is the call-scoped use of it — it forks the pool
after ``fn`` and ``items`` exist, submits item *indices*, and closes the
pool before it returns — and the serve daemon keeps one pool alive for
its whole life.  Three design decisions keep results cheap to trust:

* **Determinism lives in the seeds, not the scheduler.**  Every task
  runs under an explicit seed — ``derive_seed(seed_root, index)`` in
  :func:`parallel_map`, ``job_seed(job_id)`` in the daemon — that the
  parent passes with each dispatch.  Whatever interleaving the OS
  picks, and whichever worker a re-dispatch lands on, a task sees the
  same seed, so an order-preserved result list is bit-identical to a
  serial run.
* **Fork once, after the work exists.**  Workers inherit the parent's
  heap copy-on-write at pool construction: ``parallel_map``'s closure,
  its captured arrays and models, and module-level state (fault plans,
  cached extractors) need not pickle — only indices travel to a worker
  and only results travel back.  A long-lived pool ships its items, so
  those must pickle too.  Module state a task mutates stays in its
  worker and is seen by the later tasks that worker runs.
* **Death is observable per task.**  A worker runs one task at a time
  on its own pipes, so one that dies (OOM kill, ``os._exit``,
  segfault) is attributed to exactly the task it was running, and the
  parent turns it into a :class:`TaskFailure` instead of hanging or
  poisoning a shared queue.  ``stdlib`` pools get this wrong in both
  directions, which is why the lint gate (rule PAR001) funnels all
  fan-out through here.

Supervision (see :mod:`repro.guard`) follows one retry policy for both
ways a task can be lost.  A worker that dies mid-task is seen as pipe
EOF; one that produces no result within ``task_deadline`` is SIGKILLed
by the watchdog.  Either way the worker is reaped and replaced, and its
task is re-dispatched under the *same* seed up to ``task_retries``
times (``deadline_retries`` in :func:`parallel_map`) — a
hung-then-killed-then-rerun task is bit-identical to one that never
hung.  A task lost on every dispatch settles as
``TaskFailure(reason="WorkerDied")`` with the worker's exit status, or
``"WatchdogKilled"`` with its elapsed time, both naming the last phase
the worker reported (:func:`repro.guard.report_phase` heartbeats stream
over the result pipe).  :func:`parallel_map` adds a ``pre_dispatch``
hook that may return :class:`Skip` to settle a task without running it;
:func:`repro.parallel.run_cells` uses this to honor open circuit
breakers mid-batch.

Workers that raise an ordinary ``Exception`` ship the error back as a
:class:`TaskFailure` payload; raising :class:`BaseException` subclasses
that are not ``Exception`` (notably ``repro.resilience.SimulatedKill``)
hard-exit the worker so the parent exercises its real dead-worker path.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import selectors
import signal
import struct
import sys
import time
import traceback
from collections import deque

from ..telemetry.clock import monotonic

__all__ = [
    "PersistentPool",
    "PoolInterrupted",
    "Skip",
    "TaskFailure",
    "WorkerError",
    "derive_seed",
    "in_worker",
    "parallel_map",
    "resolve_workers",
]

# Exit code a worker uses when a simulated kill (or any non-Exception
# BaseException) unwinds it: distinguishable from interpreter crashes in
# the failure reason, but handled identically.
_KILL_EXIT = 113

#: Length prefix for pipe frames: 4-byte big-endian payload size.
_FRAME_HEADER = struct.Struct(">I")

_IN_WORKER = False


class TaskFailure:
    """Parent-side record of one task that did not produce a result.

    ``reason`` is ``"WorkerDied"`` when the worker process vanished
    without delivering a payload, ``"WatchdogKilled"`` when the pool's
    watchdog SIGKILLed a worker that exceeded its task deadline — each
    only once the task was lost on every dispatch — and otherwise the
    exception class name raised inside the worker.  ``index`` is the
    task's item index in :func:`parallel_map` and its task id in a
    :class:`PersistentPool`.  Instances are returned in place of the
    task's result when ``on_error="return"``.
    """

    __slots__ = ("index", "reason", "message", "traceback", "exit_status")

    def __init__(self, index, reason, message="", tb="", exit_status=None):
        self.index = index
        self.reason = reason
        self.message = message
        self.traceback = tb
        self.exit_status = exit_status

    def __repr__(self):
        return "TaskFailure(index=%r, reason=%r, message=%r)" % (
            self.index, self.reason, self.message,
        )


class WorkerError(RuntimeError):
    """Raised by :func:`parallel_map` (``on_error="raise"``) after the
    pool drains, wrapping the first failed task."""

    def __init__(self, failure):
        self.failure = failure
        detail = failure.message or failure.reason
        super().__init__(
            "task %d failed in worker: %s" % (failure.index, detail)
        )


class PoolInterrupted(KeyboardInterrupt):
    """Structured interruption of a :func:`parallel_map` call.

    Raised (instead of a raw ``KeyboardInterrupt``) when SIGINT or
    SIGTERM unwinds the pool, *after* every outstanding worker has been
    SIGKILLed and reaped — an interrupted pool never leaks orphan
    processes.  Subclasses ``KeyboardInterrupt`` so existing
    ``except KeyboardInterrupt`` handlers keep working, while callers
    that care can read:

    ``signal_name``
        ``"SIGINT"`` or ``"SIGTERM"``.
    ``completed``
        Sorted indices of tasks that settled (result or failure
        delivered — their ``on_result`` callbacks already ran).
    ``pending``
        Sorted indices of tasks that did not settle; any in-flight
        worker for them was killed.  Re-running them with the same
        ``seed_root`` reproduces their original seeds exactly.
    """

    def __init__(self, signal_name, completed, pending):
        self.signal_name = signal_name
        self.completed = list(completed)
        self.pending = list(pending)
        super().__init__(
            "parallel_map interrupted by %s: %d task(s) settled, "
            "%d pending" % (signal_name, len(self.completed),
                            len(self.pending))
        )


class Skip:
    """Sentinel a ``pre_dispatch`` hook returns to settle a task inline.

    The wrapped ``value`` becomes the task's result without the task
    ever reaching a worker — how open circuit breakers convert queued
    cells into immediate failures mid-batch.
    """

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def derive_seed(seed_root, index):
    """Deterministic per-task seed: a pure function of root and index.

    Stable across processes, platforms and Python hash randomization
    (sha256, not ``hash()``), so task *i* of a sweep sees the same seed
    whether it runs serially, on 4 workers, or on 32 — and whether or
    not an earlier dispatch of it was watchdog-killed.
    """
    digest = hashlib.sha256(
        b"repro.parallel:%d:%d" % (int(seed_root), int(index))
    ).digest()
    return int.from_bytes(digest[:4], "big")


def resolve_workers(max_workers):
    """Map a ``max_workers`` argument to an effective worker count.

    ``None`` means one worker; inside a worker process everything
    degrades to serial so nested ``parallel_map`` calls never fork
    grandchildren.
    """
    if _IN_WORKER or max_workers is None:
        return 1
    return max(1, int(max_workers))


def in_worker():
    """True inside a pool worker process (nested pools stay serial)."""
    return _IN_WORKER


# ----------------------------------------------------------------------
# Pipe frames


def _send_frame(write_fd, obj):
    """Write one length-prefixed pickle frame to a raw fd."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    data = _FRAME_HEADER.pack(len(payload)) + payload
    view = memoryview(data)
    while view:
        written = os.write(write_fd, view)
        view = view[written:]


def _frames(buffer):
    """Pop and unpickle every complete frame in ``buffer``.

    A trailing partial frame stays buffered until the rest arrives.  A
    frame that fails to unpickle — corrupted by a worker dying
    mid-write — is skipped, which is equivalent to never receiving it:
    the parent then records the death from the missing result.
    """
    header = _FRAME_HEADER.size
    while len(buffer) >= header:
        (size,) = _FRAME_HEADER.unpack(buffer[:header])
        if len(buffer) < header + size:
            return
        payload = bytes(buffer[header:header + size])
        del buffer[:header + size]
        try:
            frame = pickle.loads(payload)
        except Exception:
            continue
        yield frame


# ----------------------------------------------------------------------
# Worker side


def _read_tasks(task_fd):
    """Yield task frames from the pipe until a stop frame or EOF."""
    buffer = bytearray()
    while True:
        chunk = os.read(task_fd, 1 << 16)
        if not chunk:
            return  # the parent closed the task pipe
        buffer.extend(chunk)
        for frame in _frames(buffer):
            if frame[0] == "stop":
                return
            yield frame[1]


def _collect_telemetry(parent_tracer_enabled, parent_metrics_enabled):
    """Install fresh telemetry sinks in the worker; return a drain fn.

    The forked worker inherits the parent's Tracer/MetricsRegistry
    objects, but appending to them is useless — the memory is
    copy-on-write and the parent never sees it.  So when the parent had
    telemetry enabled, the worker swaps in fresh sinks for each task and
    ships their contents back in the result envelope for the parent to
    merge.
    """
    if not (parent_tracer_enabled or parent_metrics_enabled):
        return lambda: (None, None)
    from ..telemetry.metrics import MetricsRegistry, set_metrics
    from ..telemetry.tracer import Tracer, set_tracer

    tracer = Tracer() if parent_tracer_enabled else None
    metrics = MetricsRegistry() if parent_metrics_enabled else None
    if tracer is not None:
        set_tracer(tracer)
    if metrics is not None:
        set_metrics(metrics)

    def drain():
        records = None
        if tracer is not None:
            now = tracer._clock() - tracer._t0
            while tracer._stack:
                top = tracer._stack.pop()
                top.duration = now - top.start
                top.attrs.setdefault("unclosed", True)
                tracer._record(top)
            records = tracer.records
        snapshot = metrics.snapshot() if metrics is not None else None
        return records, snapshot

    return drain


def _worker_main(task_fd, write_fd, fn, telemetry_flags):
    """Serve tasks from the pipe until a stop frame or EOF; never returns.

    Each task frame carries the task id, item, label, dispatch count and
    the seed — the parent derives the seed, so a task re-run on another
    worker (or after a respawn) sees the identical one and stays
    byte-identical.
    """
    global _IN_WORKER
    _IN_WORKER = True
    status = 0
    try:
        from ..guard.phase import set_phase_reporter
        from ..resilience.faults import maybe_fire

        # Stream phase heartbeats over the result pipe so the parent
        # knows what a worker was doing if it has to be watchdog-killed.
        set_phase_reporter(
            lambda name: _send_frame(write_fd, ("phase", name))
        )
        for task in _read_tasks(task_fd):
            drain = _collect_telemetry(*telemetry_flags)
            try:
                maybe_fire("worker.task", index=task["id"],
                           task=task["label"], dispatch=task["dispatch"])
                envelope = {"ok": True,
                            "result": fn(task["item"], task["seed"])}
            except Exception as exc:
                envelope = {
                    "ok": False,
                    "reason": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                }
            envelope["records"], envelope["metrics"] = drain()
            _send_frame(write_fd, ("result",
                                   {"id": task["id"], "envelope": envelope}))
        os.close(write_fd)
    except BaseException:
        # SimulatedKill or anything else non-recoverable: die without a
        # result frame so the parent takes its genuine dead-worker path.
        status = _KILL_EXIT
    finally:
        # Skip interpreter teardown: atexit handlers, buffered parent
        # file handles etc. belong to the parent and must not run here.
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(status)


# ----------------------------------------------------------------------
# Parent side


def _exit_status_of(wait_status):
    """Decode a raw ``waitpid`` status, signal-aware.

    Mirrors ``os.waitstatus_to_exitcode`` (negative signal number for a
    signal-killed child, plain exit code otherwise) using the POSIX
    macros directly: the naive ``wait_status >> 8`` decodes a
    signal-killed child as exit 0, silently misreporting a SIGKILL/OOM
    kill as a clean exit.
    """
    if os.WIFSIGNALED(wait_status):
        return -os.WTERMSIG(wait_status)
    if os.WIFEXITED(wait_status):
        return os.WEXITSTATUS(wait_status)
    return wait_status


def _sigkill(pid):
    """Best-effort SIGKILL (the process may already be gone)."""
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:  # repro: noqa[RES002] already dead, which is the desired end state
        pass


def _reap(worker, kill_after=1.0):
    """Collect the worker's exit status without ever blocking the pool.

    Called once the worker exited, was SIGKILLed or was told to stop,
    so exit is imminent: poll ``WNOHANG`` with a short backoff instead
    of a blocking ``os.waitpid(pid, 0)``, and escalate to SIGKILL if the
    worker somehow lingers past ``kill_after`` seconds (a hung atexit
    path must not wedge the supervisor).
    """
    delay = 0.0005
    waited = 0.0
    killed = False
    while True:
        try:
            pid, wait_status = os.waitpid(worker.pid, os.WNOHANG)
        except ChildProcessError:
            return None
        if pid != 0:
            return _exit_status_of(wait_status)
        if not killed and waited >= kill_after:
            _sigkill(worker.pid)
            killed = True
        time.sleep(delay)
        waited += delay
        delay = min(delay * 2, 0.05)


def _merge_worker_telemetry(envelope):
    if envelope.get("records"):
        from ..telemetry.tracer import get_tracer

        get_tracer().merge(envelope["records"])
    if envelope.get("metrics"):
        from ..telemetry.metrics import get_metrics

        get_metrics().merge_snapshot(envelope["metrics"])


def parallel_map(fn, items, max_workers=None, seed_root=0, on_error="raise",
                 task_label=None, on_result=None, task_deadline=None,
                 deadline_retries=1, pre_dispatch=None):
    """Map ``fn(item, seed)`` over ``items``, optionally in parallel.

    Parameters
    ----------
    fn:
        Callable of ``(item, seed)``.  In parallel mode it runs in a
        :class:`PersistentPool` worker forked for this call once ``fn``
        and ``items`` exist; it may close over arbitrary unpicklable
        state, but its *return value* must pickle.
    items:
        Sequence of task inputs.
    max_workers:
        Concurrency cap.  ``None`` or 1 runs everything inline in this
        process with the *same* derived seeds, so serial and parallel
        runs are bit-identical by construction.
    seed_root:
        Root of the per-task seed derivation (:func:`derive_seed`).
    on_error:
        ``"raise"`` (default) raises :class:`WorkerError` for the first
        failed task after all tasks finish; ``"return"`` puts a
        :class:`TaskFailure` in the result slot instead.
    task_label:
        Optional ``label(item, index)`` used in per-task telemetry
        events and in the ``worker.task`` fault-point context.
    on_result:
        Optional ``on_result(index, result_or_failure)`` invoked as each
        task finishes, in **completion** order (item order when serial).
        Callers use this for crash-safe incremental persistence — e.g.
        checkpointing sweep cells as they land rather than after the
        whole batch.
    task_deadline:
        Optional per-task wall-clock budget in seconds, enforced by the
        pool's watchdog (parallel mode only — a serial pool has no
        supervisor process to preempt a hung call).  A worker past its
        deadline is SIGKILLed and the task re-dispatched with the same
        derived seed.
    deadline_retries:
        Re-dispatches allowed per task after a watchdog kill or a
        worker death (default 1); a task lost on every dispatch settles
        as ``TaskFailure(reason="WatchdogKilled")`` or ``"WorkerDied"``.
    pre_dispatch:
        Optional ``pre_dispatch(item, index)`` called in the parent just
        before a task would be dispatched.  Return :class:`Skip` to
        settle the task with ``Skip.value`` instead of running it, or
        None to run normally.

    Returns
    -------
    list
        One entry per item, in item order.

    Raises
    ------
    PoolInterrupted
        When SIGINT or SIGTERM arrives mid-map.  A temporary SIGTERM
        handler (installed only in the main thread, restored on exit)
        turns termination into the same unwind as Ctrl-C; either way
        every worker is SIGKILLed and reaped before the exception
        escapes, and it carries which task indices settled and which
        are still pending.
    """
    if on_error not in ("raise", "return"):
        raise ValueError("on_error must be 'raise' or 'return'; got %r"
                         % (on_error,))
    items = list(items)
    workers = min(resolve_workers(max_workers), len(items))
    results = [None] * len(items)
    failures = []
    settled = set()

    interrupt = {"signal": "SIGINT"}

    def on_interrupt(signum, frame):
        # SIGTERM takes the exact unwind path SIGINT does; the
        # except-KeyboardInterrupt below restructures both.
        interrupt["signal"] = signal.Signals(signum).name
        raise KeyboardInterrupt()

    try:
        previous_term = signal.signal(signal.SIGTERM, on_interrupt)
    except ValueError:  # not the main thread; SIGTERM keeps its disposition
        previous_term = None

    def settle(index, value):
        results[index] = value
        settled.add(index)
        if on_result is not None:
            on_result(index, value)

    def skipped(index):
        """Run ``pre_dispatch``; True when it settled the task inline."""
        if pre_dispatch is None:
            return False
        skip = pre_dispatch(items[index], index)
        if skip is None:
            return False
        if not isinstance(skip, Skip):
            raise TypeError(
                "pre_dispatch must return Skip(value) or None; got %r"
                % (skip,)
            )
        settle(index, skip.value)
        return True

    try:
        if workers <= 1:
            for index, item in enumerate(items):
                if skipped(index):
                    continue
                try:
                    value = fn(item, derive_seed(seed_root, index))
                except Exception as exc:
                    if on_error == "raise":
                        raise
                    value = TaskFailure(index, type(exc).__name__, str(exc),
                                        traceback.format_exc())
                    failures.append(value)
                settle(index, value)
        else:
            with PersistentPool(lambda index, seed: fn(items[index], seed),
                                workers=workers, task_deadline=task_deadline,
                                task_retries=deadline_retries) as pool:
                queue = iter(range(len(items)))

                def launch():
                    """Submit the next task pre_dispatch lets run; 1 if any."""
                    for index in queue:
                        if not skipped(index):
                            pool.submit(
                                index, index, derive_seed(seed_root, index),
                                label=(None if task_label is None
                                       else task_label(items[index], index)),
                            )
                            return 1
                    return 0

                # One launch per settled task keeps pre_dispatch seeing
                # every earlier completion, as a breaker needs.
                live = sum(launch() for _ in range(workers))
                while live:
                    for index, outcome in pool.poll(None):
                        if isinstance(outcome, TaskFailure):
                            failures.append(outcome)
                        settle(index, outcome)
                        live += launch() - 1
    except KeyboardInterrupt:
        # Workers are dead and reaped (the pool closed with kill=True);
        # surface a structured interruption instead of a raw ^C.
        raise PoolInterrupted(
            interrupt["signal"], sorted(settled),
            [i for i in range(len(items)) if i not in settled],
        ) from None
    finally:
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)

    if failures and on_error == "raise":
        failures.sort(key=lambda f: f.index)
        raise WorkerError(failures[0])
    return results


# ----------------------------------------------------------------------
# The supervisor


class _Worker:
    __slots__ = ("pid", "task_fd", "read_fd", "buffer", "phase", "jobs",
                 "task", "started", "last_beat", "retiring")

    def __init__(self, pid, task_fd, read_fd):
        self.pid = pid
        self.task_fd = task_fd
        self.read_fd = read_fd
        self.buffer = bytearray()
        self.phase = None
        self.jobs = 0
        self.task = None
        self.started = None
        self.last_beat = monotonic()
        self.retiring = False


class PersistentPool:
    """Pre-forked, supervised worker set for streamed task dispatch.

    Forks ``workers`` children once; :meth:`submit` queues a task and
    :meth:`poll` advances the pool, returning completions in the order
    they land.  ``fn`` is captured at construction (workers inherit it
    copy-on-write); task items and results cross the pipes, so they
    must pickle.

    Determinism is caller-owned: :meth:`submit` takes an explicit
    ``seed`` (:func:`parallel_map` passes ``derive_seed(seed_root,
    index)``, the serve daemon ``job_seed(job_id)``), so a task
    re-dispatched after a worker death runs under the identical seed
    and produces byte-identical results on any worker.

    Supervision, kept continuously:

    * a worker that dies mid-task (OOM, segfault, ``os._exit``) is
      detected by pipe EOF, a worker whose task exceeds
      ``task_deadline`` is SIGKILLed; either is reaped and replaced,
      and its task re-dispatched (same seed) up to ``task_retries``
      times, then settled as ``TaskFailure(reason="WorkerDied")`` or
      ``"WatchdogKilled"``;
    * after ``recycle_after`` completed tasks a worker is retired and
      replaced by a fresh fork (bounds slow memory growth in a daemon
      that runs for weeks).

    ``phase`` heartbeats (:func:`repro.guard.report_phase`) stream over
    the result pipe; the last beat and phase per worker surface in
    :meth:`stats` for health reporting.  Leaving a ``with`` block on an
    exception closes the pool with ``kill=True``.
    """

    def __init__(self, fn, workers=1, task_deadline=None, task_retries=1,
                 recycle_after=None):
        from ..telemetry.metrics import get_metrics
        from ..telemetry.tracer import get_tracer

        self.fn = fn
        self.workers = max(1, int(workers))
        self.task_deadline = task_deadline
        self.task_retries = int(task_retries)
        self.recycle_after = (
            None if recycle_after is None else max(1, int(recycle_after))
        )
        self.deaths = 0
        self.respawns = 0
        self.recycles = 0
        self._tracer = get_tracer()
        self._metrics = get_metrics()
        self._telemetry_flags = (self._tracer.enabled, self._metrics.enabled)
        self._backlog = deque()
        self._sel = selectors.DefaultSelector()
        self._workers = []
        self._closed = False
        try:
            for _ in range(self.workers):
                self._spawn_worker()
        except BaseException:
            # An interrupt or failed fork mid-construction must not
            # orphan the workers already forked.
            self.close(kill=True)
            raise

    # ------------------------------------------------------------------
    def _spawn_worker(self):
        task_read, task_write = os.pipe()
        res_read, res_write = os.pipe()
        inherited = [fd for worker in self._workers
                     for fd in (worker.task_fd, worker.read_fd)]
        pid = os.fork()
        if pid == 0:
            os.close(task_write)
            os.close(res_read)
            # Drop inherited ends of sibling pipes so a sibling's EOF is
            # decided by the sibling alone, not by this child's copies.
            for fd in inherited:
                try:
                    os.close(fd)
                except OSError:  # repro: noqa[RES002] a sibling fd already closed between snapshot and fork
                    pass
            _worker_main(task_read, res_write, self.fn,
                         self._telemetry_flags)
            os._exit(_KILL_EXIT)  # unreachable; _worker_main never returns
        os.close(task_read)
        os.close(res_write)
        worker = _Worker(pid, task_write, res_read)
        self._sel.register(res_read, selectors.EVENT_READ, worker)
        self._workers.append(worker)
        return worker

    def _idle_workers(self):
        return [worker for worker in self._workers
                if worker.task is None and not worker.retiring]

    def capacity(self):
        """Tasks the pool can start right now (idle live workers)."""
        if self._closed:
            return 0
        return max(0, len(self._idle_workers()) - len(self._backlog))

    def backlog(self):
        return len(self._backlog)

    def idle(self):
        """True when no task is in flight or queued anywhere in the pool."""
        return (not self._backlog
                and all(worker.task is None for worker in self._workers))

    # ------------------------------------------------------------------
    def submit(self, task_id, item, seed, label=None):
        """Queue one task for execution under an explicit seed.

        ``task_id`` keys the completion (returned by :meth:`poll`);
        ``seed`` is passed through to ``fn(item, seed)`` verbatim on
        every dispatch, including re-dispatches after a death.
        """
        if self._closed:
            raise RuntimeError("PersistentPool is closed")
        self._backlog.append({
            "id": task_id,
            "item": item,
            "seed": seed,
            "label": str(task_id) if label is None else label,
            "dispatch": 0,
        })
        self._feed()
        return task_id

    def _feed(self):
        for worker in self._idle_workers():
            if not self._backlog:
                return
            self._dispatch(worker, self._backlog.popleft())

    def _dispatch(self, worker, task):
        worker.task = task
        worker.started = monotonic()
        worker.last_beat = worker.started
        worker.phase = None
        try:
            _send_frame(worker.task_fd, ("task", task))
        except OSError:
            # The worker died between polls; put the task back at the
            # front and let the death path respawn + re-feed.
            worker.task = None
            self._backlog.appendleft(task)
            self._on_death(worker)

    # ------------------------------------------------------------------
    def _drain_worker(self, worker):
        """Decode buffered frames; returns completed result frames.

        ``("phase", name)`` heartbeats update the worker's last-known
        phase.  A partial or corrupt frame left by a worker that died
        mid-write never completes — the EOF path then records the death.
        """
        completions = []
        for kind, value in _frames(worker.buffer):
            if kind == "phase":
                worker.phase = value
                worker.last_beat = monotonic()
            elif kind == "result":
                completions.append(value)
        return completions

    def _retire_or_respawn(self, worker):
        """Remove a dead worker's bookkeeping and fork its replacement."""
        try:
            self._sel.unregister(worker.read_fd)
        except KeyError:  # repro: noqa[RES002] already unregistered by a racing death path
            pass
        for fd in (worker.read_fd, worker.task_fd):
            try:
                os.close(fd)
            except OSError:  # repro: noqa[RES002] fd already closed; the kernel freed it with the process
                pass
        if worker in self._workers:
            self._workers.remove(worker)
        if not self._closed:
            self.respawns += 1
            self._spawn_worker()

    def _on_death(self, worker, elapsed=None):
        """Reap and replace one worker; returns completions.

        Called on pipe EOF (a death, or the end of a clean recycle) and,
        with ``elapsed`` set, by the watchdog for a worker past its task
        deadline.  Anything but a clean recycle counts in ``deaths``; a
        lost in-flight task is re-dispatched under the same seed, or
        settled as ``WorkerDied`` / ``WatchdogKilled`` once
        ``task_retries`` is exhausted.
        """
        if worker not in self._workers:
            return []  # already handled by an earlier path this poll
        _sigkill(worker.pid)
        exit_status = _reap(worker)
        task = worker.task
        worker.task = None
        self._retire_or_respawn(worker)
        if task is None and worker.retiring:
            self.recycles += 1
            self._metrics.counter("parallel.pool_recycles").inc()
            self._feed()
            return []
        self.deaths += 1
        self._metrics.counter("parallel.pool_deaths").inc()
        label = None if task is None else task["label"]
        if elapsed is None:
            self._tracer.event("parallel.worker_died", task=label,
                               exit_status=exit_status, phase=worker.phase)
        completions = []
        if task is not None and task["dispatch"] < self.task_retries:
            self._backlog.appendleft(dict(task, dispatch=task["dispatch"] + 1))
        elif task is not None:
            phase = "" if worker.phase is None else \
                ", last phase %r" % worker.phase
            if elapsed is None:
                failure = TaskFailure(
                    task["id"], "WorkerDied",
                    "worker process for task %s exited with status %r "
                    "before delivering a result%s"
                    % (label, exit_status, phase),
                    exit_status=exit_status,
                )
            else:
                failure = TaskFailure(
                    task["id"], "WatchdogKilled",
                    "task %s exceeded its %.3gs deadline on %d dispatch(es) "
                    "(%.2fs elapsed%s)"
                    % (label, self.task_deadline, task["dispatch"] + 1,
                       elapsed, phase),
                )
            completions.append((task["id"], failure))
        self._feed()
        return completions

    def _watchdog_sweep(self, now):
        """SIGKILL workers past their task deadline; returns completions."""
        if self.task_deadline is None:
            return []
        completions = []
        for worker in list(self._workers):
            if worker.task is None:
                continue
            elapsed = now - worker.started
            if elapsed < self.task_deadline:
                continue
            self._tracer.event(
                "guard.watchdog_kill", task=worker.task["label"],
                elapsed=round(elapsed, 3), phase=worker.phase,
                dispatch=worker.task["dispatch"],
            )
            self._metrics.counter("guard.watchdog_kills").inc()
            completions.extend(self._on_death(worker, elapsed=elapsed))
        return completions

    def poll(self, timeout=0.0):
        """Advance the pool; returns ``[(task_id, result_or_failure)]``.

        Drains finished results, detects and replaces dead workers,
        enforces the task deadline, and feeds backlogged tasks to idle
        workers.  ``timeout`` bounds the wait when nothing is ready
        (None waits until something is); in-flight deadlines shorten it
        so a hung worker is killed on time rather than at the caller's
        cadence.
        """
        self._feed()
        completions = []
        if self.task_deadline is not None:
            now = monotonic()
            for worker in self._workers:
                if worker.task is not None:
                    left = max(0.0, worker.started + self.task_deadline - now)
                    timeout = left if timeout is None else min(timeout, left)
        for key, _ in self._sel.select(timeout):
            worker = key.data
            if worker not in self._workers:
                continue  # replaced earlier in this sweep; its fd may be reused
            try:
                chunk = os.read(worker.read_fd, 1 << 16)
            except OSError:
                chunk = b""
            if not chunk:
                completions.extend(self._on_death(worker))
                continue
            worker.buffer.extend(chunk)
            for value in self._drain_worker(worker):
                completions.append(self._settle(worker, value))
        completions.extend(self._watchdog_sweep(monotonic()))
        self._feed()
        return completions

    def _settle(self, worker, value):
        worker.task = None
        worker.jobs += 1
        worker.last_beat = monotonic()
        envelope = value["envelope"]
        _merge_worker_telemetry(envelope)
        if envelope["ok"]:
            outcome = envelope["result"]
        else:
            outcome = TaskFailure(
                value["id"], envelope["reason"], envelope["message"],
                envelope["traceback"],
            )
        if (self.recycle_after is not None
                and worker.jobs >= self.recycle_after
                and not worker.retiring):
            worker.retiring = True
            try:
                _send_frame(worker.task_fd, ("stop",))
            except OSError:  # repro: noqa[RES002] worker died right after its result; the EOF path replaces it
                pass
        return (value["id"], outcome)

    # ------------------------------------------------------------------
    def stats(self):
        """JSON-safe supervision snapshot for health reporting."""
        now = monotonic()
        return {
            "workers": [
                {
                    "pid": worker.pid,
                    "jobs": worker.jobs,
                    "in_flight": (None if worker.task is None
                                  else worker.task["label"]),
                    "phase": worker.phase,
                    "last_beat_age": round(now - worker.last_beat, 3),
                    "retiring": worker.retiring,
                }
                for worker in self._workers
            ],
            "deaths": self.deaths,
            "respawns": self.respawns,
            "recycles": self.recycles,
            "backlog": len(self._backlog),
        }

    def close(self, kill=False):
        """Stop and reap every worker.

        Closing a worker's task pipe is its stop signal; the reap then
        waits briefly before escalating to SIGKILL.  ``kill=True``
        SIGKILLs every worker first, so the reap is immediate — the
        interrupt path, where in-flight work is being abandoned.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            if kill:
                _sigkill(worker.pid)
            for fd in (worker.task_fd, worker.read_fd):
                try:
                    os.close(fd)
                except OSError:  # repro: noqa[RES002] fd already closed by a death path
                    pass
        for worker in self._workers:
            _reap(worker, kill_after=0.5)
        self._workers = []
        self._sel.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(kill=exc_type is not None)
        return False
