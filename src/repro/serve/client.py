"""Client for the resampling daemon: submit, await, backoff honestly.

One request per connection (connect → frame → response → close), which
keeps the daemon's accept loop trivially fair and makes every client
interaction crash-equivalent: a connection that dies mid-submit either
left an ``accepted`` record (the job will run) or it did not (the job
was never promised) — there is no third state.

Awaiting a job does not poll on a timer: :meth:`ServeClient.wait` sends
long-poll ``result`` requests, which the daemon holds open and answers
as soon as the job's settlement is journaled.

Load shedding surfaces as :class:`LoadShedded`, carrying the daemon's
structured ``retry_after``/``reason``; :meth:`ServeClient.submit_with_retry`
is the well-behaved loop that honors it.
"""

from __future__ import annotations

import hashlib
import os
import socket
import time

from ..telemetry.clock import monotonic
from .protocol import pack_payload, read_message, write_message

__all__ = ["LoadShedded", "ServeClient", "ServeError", "retry_jitter"]


def retry_jitter(token):
    """Deterministic uniform fraction in ``[0, 1)`` for backoff jitter.

    Full-jitter backoff needs a per-attempt random fraction, but this
    codebase bans ad-hoc RNG state (lint RNG002): an unseeded
    generator here would make client behavior unreproducible in tests.
    Hashing the attempt's identity instead gives a fraction that is
    *uniform across clients* (which is all de-synchronizing a thundering
    herd requires) yet exactly reproducible for any given
    ``(client, kind, job, pid, attempt)`` tuple.
    """
    digest = hashlib.sha256(str(token).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


class ServeError(RuntimeError):
    """The daemon answered with ``status: error`` (or spoke garbage)."""

    def __init__(self, response):
        self.response = dict(response)
        super().__init__(response.get("message", str(response)))


class LoadShedded(RuntimeError):
    """The daemon refused the submit under admission control.

    Attributes
    ----------
    retry_after:
        Seconds the daemon suggests waiting before resubmitting.
    reason:
        ``queue_full`` / ``client_limit`` / ``degraded`` / ``stopping``.
    """

    def __init__(self, response):
        self.response = dict(response)
        self.retry_after = float(response.get("retry_after", 0.05))
        self.reason = response.get("reason", "?")
        super().__init__(
            "daemon shed the request (%s; retry after %.3fs): %s"
            % (self.reason, self.retry_after, response.get("detail", ""))
        )


class ServeClient:
    """Talk to a :class:`repro.serve.ReproService` over its Unix socket."""

    def __init__(self, socket_path, client_id="default", timeout=10.0):
        self.socket_path = str(socket_path)
        self.client_id = str(client_id)
        self.timeout = float(timeout)

    # ------------------------------------------------------------------
    def request(self, obj):
        """One request/response round trip (raw dict in, raw dict out)."""
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        try:
            sock.connect(self.socket_path)
            write_message(sock, obj)
            response = read_message(sock)
        finally:
            sock.close()
        if response is None:
            raise ServeError({"message": "daemon closed without responding"})
        return response

    # ------------------------------------------------------------------
    def submit(self, kind, payload=None, job_id=None):
        """Submit one job; returns its id.

        A ``resample`` payload's ``x`` goes packed
        (:func:`~repro.serve.protocol.pack_payload`), the same bytes on
        every attempt, so a lost-ACK retry is the same work.

        Raises :class:`LoadShedded` when admission control refuses (the
        job was NOT accepted) and :class:`ServeError` on malformed or
        rejected requests.
        """
        response = self.request({
            "verb": "submit",
            "kind": kind,
            "payload": pack_payload(kind, payload or {}),
            "client": self.client_id,
            **({"job_id": job_id} if job_id is not None else {}),
        })
        status = response.get("status")
        if status == "retry_after":
            raise LoadShedded(response)
        if status != "ok":
            raise ServeError(response)
        return response["job_id"]

    def submit_with_retry(self, kind, payload=None, job_id=None,
                          max_attempts=8, backoff_cap=5.0, sleep=time.sleep):
        """Submit with full-jitter exponential backoff on ``retry_after``.

        Each shed attempt sleeps a uniform fraction of
        ``min(backoff_cap, retry_after * 2**attempt)`` — *full jitter*,
        so a herd of clients shed at the same instant spreads its
        retries over the whole window instead of stampeding back in
        lockstep at exactly ``retry_after`` (what the pre-PR-10
        deterministic sleep did).  The exponent doubles the ceiling per
        consecutive shed; ``backoff_cap`` bounds any single sleep.
        After ``max_attempts`` submits the last :class:`LoadShedded`
        is re-raised (no sleep after the final attempt).
        """
        last = None
        for attempt in range(max_attempts):
            try:
                return self.submit(kind, payload=payload, job_id=job_id)
            except LoadShedded as shed:
                last = shed
                if attempt == max_attempts - 1:
                    break
                ceiling = min(float(backoff_cap),
                              shed.retry_after * (2.0 ** attempt))
                fraction = retry_jitter(
                    "%s:%s:%s:%d:%d" % (self.client_id, kind, job_id or "",
                                        os.getpid(), attempt)
                )
                sleep(ceiling * fraction)
        raise last

    def result(self, job_id):
        """The raw settlement response (``done``/``failed``/``pending``/
        ``not_found``, or ``error`` when a settled job's journal line no
        longer verifies)."""
        return self.request({"verb": "result", "job_id": job_id})

    def wait(self, job_id, timeout=30.0, poll=0.05):
        """Block until ``job_id`` settles; returns the settlement dict.

        Asks :meth:`result` once, then long-polls: each further
        ``result`` request carries ``wait`` seconds (at most half this
        client's socket ``timeout``), and the daemon answers the moment
        the job settles, or ``pending`` when the wait elapses.  ``poll``
        is slept only after a ``pending`` that came sooner than asked
        (the daemon's parked set was full, or it has no long-poll), so
        the loop never spins.

        Raises ``TimeoutError`` if it does not settle in time, and
        :class:`ServeError` carrying the response on any answer other
        than a settlement or ``pending``: the daemon does not know the
        job (``not_found``) or cannot answer for it (``error``, say a
        settled job whose journal line no longer verifies).
        """
        deadline = monotonic() + timeout
        response = self.result(job_id)
        while True:
            status = response.get("status")
            if status in ("done", "failed"):
                return response
            if status != "pending":
                raise ServeError(response)
            left = deadline - monotonic()
            if left <= 0.0:
                raise TimeoutError(
                    "job %s did not settle within %.1fs" % (job_id, timeout)
                )
            wait = min(left, self.timeout / 2.0)
            asked = monotonic()
            response = self.request(
                {"verb": "result", "job_id": job_id, "wait": wait}
            )
            if (response.get("status") == "pending"
                    and monotonic() - asked < wait):
                time.sleep(poll)

    def status(self):
        """The daemon's liveness/telemetry snapshot."""
        response = self.request({"verb": "status"})
        if response.get("status") != "ok":
            raise ServeError(response)
        return response

    def health(self):
        """The daemon's supervision snapshot (``ok|degraded|draining``
        plus queue/journal/worker/breaker detail)."""
        response = self.request({"verb": "health"})
        if response.get("status") != "ok":
            raise ServeError(response)
        return response

    def stop(self):
        """Ask the daemon to drain and exit (the graceful path)."""
        response = self.request({"verb": "stop"})
        if response.get("status") != "ok":
            raise ServeError(response)
        return response

    def alive(self):
        """True when something answers ``status`` on the socket."""
        try:
            self.status()
            return True
        except (OSError, ServeError):
            return False
