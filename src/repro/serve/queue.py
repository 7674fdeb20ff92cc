"""Journal-backed job queue with exactly-once recovery.

The queue is the in-memory view of the journal: ``accept`` journals a
job (fsynced) before queuing it, settlement journals the outcome before
exposing it, and :func:`recover` rebuilds both maps from a replayed
journal.  Because every handler is a pure function of ``(payload,
seed)`` and the seed derives from the job id
(:func:`repro.serve.router.job_seed`), re-executing an
accepted-but-unsettled job after a crash yields bytes identical to the
run that never crashed — replay is *safe* re-execution, and settled
jobs are never re-executed at all (their results ride in the journal).

A settled job costs the queue a fingerprint of its spec and a
:class:`~repro.serve.journal.Locator` of its ``done`` line: the result
itself lives in the journal and is read back, checksum first, when a
client asks for it.  Only ``failed`` settlements, which are small, and
results the journal cannot locate (a torn append, a line that verifies
only after re-encoding, an older checkpoint) are kept as text.

:meth:`JobQueue.compact` rewrites the journal as one ``checkpoint``
record, the ``done`` line of every settled result (copied one at a
time) and re-``accepted`` records for every live job (see
:meth:`repro.serve.journal.Journal.compact` for the crash-safety
sequencing), which bounds the journal's record count to O(live jobs +
settled results) without weakening any replay guarantee.
"""

from __future__ import annotations

import json
from collections import OrderedDict

from ..telemetry import get_metrics
from .journal import (
    Journal,
    JournalStats,
    Locator,
    _canonical,
    _digest,
    _done_body,
    _replay,
    _splice,
    read_done,
)

__all__ = ["JobQueue", "recover"]

#: A ``done`` settlement's canonical text is ``{"result":<R>,"status":
#: "done"}`` (sorted keys): these open and close the result's text.
_DONE_OPEN = '{"result":'
_DONE_CLOSE = ',"status":"done"}'


def _fingerprint(job, payload_text):
    """What ``accepted`` keeps of a job: its id, kind and client, and a
    sha256 of its payload's canonical text."""
    fingerprint = {key: job[key] for key in ("client", "job_id", "kind")
                   if key in job}
    fingerprint["payload_sha256"] = _digest(payload_text)
    return fingerprint


def _done_text(result_text):
    """The canonical text of a ``done`` settlement around its result's."""
    return "%s%s%s" % (_DONE_OPEN, result_text, _DONE_CLOSE)


def _checkpoint_fingerprint(spec):
    """One entry of a checkpoint's ``accepted`` map as a fingerprint; a
    checkpoint written before fingerprints holds the full job spec."""
    if "payload_sha256" in spec:
        return dict(spec)
    return _fingerprint(spec, _canonical(spec.get("payload")))


class _Unreadable(Exception):
    """A settled result's ``done`` line no longer verifies."""


class JobQueue:
    """Pending jobs + settled outcomes, every transition journaled.

    ``pending`` maps job id -> job dict in acceptance order (dispatch
    order is acceptance order, which keeps replayed executions in the
    same order the crashed daemon would have used).  ``taken`` holds
    jobs handed to a dispatcher but not yet settled — still the
    daemon's responsibility (a crash replays them), and still counted
    in :meth:`depth` so admission control sees honest load while the
    persistent pool works; the full job lives only there.

    ``outcomes`` maps job id -> where its settlement is: for ``done``,
    the :class:`~repro.serve.journal.Locator` of its journal line; for
    ``failed``, and for a result the journal cannot locate, the
    settlement's canonical text (``{"message":…,"reason":…,"status":
    "failed"}`` or ``{"result":…,"status":"done"}``).  :meth:`settlement`
    gives the text either way and :meth:`outcome` decodes it.
    ``accepted`` maps every job id ever accepted -> its fingerprint
    ``{"client", "job_id", "kind", "payload_sha256"}``, regardless of
    where the job is now — it is how a retried submit of an id the
    daemon already holds is recognized as the *same* job instead of a
    duplicate (:meth:`same_work`).
    """

    def __init__(self, journal):
        if not isinstance(journal, Journal):
            journal = Journal(journal)
        self.journal = journal
        self.pending = OrderedDict()
        self.taken = OrderedDict()
        self.outcomes = {}
        self.accepted = {}
        self._seq = 0

    # ------------------------------------------------------------------
    def depth(self):
        return len(self.pending) + len(self.taken)

    def accept(self, job):
        """Journal (fsync) then queue one job; returns its id.

        After this returns, the job is recoverable: a SIGKILL at any
        later point leaves an ``accepted`` record that replay turns
        back into a pending job.
        """
        job_id = job["job_id"]
        if job_id in self.accepted:
            raise ValueError("duplicate job id %r" % job_id)
        self._seq += 1
        payload_text = self.journal.append_accepted(job, self._seq)
        self.pending[job_id] = dict(job)
        self.accepted[job_id] = _fingerprint(job, payload_text)
        get_metrics().counter("serve.accepted").inc()
        return job_id

    def same_work(self, job_id, kind, payload):
        """Whether accepted ``job_id`` is this work: the same kind and a
        payload whose canonical text is byte-equal (same sha256)."""
        prior = self.accepted[job_id]
        return (prior.get("kind") == kind
                and prior.get("payload_sha256")
                == _digest(_canonical(payload)))

    def settle_done(self, job_id, result_text):
        """Journal a completed job and retire it from pending.

        ``result_text`` is the canonical JSON text of the job's result,
        encoded inside the job.  The journal line is spliced around it
        and the queue keeps the line's locator, not the text; only a
        torn append, which leaves no line to locate, keeps the text.
        """
        locator = self.journal.append_done(job_id, result_text)
        self.pending.pop(job_id, None)
        self.taken.pop(job_id, None)
        self.outcomes[job_id] = (locator if locator is not None
                                 else _done_text(result_text))
        get_metrics().counter("serve.completed").inc()

    def settle_failed(self, job_id, reason, message=""):
        """Journal a failed job (typed reason) and retire it."""
        self.journal.append("failed", job_id=job_id, reason=reason,
                            message=message)
        self.pending.pop(job_id, None)
        self.taken.pop(job_id, None)
        outcome = {"status": "failed", "reason": reason, "message": message}
        self.outcomes[job_id] = _canonical(outcome)
        get_metrics().counter("serve.failed").inc()
        return outcome

    def settlement(self, job_id):
        """The canonical text of ``job_id``'s settlement.

        None while the job is pending or unknown, and when its ``done``
        line no longer verifies (the segment is gone or its bytes
        changed): never unverified bytes.
        """
        kept = self.outcomes.get(job_id)
        if not isinstance(kept, Locator):
            return kept
        done = read_done(kept, job_id)
        return None if done is None else _done_text(str(done[1], "utf-8"))

    def outcome(self, job_id):
        """The decoded settlement for ``job_id``, or None while
        pending/unknown or unreadable (see :meth:`settlement`)."""
        text = self.settlement(job_id)
        return None if text is None else json.loads(text)

    def take(self, limit):
        """Dequeue up to ``limit`` jobs (acceptance order) for dispatch.

        Taken jobs stay the daemon's responsibility: they move to
        ``taken`` (still in the recovery set and still counted in
        ``depth``) and are only retired by a settlement record, so a
        crash mid-execution replays them.
        """
        batch = []
        while self.pending and len(batch) < limit:
            job_id, job = self.pending.popitem(last=False)
            self.taken[job_id] = job
            batch.append(job)
        return batch

    def _done_record(self, job_id):
        """The journal record of settled result ``job_id`` for a
        compaction: its ``done`` line's bytes, read back and verified,
        or a ``done`` body spliced from a result kept as text."""
        kept = self.outcomes[job_id]
        if isinstance(kept, Locator):
            done = read_done(kept, job_id)
            if done is None:
                raise _Unreadable(job_id)
            return done[0]
        return _done_body(job_id, kept[len(_DONE_OPEN):-len(_DONE_CLOSE)])

    def compact(self):
        """Fold the journal into one checkpoint segment.

        The checkpoint carries the fingerprint of every settled job (so
        idempotent resubmits still match), the ``failed`` settlements
        and the acceptance counter.  The ``done`` line of each settled
        result follows it, copied from the old segment byte for byte,
        one in memory at a time; live jobs — taken first, then pending,
        preserving acceptance order — are re-journaled as fresh
        ``accepted`` records after that.  Locators move to the new
        segment once it is durable.  Replay of the compacted journal is
        byte-identical to replay of the uncompacted one.

        Returns the new active segment path, or None when a result's
        ``done`` line no longer verifies: copying it would lose the job,
        so the journal is left as it was.
        """
        failed, results = {}, []
        for job_id, kept in self.outcomes.items():
            if isinstance(kept, Locator) or kept.endswith(_DONE_CLOSE):
                results.append(job_id)
            else:
                failed[job_id] = kept
        settled = {
            job_id: fingerprint
            for job_id, fingerprint in self.accepted.items()
            if job_id in self.outcomes
        }
        checkpoint = _splice({
            "accepted": _canonical(settled),
            "outcomes": failed,
            "seq": _canonical(self._seq),
            "type": _canonical("checkpoint"),
        })
        live = list(self.taken.values()) + list(self.pending.values())

        def records():
            yield checkpoint
            for job_id in results:
                yield self._done_record(job_id)
            for job in live:
                yield {"type": "accepted", **job}

        try:
            placed = self.journal.compact(records())
        except _Unreadable:
            return None
        self.outcomes.update(zip(results, placed[1:]))
        get_metrics().counter("serve.compactions").inc()
        return self.journal.active_path

    def mark_stop(self):
        """Journal the clean-shutdown marker (fsynced)."""
        self.journal.append("stop", fsync=True)

    def close(self):
        self.journal.close()


def recover(journal_path):
    """Rebuild a :class:`JobQueue` from a journal file.

    Returns ``(queue, stats)`` where ``stats`` is the
    :class:`repro.serve.journal.JournalStats` of the replay: its
    skipped-line accounting, segments and clean-stop marker.  Its
    ``records`` stay empty — the journal is replayed one line at a
    time, and the queue keeps what the records said.  Every verified
    ``accepted`` record without a matching settlement becomes a pending
    job again — exactly once, in acceptance order; settled jobs come
    back as outcomes and are never re-executed.  A ``checkpoint`` record
    resets the rebuild to its recorded state, and the ``done`` lines
    after it settle its results (replay across a compaction is
    byte-identical to replay of the uncompacted journal).

    A ``done`` line that is canonical as written comes back as its
    locator, its result neither decoded nor kept; one that verifies only
    after re-encoding keeps its settlement text.  Older checkpoints
    replay too — results embedded in ``outcomes``, or full job specs in
    ``accepted`` — with their results kept as text until the next
    compaction writes them out as ``done`` lines.

    A job the checkpoint lists as settled whose ``done`` line did not
    verify can neither answer nor run again (its payload was compacted
    away): it settles ``failed`` with reason ``lost``.
    """
    stats = JournalStats()
    pending, outcomes, accepted, seq = OrderedDict(), {}, {}, 0
    for body, locator in _replay(journal_path, stats):
        kind = body.get("type")
        if kind == "accepted":
            job = {
                key: value for key, value in body.items()
                if key not in ("type", "seq")
            }
            pending[job["job_id"]] = job
            accepted[job["job_id"]] = _fingerprint(
                job, _canonical(job.get("payload")))
            seq = max(seq, int(body.get("seq", 0)))
        elif kind == "done":
            pending.pop(body.get("job_id"), None)
            outcomes[body.get("job_id")] = (
                locator if locator is not None
                else _done_text(_canonical(body.get("result"))))
        elif kind == "failed":
            pending.pop(body.get("job_id"), None)
            outcomes[body.get("job_id")] = _canonical({
                "status": "failed",
                "reason": body.get("reason", "?"),
                "message": body.get("message", ""),
            })
        elif kind == "checkpoint":
            pending.clear()
            outcomes = {
                job_id: _canonical(outcome)
                for job_id, outcome in (body.get("outcomes") or {}).items()
            }
            accepted = {
                job_id: _checkpoint_fingerprint(spec)
                for job_id, spec in (body.get("accepted") or {}).items()
            }
            seq = max(seq, int(body.get("seq", 0)))
    for job_id in accepted:
        if job_id not in outcomes and job_id not in pending:
            outcomes[job_id] = _canonical({
                "status": "failed", "reason": "lost", "message":
                "the journal line of job %r no longer verifies" % job_id})
    # Opened only now: opening for append repairs a torn tail.
    queue = JobQueue(Journal(journal_path))
    queue.pending, queue.outcomes, queue.accepted = pending, outcomes, accepted
    queue._seq = seq
    if queue.pending:
        get_metrics().counter("serve.replayed").inc(len(queue.pending))
    return queue, stats
