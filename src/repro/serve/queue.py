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

:meth:`JobQueue.compact` folds the whole settled history into one
``checkpoint`` record plus re-``accepted`` records for every live job
(see :meth:`repro.serve.journal.Journal.compact` for the crash-safety
sequencing), which bounds the on-disk journal to O(live jobs +
checkpoint) without weakening any replay guarantee.
"""

from __future__ import annotations

from collections import OrderedDict

from ..telemetry import get_metrics
from .journal import Journal, read_journal

__all__ = ["JobQueue", "recover"]


class JobQueue:
    """Pending jobs + settled outcomes, every transition journaled.

    ``pending`` maps job id -> job dict in acceptance order (dispatch
    order is acceptance order, which keeps replayed executions in the
    same order the crashed daemon would have used).  ``taken`` holds
    jobs handed to a dispatcher but not yet settled — still the
    daemon's responsibility (a crash replays them), and still counted
    in :meth:`depth` so admission control sees honest load while the
    persistent pool works.  ``outcomes`` maps job id -> settlement dict
    (``{"status": "done", "result": ...}`` or ``{"status": "failed",
    "reason": ..., "message": ...}``).  ``accepted`` maps every job id
    ever accepted -> its job spec, regardless of where the job is now —
    it is how a retried submit of an id the daemon already holds is
    recognized as the *same* job instead of a duplicate (see
    :meth:`ReproService._handle_submit`).
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
        self.journal.append("accepted", fsync=True, seq=self._seq, **job)
        self.pending[job_id] = dict(job)
        self.accepted[job_id] = dict(job)
        get_metrics().counter("serve.accepted").inc()
        return job_id

    def settle_done(self, job_id, result):
        """Journal a completed job's result and retire it from pending.

        Returns the result's canonical JSON text, encoded once for the
        journal line; the daemon splices it into its answer to clients
        waiting on the job.  The text is not kept.
        """
        result_text = self.journal.append_done(job_id, result)
        self.pending.pop(job_id, None)
        self.taken.pop(job_id, None)
        self.outcomes[job_id] = {"status": "done", "result": result}
        get_metrics().counter("serve.completed").inc()
        return result_text

    def settle_failed(self, job_id, reason, message=""):
        """Journal a failed job (typed reason) and retire it."""
        self.journal.append("failed", job_id=job_id, reason=reason,
                            message=message)
        self.pending.pop(job_id, None)
        self.taken.pop(job_id, None)
        self.outcomes[job_id] = {
            "status": "failed", "reason": reason, "message": message,
        }
        get_metrics().counter("serve.failed").inc()
        return self.outcomes[job_id]

    def outcome(self, job_id):
        """The settlement for ``job_id``, or None while pending/unknown."""
        return self.outcomes.get(job_id)

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

    def requeue(self, job):
        """Put an unsettled job back at the *front* (drain interrupted)."""
        self.taken.pop(job["job_id"], None)
        self.pending[job["job_id"]] = job
        self.pending.move_to_end(job["job_id"], last=False)

    def compact(self):
        """Fold the journal into one checkpoint segment.

        The checkpoint carries every settled outcome (with its job spec,
        so idempotent resubmits still match) and the acceptance counter;
        live jobs — taken first, then pending, preserving acceptance
        order — are re-journaled as fresh ``accepted`` records.  Replay
        of the compacted journal is byte-identical to replay of the
        uncompacted one.  Returns the new active segment path.
        """
        settled_specs = {
            job_id: spec for job_id, spec in self.accepted.items()
            if job_id in self.outcomes
        }
        bodies = [{
            "type": "checkpoint",
            "seq": self._seq,
            "outcomes": self.outcomes,
            "accepted": settled_specs,
        }]
        for job in list(self.taken.values()) + list(self.pending.values()):
            bodies.append({"type": "accepted", **job})
        path = self.journal.compact(bodies)
        get_metrics().counter("serve.compactions").inc()
        return path

    def mark_stop(self):
        """Journal the clean-shutdown marker (fsynced)."""
        self.journal.append("stop", fsync=True)

    def close(self):
        self.journal.close()


def recover(journal_path):
    """Rebuild a :class:`JobQueue` from a journal file.

    Returns ``(queue, stats)`` where ``stats`` is the
    :class:`repro.serve.journal.JournalStats` of the replay.  Every
    verified ``accepted`` record without a matching settlement becomes a
    pending job again — exactly once, in acceptance order; settled jobs
    come back as outcomes and are never re-executed.  A ``checkpoint``
    record resets the rebuild to its recorded state (replay across a
    compaction is byte-identical to replay of the uncompacted journal).
    """
    stats = read_journal(journal_path)
    queue = JobQueue(Journal(journal_path))
    for body in stats.records:
        kind = body.get("type")
        if kind == "accepted":
            job = {
                key: value for key, value in body.items()
                if key not in ("type", "seq")
            }
            queue.pending[job["job_id"]] = job
            queue.accepted[job["job_id"]] = dict(job)
            queue._seq = max(queue._seq, int(body.get("seq", 0)))
        elif kind == "done":
            queue.pending.pop(body.get("job_id"), None)
            queue.outcomes[body.get("job_id")] = {
                "status": "done", "result": body.get("result"),
            }
        elif kind == "failed":
            queue.pending.pop(body.get("job_id"), None)
            queue.outcomes[body.get("job_id")] = {
                "status": "failed",
                "reason": body.get("reason", "?"),
                "message": body.get("message", ""),
            }
        elif kind == "checkpoint":
            queue.pending.clear()
            queue.taken.clear()
            queue.outcomes = {
                job_id: dict(outcome)
                for job_id, outcome in (body.get("outcomes") or {}).items()
            }
            queue.accepted = {
                job_id: dict(spec)
                for job_id, spec in (body.get("accepted") or {}).items()
            }
            queue._seq = max(queue._seq, int(body.get("seq", 0)))
    if queue.pending:
        get_metrics().counter("serve.replayed").inc(len(queue.pending))
    return queue, stats
