"""Write-ahead job journal: append-only, checksummed, segmented, replayable.

The daemon's exactly-once guarantee rests on this file.  Every state
transition a job makes is appended as one JSONL record *before* the
transition is acted on, and the file is fsynced on acceptance — so a
job the client saw accepted exists on disk even if the daemon is
SIGKILLed in the very next instruction.

Each line is ``{"sha256": <hex>, "body": {...}}`` where the digest
covers the canonical (sorted, compact, ASCII) serialization of
``body`` — the same discipline as the artifact sidecars in
:mod:`repro.utils.serialization`, inlined per record because a journal
is one growing file, not a set of immutable artifacts.  On replay:

* a *torn tail* (partial final line, or a final line whose checksum
  does not verify — the shape a crash mid-append leaves) is skipped
  silently: the transition it described never completed, which is
  exactly what the write-ahead contract promises;
* the next record after a torn one starts on its own physical line:
  opening the journal for append truncates a partial final line away,
  and so does the first append after a torn one in the same life, so
  a record written next — which may be a fsynced, ACKed ``accepted`` —
  never fuses with the garbage and gets skipped on the *next* replay;
* a corrupt record *before* valid ones (bit rot, manual edits) is
  skipped with a counted warning so a damaged journal still recovers
  every verifiable job.

Record body types (``body["type"]``):

``accepted``
    Full job (id, kind, client, payload, seq).  Written + fsynced
    before the client's ``ok`` response.
``done`` / ``failed``
    Settlement, including the result payload (``done``) or the typed
    reason (``failed``).  Results ride in the journal so a replayed
    daemon serves them without re-execution; the daemon keeps only a
    :class:`Locator` of each ``done`` line and reads the result back
    from it (:func:`read_done`), verifying the line's checksum first.
``stop``
    Clean-shutdown marker: a restart after a drained SIGTERM knows the
    previous life exited on purpose.
``checkpoint``
    Compaction summary: the fingerprint of every settled job (id, kind,
    client and a sha256 of the payload), the ``failed`` settlements,
    and the acceptance sequence counter.  The ``done`` lines of its
    settled results follow it, each byte-identical to the line it was
    copied from.  Replay treats a checkpoint as a reset — it supersedes
    everything before it, so dropping the pre-checkpoint segments loses
    nothing.

Bodies are written by splicing canonical texts the caller already has
(a ``done`` result, an ``accepted`` payload, the queue's ``failed``
settlements) into the body's text, byte-identical to encoding the
decoded body.  Replay checks a line's digest over its body bytes as
written; a canonical ``done`` line is then located, not decoded, so a
replay holds one line in memory at a time and no result beyond it.

Segments and compaction
-----------------------
A journal is a *family* of files: the base path (segment 0, what PR 7
wrote) plus numbered successors ``<base>.00000001``, ``.00000002`` ...
Appends always go to the highest-numbered segment.  :meth:`Journal.compact`
bounds the on-disk size without ever risking the write-ahead contract:

1. compose a fresh segment — one ``checkpoint`` record, one ``done``
   line per settled result, then one ``accepted`` record per
   still-live (pending or in-flight) job — streamed one record at a
   time;
2. write it with :func:`repro.utils.serialization.atomic_write`
   (temp file + fsync + rename + parent-dir fsync), so the new head is
   durable *before* anything else changes;
3. switch the append handle to the new segment;
4. only then unlink the old segments.

A SIGKILL anywhere in that sequence recovers to the same state: replay
walks segments oldest-first and resets at every verified ``checkpoint``,
so leftover pre-compaction segments are read and then superseded, and a
missing new head simply leaves the old segments authoritative.  The
``serve.compact`` fault point fires at each phase boundary (``begin``,
``written``, ``switched``, and ``unlink`` per doomed segment) so the
chaos suite can kill the daemon in every window.

The ``serve.journal`` fault point fires at the head of every append:
``kill`` models a crash before the record lands (the client never sees
an ACK, so nothing was promised), and ``corrupt`` models a torn append
— half the record reaches the disk, the exact shape replay's torn-tail
skip exists for.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import namedtuple

__all__ = ["Journal", "JournalStats", "Locator", "read_done", "read_journal",
           "segment_paths"]

#: Where one ``done`` line sits: its segment's path, the byte offset of
#: the line in it, and the line's length without its newline.
Locator = namedtuple("Locator", ("segment", "offset", "length"))

#: A journal line is ``{"body":<body>,"sha256":"<64 hex>"}``: the body
#: sits between this head and the fixed-length seal.
_HEAD = b'{"body":'
_SEAL = b',"sha256":"'
_TRAILER = len(_SEAL) + 64 + len(b'"}')

#: A canonical ``done`` body is ``{"job_id":"<id>","result":<R>,
#: "type":"done"}`` (sorted keys); these pieces frame its id and result.
_DONE_HEAD = b'{"job_id":"'
_DONE_RESULT = b'","result":'
_DONE_TAIL = b',"type":"done"}'


def _canonical(body):
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _splice(texts):
    """The canonical text of an object, spliced from its members' texts.

    ``texts`` maps each key to the canonical text of its value, or, for
    an object value, to a dict of the same shape.  Keys sort the way
    :func:`_canonical` sorts them, so the result is byte-identical to
    the canonical encoding of the decoded object, and no value is
    encoded again.
    """
    return "{%s}" % ",".join(
        "%s:%s" % (_canonical(key),
                   _splice(text) if isinstance(text, dict) else text)
        for key, text in sorted(texts.items())
    )


def _done_body(job_id, result_text):
    """The canonical text of a ``done`` body, spliced around the
    canonical text of its result."""
    return _splice({"job_id": _canonical(job_id), "result": result_text,
                    "type": _canonical("done")})


def _wrap_text(text):
    """One checksummed journal line (no trailing newline) around the
    canonical text of a body.

    Spliced, not re-encoded: with sorted keys ``"body"`` precedes
    ``"sha256"``, so this is byte-identical to the canonical encoding of
    ``{"sha256": ..., "body": body}``.
    """
    return '{"body":%s,"sha256":"%s"}' % (text, _digest(text))


def _wrap(body):
    """One checksummed journal line (no trailing newline) for ``body``."""
    return _wrap_text(_canonical(body))


def _line_end(line):
    """Length of the ``bytes`` line without its newline."""
    return len(line) - 1 if line.endswith(b"\n") else len(line)


def _body_stop(line):
    """Where the body of journal ``line`` (bytes) ends, when its bytes
    hash to the line's digest as written; None otherwise.

    Such a line is canonical as written, so its offset and length locate
    exactly the bytes its checksum vouches for, and nothing needs
    re-encoding to check it.
    """
    end = _line_end(line)
    stop = end - _TRAILER
    if (stop <= len(_HEAD) or not line.startswith(_HEAD)
            or not line.startswith(_SEAL, stop)
            or not line.startswith(b'"}', end - 2)):
        return None
    digest = hashlib.sha256(memoryview(line)[len(_HEAD):stop]).hexdigest()
    if line[stop + len(_SEAL):end - 2] != digest.encode("ascii"):
        return None
    return stop


def _done_result(line, stop):
    """``(job_id, start)`` of a canonical ``done`` body ending at
    ``stop``, its result text being ``line[start:stop - len(_DONE_TAIL)]``;
    None for any other body.

    The id is the JSON string that opens the body.  A quote inside a JSON
    string is always escaped, so the first ``","result":`` after the
    opening quote is the string's close.  The result is sliced, not
    parsed: the checksum, not a decode, vouches for its bytes.
    """
    open_quote = len(_HEAD) + len(_DONE_HEAD) - 1
    if (not line.startswith(_DONE_HEAD, len(_HEAD))
            or not line.endswith(_DONE_TAIL, 0, stop)):
        return None
    close = line.find(_DONE_RESULT, open_quote + 1, stop)
    if close < 0:
        return None
    try:
        job_id = json.loads(line[open_quote:close + 1])
    except ValueError:
        return None
    return job_id, close + len(_DONE_RESULT)


def read_done(locator, job_id):
    """``job_id``'s ``done`` line at ``locator`` and its result text.

    Returns ``(line, result)``: the line's bytes (no newline) and a
    memoryview of the result's canonical text inside them.  None when the
    segment is gone or the bytes there no longer verify as that job's
    ``done`` line — a reader never gets unverified bytes.
    """
    try:
        with open(locator.segment, "rb", buffering=0) as handle:
            line = os.pread(handle.fileno(), locator.length, locator.offset)
    except OSError:
        return None
    stop = _body_stop(line) if len(line) == locator.length else None
    done = None if stop is None else _done_result(line, stop)
    if done is None or done[0] != job_id:
        return None
    return line, memoryview(line)[done[1]:stop - len(_DONE_TAIL)]


def segment_paths(path):
    """Every on-disk segment of ``path``'s journal, oldest first.

    The base path itself is segment 0 (the only segment PR-7 journals
    ever had); compaction adds numbered successors ``<base>.00000001``
    and so on, named the way :meth:`Journal.compact` names them.
    Missing files simply do not appear — a fresh journal returns an
    empty list.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path)
    base = os.path.basename(path)
    found = []
    if os.path.exists(path):
        found.append((0, path))
    try:
        names = os.listdir(directory or ".")
    except FileNotFoundError:
        names = []
    prefix = base + "."
    for name in names:
        suffix = name[len(prefix):]
        if name.startswith(prefix) and suffix.isdigit():
            found.append((int(suffix), os.path.join(directory, name)))
    found.sort()
    return [segment for _, segment in found]


class JournalStats:
    """What replay found: verified records plus skipped-line accounting."""

    __slots__ = ("records", "corrupt", "torn_tail", "clean_stop",
                 "segments", "bytes")

    def __init__(self):
        self.records = []
        self.corrupt = 0
        self.torn_tail = False
        self.clean_stop = False
        self.segments = 0
        self.bytes = 0


def read_journal(path):
    """Replay a journal (all segments, oldest first) into a
    :class:`JournalStats`.

    Missing files replay as empty (a fresh daemon).  Only records whose
    checksum verifies are returned; an invalid *final* line of the
    *final* segment counts as a torn tail (normal after a crash), any
    other invalid line counts in ``corrupt``.  A verified ``checkpoint``
    record resets the replay — it supersedes every earlier record, which
    is what makes compaction's delete-after-durable sequencing safe at
    any crash point.

    ``records`` are the logical records: the ``done`` lines a compaction
    writes after its checkpoint (one per job the checkpoint lists as
    settled) are folded back into the checkpoint's ``outcomes``, so a
    compacted journal reads as one checkpoint plus what came after it.
    Every result is decoded; :func:`repro.serve.queue.recover` is the
    replay that keeps none.
    """
    stats = JournalStats()
    checkpoint = None
    for body, _ in _replay(path, stats, results=True):
        kind = body.get("type")
        if kind == "checkpoint":
            stats.records = []
            checkpoint = body
        elif (kind == "done" and checkpoint is not None
              and body.get("job_id") in (checkpoint.get("accepted") or {})):
            outcomes = checkpoint.setdefault("outcomes", {})
            outcomes[body["job_id"]] = {"status": "done",
                                        "result": body.get("result")}
            continue
        stats.records.append(body)
    return stats


def _replay(path, stats, results=False):
    """Yield ``(body, locator)`` for each verified record of ``path``'s
    journal, oldest first, one line in memory at a time.

    ``locator`` is the :class:`Locator` of a ``done`` line that is
    canonical as written, whose result :func:`read_done` can read back;
    its ``body`` then holds only ``type`` and ``job_id`` unless
    ``results`` asks for the result decoded too.  Any other record
    yields its decoded body and None.  Skipped lines, segments, bytes
    and the clean-stop marker are counted into ``stats`` (a
    :class:`JournalStats`), complete once the generator is exhausted;
    its ``records`` are left to the caller, which must itself treat a
    ``checkpoint`` as a reset.
    """
    segments = segment_paths(path)
    stats.segments = len(segments)
    for ordinal, segment in enumerate(segments):
        final_segment = ordinal == len(segments) - 1
        try:
            stats.bytes += os.path.getsize(segment)
        except OSError:  # repro: noqa[RES002] segment unlinked by a concurrent compaction; its records were already superseded
            pass
        bad_lines = []
        position, offset, ended = -1, 0, True
        with open(segment, "rb") as handle:
            while True:
                line = handle.readline()
                if not line:
                    break
                position += 1
                verified = _verify_line(line, results)
                if verified is None:
                    bad_lines.append(position)
                else:
                    body, located = verified
                    kind = body.get("type")
                    if kind == "checkpoint":
                        stats.clean_stop = False
                    elif kind == "stop":
                        stats.clean_stop = True
                    yield body, (Locator(segment, offset, _line_end(line))
                                 if located else None)
                offset += len(line)
                ended = line.endswith(b"\n")
                # Dropped before the next readline, which builds the
                # next line from chunks: one line in memory, not two.
                line = None
        # A well-formed segment ends with a newline; anything else is a
        # partial append.
        torn = not ended
        if bad_lines:
            if final_segment and bad_lines[-1] == position:
                torn = True
                bad_lines.pop()
            stats.corrupt += len(bad_lines)
        if torn:
            if final_segment:
                stats.torn_tail = True
            else:
                # A non-final segment can only be torn through damage —
                # compaction never leaves one mid-append — so it counts
                # as corruption, not a routine crash artifact.
                stats.corrupt += 1


def _verify_line(line, results):
    """Checksum one journal line (``bytes``).

    Returns ``(body, located)``, or None when the line does not verify.
    A line whose body bytes hash to its digest as written needs no
    re-encoding; if it is a canonical ``done`` line and ``results`` is
    false, its result is not decoded either (``body`` holds ``type`` and
    ``job_id``) and ``located`` is True.  Any other line is decoded and
    its body re-encoded for the check, the way a non-canonical writer's
    line must be.
    """
    stop = _body_stop(line)
    if stop is not None and not results:
        done = _done_result(line, stop)
        if done is not None:
            return {"type": "done", "job_id": done[0]}, True
    try:
        wrapper = json.loads(line)
    except ValueError:
        return None
    body = wrapper.get("body") if isinstance(wrapper, dict) else None
    if not isinstance(body, dict):
        return None
    if stop is None and wrapper.get("sha256") != _digest(_canonical(body)):
        return None
    return body, False


def _repair_torn_tail(path):
    """Truncate a partial final line so appends start on a fresh line.

    A crash mid-append leaves the file without a trailing newline.  The
    partial record can never verify, but if the next daemon appended
    straight onto it, its first record — possibly a fsynced, client-ACKed
    ``accepted`` — would share that physical line and fail checksum on
    the *next* replay, silently losing a promised job.  Replay already
    skips the torn record, so dropping its bytes loses nothing; it is
    fsynced away before the new handle opens.
    """
    try:
        handle = open(path, "r+b")
    except FileNotFoundError:
        return
    with handle:
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        # Walk back to the last newline; everything after it is the torn
        # record.  Chunked so a huge torn payload does not load the file.
        keep = 0
        position = size
        while position > 0:
            step = min(4096, position)
            position -= step
            handle.seek(position)
            chunk = handle.read(step)
            cut = chunk.rfind(b"\n")
            if cut != -1:
                keep = position + cut + 1
                break
        handle.truncate(keep)
        handle.flush()
        os.fsync(handle.fileno())


class Journal:
    """Append-only writer half of the write-ahead journal.

    ``append`` buffers + flushes every record; ``fsync=True`` (used for
    ``accepted`` and ``stop`` records) additionally forces the record to
    stable storage before returning, which is the moment a job becomes
    the daemon's responsibility.  Settlement records (``done`` /
    ``failed``) default to flush-only: losing one to a crash merely
    re-executes a deterministic job on replay, it never loses or
    duplicates an acknowledged acceptance.

    Appends go to the newest segment (see :func:`segment_paths`), whose
    size the journal tracks, so each append knows the :class:`Locator`
    of the line it wrote.  A torn append (the ``corrupt`` fault) leaves
    its bytes until the next append, which cuts them first.
    :meth:`compact` rolls the family over to a fresh checkpoint segment.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        segments = segment_paths(self.path)
        self.active_path = segments[-1] if segments else self.path
        self._active_index = self._index_of(self.active_path)
        _repair_torn_tail(self.active_path)
        self._handle = open(self.active_path, "a", encoding="utf-8")  # repro: noqa[RES001] write-ahead journals are append-only by design; every record is checksummed and replay skips a torn tail
        self._size = os.path.getsize(self.active_path)
        self._torn = False

    def _index_of(self, segment):
        if segment == self.path:
            return 0
        return int(segment[len(self.path) + 1:])

    # ------------------------------------------------------------------
    def segments(self):
        """Current on-disk segment paths, oldest first."""
        return segment_paths(self.path)

    def size_bytes(self):
        """Total on-disk journal size across all segments."""
        total = 0
        for segment in segment_paths(self.path):
            try:
                total += os.path.getsize(segment)
            except OSError:  # repro: noqa[RES002] segment vanished between listing and stat (mid-compaction); size 0 is honest for it
                pass
        return total

    # ------------------------------------------------------------------
    def append(self, record_type, fsync=False, **fields):
        """Write one checksummed record; returns the body written."""
        body = {"type": record_type, **fields}
        self._append_text(_canonical(body), record_type, fields.get("job_id"),
                          fsync)
        return body

    def append_accepted(self, job, seq):
        """Write and fsync the ``accepted`` record of ``job``; returns the
        canonical text of its payload.

        The payload is encoded once and the body spliced around it, so
        the line is byte-identical to ``append("accepted", fsync=True,
        seq=seq, **job)`` and the caller fingerprints the payload from
        the same text.
        """
        texts = {key: _canonical(value) for key, value in job.items()}
        texts["seq"] = _canonical(seq)
        texts["type"] = _canonical("accepted")
        self._append_text(_splice(texts), "accepted", job.get("job_id"),
                          fsync=True)
        return texts.get("payload", "null")

    def append_done(self, job_id, result_text):
        """Write a ``done`` record around ``result_text``, the canonical
        JSON text of the job's result; returns the line's
        :class:`Locator`, or None when the append was torn.

        The body is spliced around the text, not encoded, so the line is
        byte-identical to ``append("done", job_id=..., result=...)`` of
        the decoded result.
        """
        return self._append_text(_done_body(job_id, result_text), "done",
                                 job_id)

    def _append_text(self, text, record_type, job_id, fsync=False):
        """Append the line wrapping canonical body ``text``; returns its
        :class:`Locator`, or None for a torn append."""
        from ..resilience.faults import maybe_fire

        line = _wrap_text(text)
        fired = maybe_fire("serve.journal", record=record_type, job_id=job_id)
        if self._torn:
            # Cut the torn record, as _repair_torn_tail does at open, so
            # this one starts on its own line instead of fusing with it.
            self._handle.flush()
            os.ftruncate(self._handle.fileno(), self._size)
            self._torn = False
        if fired == "corrupt":
            # Model a torn append: half the record reaches the disk.
            self._handle.write(line[: max(1, len(line) // 2)])
            self._handle.flush()
            self._torn = True
            return None
        self._handle.write(line + "\n")
        self._handle.flush()
        if fsync:
            os.fsync(self._handle.fileno())
        # Canonical text is ASCII (json escapes the rest), so its length
        # is its size on disk, known without encoding a copy.
        locator = Locator(self.active_path, self._size,
                          len(line) if line.isascii()
                          else len(line.encode("utf-8")))
        self._size += locator.length + 1
        return locator

    def compact(self, records):
        """Roll the journal over to a fresh segment holding ``records``.

        ``records`` is the complete replacement state, in order —
        normally one ``checkpoint`` record, the ``done`` line of every
        settled result and re-``accepted`` records for every still-live
        job (:meth:`repro.serve.queue.JobQueue.compact` composes it).
        Each record is a body dict, a body's canonical text as
        :func:`_splice` builds it, or a whole journal line as ``bytes``
        (no newline), written as it is.  ``records`` may be a generator:
        it is consumed once, one record in memory at a time, while the
        old segments are still in place; an exception it raises leaves
        the journal untouched.  The sequencing is crash-safe at every
        step:

        * the new segment is written with ``atomic_write`` (fsync +
          rename + parent-dir fsync), so it is durable before the
          append handle moves;
        * old segments are unlinked only after the switchover, and
          replay's checkpoint-reset makes leftover old segments
          harmless if the unlink never happens.

        Returns the :class:`Locator` of each line written, in order.
        """
        from ..resilience.faults import maybe_fire
        from ..utils.serialization import _fsync_directory, atomic_write

        maybe_fire("serve.compact", phase="begin")
        old_segments = segment_paths(self.path)
        new_index = self._active_index + 1
        new_path = "%s.%08d" % (self.path, new_index)
        placed = []

        def write(handle):
            offset = 0
            for record in records:
                if isinstance(record, bytes):
                    line = record
                else:
                    line = (_wrap_text(record) if isinstance(record, str)
                            else _wrap(record)).encode("utf-8")
                handle.write(line)
                handle.write(b"\n")
                placed.append(Locator(new_path, offset, len(line)))
                offset += len(line) + 1

        atomic_write(new_path, write)
        maybe_fire("serve.compact", phase="written")
        self._handle.close()
        self._handle = open(new_path, "a", encoding="utf-8")  # repro: noqa[RES001] append-only journal segment; atomic_write already made the checkpoint head durable
        self.active_path = new_path
        self._active_index = new_index
        self._size = os.path.getsize(new_path)
        self._torn = False
        maybe_fire("serve.compact", phase="switched")
        for old in old_segments:
            if old == new_path:
                continue
            maybe_fire("serve.compact", phase="unlink",
                       segment=os.path.basename(old))
            try:
                os.unlink(old)
            except FileNotFoundError:  # repro: noqa[RES002] a predecessor's crash already removed it; absent is the goal state
                pass
        directory = os.path.dirname(self.path)
        _fsync_directory(directory if directory else ".")
        return placed

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
