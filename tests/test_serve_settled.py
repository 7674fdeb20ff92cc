"""What a settled job costs the daemon: a locator into its journal.

The daemon keeps each settled ``done`` job as the locator of its
journal line, reading the result back (checksum first) when a client
asks for it, and each accepted job as a fingerprint (id, kind, client,
payload sha256).  These tests pin that the bytes a client and the
journal see did not change, that the heap stays flat per settled job
and through the restart of a compacted journal, that compaction and
restart answer with the same bytes, that a damaged line answers
``error`` and re-executes after a restart, that older checkpoints still
replay, and that a result that JSON cannot encode settles as a failure
instead of killing the loop.
"""

import gc
import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.serve import (
    Journal,
    ServeClient,
    ServeError,
    default_router,
    read_journal,
    recover,
    unpack_array,
    write_message,
)
from repro.serve.journal import _canonical, _digest, _wrap

from .test_serve import _close_service, _drain_service
from .test_serve_push import _Conn, _frame, _service

#: Class counts and width of the resample payload: the shape the serve
#: benchmark sends (a seeded 117x32 embedding with a long-tailed label set).
_COUNTS = (60, 30, 15, 8, 4)
_DIM = 32


def _resample_payload(seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(_COUNTS)), _COUNTS)
    order = rng.permutation(labels.size)
    centers = rng.normal(size=(len(_COUNTS), _DIM))
    x = centers[labels] + rng.normal(size=(labels.size, _DIM))
    return {"x": np.round(x[order], 4).tolist(),
            "y": labels[order].tolist(), "sampler": "eos"}


def _ask(service, request):
    """One request through the connection handler; returns the frame."""
    conn = _Conn(_frame(request))
    service._serve_one_connection(conn)
    return bytes(conn.sent)


def _answer(frame):
    return json.loads(frame[4:].decode("utf-8"))


# ----------------------------------------------------------------------
# Same bytes: journal and client frames
# ----------------------------------------------------------------------
def _pinned_sequence(service):
    """Resample, echo and fail, each submitted, run and asked for, then
    a same-payload and a different-payload resubmit; the frames sent."""
    jobs = [
        ("pin-resample", "resample", _resample_payload(0)),
        ("pin-echo", "echo", {"text": "naïve ☃", "n": [1, 2.5, None]}),
        ("pin-fail", "fail", {"message": 'poison "quoted" ☃'}),
    ]
    frames = []
    for settled, (job_id, kind, payload) in enumerate(jobs, 1):
        frames.append(_ask(service, {"verb": "submit", "kind": kind,
                                     "client": "pin", "job_id": job_id,
                                     "payload": payload}))
        _drain_service(service, settled)
        frames.append(_ask(service, {"verb": "result", "job_id": job_id}))
    for job_id, kind, payload in (jobs[0], (jobs[1][0], "echo", {"n": 2})):
        frames.append(_ask(service, {"verb": "submit", "kind": kind,
                                     "client": "pin", "job_id": job_id,
                                     "payload": payload}))
    return frames


#: sha256 of the journal and of the concatenated client frames (length
#: prefixes included) that ``_pinned_sequence`` produced at commit
#: 08cb66f, before settled jobs were kept as text: 173,104 journal bytes
#: in 6 lines, and 8 frames of 144,339 bytes.  The resample result rests
#: on float arithmetic, as the golden report digests do.  Its matrix was
#: then nested lists of decimal floats; with ``x`` unpacked back to
#: lists, today's journal and frames must still hash to these.
_PINNED_JOURNAL_SHA256 = (
    "50e75fc7f7520754397a6d0577f473d2f5e87e6bebc4dacf23a5b619b89c7883")
_PINNED_FRAMES_SHA256 = (
    "7c881ae4ed173d5f87c86649288f4fd8bdea523afeae8a9724c763ece4723562")
#: The same bytes with ``x`` packed (``pack_array``): 132,495 journal
#: bytes in 6 lines, and 8 frames of 103,730 bytes.
_PACKED_JOURNAL_SHA256 = (
    "4cfa2e8cf4fd6272eeaf7cc7b9301995b9e6324870df08e2d3e4a9f7226b1f11")
_PACKED_FRAMES_SHA256 = (
    "1b3a5f537cbf92778a57ff46c015f01b3db4ca0bd086f80da7bdb1b0dc3de0c6")


def _as_lists(body):
    """``body`` with a packed resample matrix back in nested lists."""
    result = body.get("result")
    if isinstance(result, dict) and isinstance(result.get("x"), dict):
        body = {**body, "result": {**result,
                                   "x": unpack_array(result["x"]).tolist()}}
    return body


def _listed_journal(journal):
    """The journal lines re-wrapped with their matrices as lists."""
    return b"".join(
        _wrap(_as_lists(json.loads(line)["body"])).encode("utf-8") + b"\n"
        for line in journal.splitlines())


def _listed_frames(frames):
    """The frames re-framed with their matrices as lists."""
    conn = _Conn()
    for frame in frames:
        write_message(conn, _as_lists(_answer(frame)))
    return bytes(conn.sent)


def test_pinned_sequence_writes_the_same_journal_and_frames(tmp_path):
    service = _service(tmp_path)
    frames = _pinned_sequence(service)
    service.queue.close()
    answers = [_answer(frame) for frame in frames]
    assert [answer["status"] for answer in answers] == [
        "ok", "done", "ok", "done", "ok", "failed", "ok", "error",
    ]
    assert answers[6]["duplicate"] is True
    journal = (tmp_path / "journal.jsonl").read_bytes()
    assert hashlib.sha256(journal).hexdigest() == _PACKED_JOURNAL_SHA256
    assert hashlib.sha256(b"".join(frames)).hexdigest() == \
        _PACKED_FRAMES_SHA256
    # Unpacked, the matrix is the very floats the lists carried.
    assert hashlib.sha256(_listed_journal(journal)).hexdigest() == \
        _PINNED_JOURNAL_SHA256
    assert hashlib.sha256(_listed_frames(frames)).hexdigest() == \
        _PINNED_FRAMES_SHA256


# ----------------------------------------------------------------------
# Heap: a locator per settled job, and lean restarts
# ----------------------------------------------------------------------
def _run_resample(service, index, payload):
    """Submit, run and ask for one resample job; the result frame."""
    job_id = "mem-%02d" % index
    _ask(service, {"verb": "submit", "kind": "resample", "client": "m",
                   "job_id": job_id, "payload": payload})
    _drain_service(service, index + 1)
    return _ask(service, {"verb": "result", "job_id": job_id})


def test_settled_job_costs_the_heap_a_locator_not_its_answer(tmp_path):
    service = _service(tmp_path)
    payload = _resample_payload(0)

    def run_one(index):
        return len(_run_resample(service, index, payload))

    tracemalloc.start()
    try:
        for index in range(3):
            run_one(index)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        frame_bytes = [run_one(index) for index in range(3, 23)]
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        service.queue.close()
    # What stays per job is its fingerprint and the locator of its done
    # line, not its ~103 KB answer (which read 1.0x a frame when kept).
    assert min(frame_bytes) > 100_000
    assert grown / len(frame_bytes) <= 2048


def _compacted_resample_journal(tmp_path, jobs):
    """A journal of ``jobs`` settled resample jobs, compacted; returns
    the result frames the uncompacted daemon answered with."""
    service = _service(tmp_path)
    payload = _resample_payload(0)
    frames = {"mem-%02d" % index: _run_resample(service, index, payload)
              for index in range(jobs)}
    assert service.queue.compact() is not None
    service.queue.close()
    return frames


def test_recovering_a_compacted_journal_holds_one_result_at_a_time(
        tmp_path):
    frames = _compacted_resample_journal(tmp_path, 50)
    recover(tmp_path / "journal.jsonl")[0].close()  # warm imports
    gc.collect()
    tracemalloc.start()
    try:
        queue, stats = recover(tmp_path / "journal.jsonl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.segments == 1 and stats.corrupt == 0
    assert len(queue.outcomes) == 50 and not queue.pending
    queue.close()
    # The checkpoint was 8x its results' text when it embedded them.
    assert peak <= 3 * max(len(frame) for frame in frames.values())


# ----------------------------------------------------------------------
# Compaction and restart answer with the same bytes
# ----------------------------------------------------------------------
_MIXED = [
    ("mix-resample", "resample", _resample_payload(1)),
    ("mix-echo", "echo", {"text": "naïve ☃", "n": [1, 2.5, None]}),
    ("mix-fail", "fail", {"message": 'poison "quoted" ☃'}),
    ("mix-empty", "echo", {}),
]


def _settle_mixed(service):
    """Run ``_MIXED``; the ``result`` frame of each job."""
    for settled, (job_id, kind, payload) in enumerate(_MIXED, 1):
        _ask(service, {"verb": "submit", "kind": kind, "client": "mix",
                       "job_id": job_id, "payload": payload})
        _drain_service(service, settled)
    return {job_id: _ask(service, {"verb": "result", "job_id": job_id})
            for job_id, _, _ in _MIXED}


def _assert_answers(service, frames):
    """Each job answers its frame byte for byte; a same-work resubmit
    is a duplicate and a different-work one a conflict."""
    for job_id, kind, payload in _MIXED:
        assert _ask(service, {"verb": "result", "job_id": job_id}) == \
            frames[job_id]
        again = _answer(_ask(service, {
            "verb": "submit", "kind": kind, "client": "mix",
            "job_id": job_id, "payload": payload}))
        assert again["status"] == "ok" and again["duplicate"] is True
        other = _answer(_ask(service, {
            "verb": "submit", "kind": kind, "client": "mix",
            "job_id": job_id, "payload": {"other": True}}))
        assert other["status"] == "error"
        assert "different kind/payload" in other["message"]
    assert service.queue.depth() == 0  # no resubmit queued new work


def test_compaction_and_restart_answer_with_the_same_bytes(tmp_path):
    service = _service(tmp_path)
    frames = _settle_mixed(service)
    assert [_answer(frames[job_id])["status"] for job_id, _, _ in _MIXED] \
        == ["done", "done", "failed", "done"]
    assert service.queue.compact() is not None
    _assert_answers(service, frames)
    service.queue.close()
    # The compacted journal reads as one checkpoint whose outcomes
    # hold every result, as it did when it embedded them.
    (checkpoint,) = read_journal(tmp_path / "journal.jsonl").records
    assert checkpoint["type"] == "checkpoint"
    assert {job_id: {"job_id": job_id, **outcome}
            for job_id, outcome in checkpoint["outcomes"].items()} == \
        {job_id: _answer(frame) for job_id, frame in frames.items()}
    restarted = _service(tmp_path)
    assert restarted.counters["replayed"] == 0
    _assert_answers(restarted, frames)
    # A second compaction copies the copied lines: still the same bytes.
    assert restarted.queue.compact() is not None
    _assert_answers(restarted, frames)
    assert restarted.counters["completed"] == 0
    restarted.queue.close()


# ----------------------------------------------------------------------
# A done line that no longer verifies answers error, never its bytes
# ----------------------------------------------------------------------
def _flip_result_byte(locator):
    """Change one digit inside a ``done`` line's result, in place."""
    with open(locator.segment, "r+b") as handle:
        handle.seek(locator.offset)
        line = handle.read(locator.length)
        at = line.index(b'"result":') + 40
        while not line[at:at + 1].isdigit():
            at += 1
        handle.seek(locator.offset + at)
        handle.write(b"7" if line[at:at + 1] != b"7" else b"3")


def test_altered_done_line_answers_error_and_reexecutes_after_restart(
        tmp_path):
    service = _service(tmp_path, compact_every=1)
    frames = _settle_mixed(service)
    locator = service.queue.outcomes["mix-resample"]
    _flip_result_byte(locator)
    answer = _answer(_ask(service, {"verb": "result",
                                    "job_id": "mix-resample"}))
    assert answer["status"] == "error" and answer["job_id"] == "mix-resample"
    assert "mix-resample" in answer["message"]
    assert service.queue.outcome("mix-resample") is None
    # Compaction would lose the job, so it leaves the journal alone.
    journal_bytes = (tmp_path / "journal.jsonl").read_bytes()
    service._settled_since_compact = 1
    assert service._maybe_compact() is False
    assert service.queue.journal.segments() == [locator.segment]
    assert (tmp_path / "journal.jsonl").read_bytes() == journal_bytes
    # A missing segment answers error too, and answers again once back.
    os.rename(locator.segment, locator.segment + ".moved")
    assert _answer(_ask(service, {"verb": "result",
                                  "job_id": "mix-echo"}))["status"] == "error"
    os.rename(locator.segment + ".moved", locator.segment)
    assert _ask(service, {"verb": "result", "job_id": "mix-echo"}) == \
        frames["mix-echo"]
    service.queue.close()
    # Replay skips the damaged line, so the job runs again, to the same
    # bytes, and every other job is served from the journal.
    restarted = _service(tmp_path)
    assert restarted.replay_stats.corrupt == 1
    assert list(restarted.queue.pending) == ["mix-resample"]
    _drain_service(restarted, len(_MIXED))
    assert restarted.counters["completed"] == 1
    for job_id, _, _ in _MIXED:
        assert _ask(restarted, {"verb": "result", "job_id": job_id}) == \
            frames[job_id]
    restarted.queue.close()


class _ErrorDaemonClient(ServeClient):
    """A client whose daemon answers every request ``error``, as it does
    for a settled job whose journal line no longer verifies."""

    def __init__(self):
        super().__init__("/nonexistent.sock")
        self.requests = []

    def request(self, obj):
        self.requests.append(obj)
        return {"status": "error", "job_id": "j1",
                "message": "unreadable j1"}


def test_wait_raises_on_an_error_answer_without_spinning():
    # Before, ``error`` was neither a settlement nor ``pending``, so
    # wait() re-asked with no sleep until its timeout and then raised
    # TimeoutError, hiding the daemon's message.
    client = _ErrorDaemonClient()
    with pytest.raises(ServeError) as raised:
        client.wait("j1", timeout=0.5)
    assert raised.value.response["message"] == "unreadable j1"
    assert 1 <= len(client.requests) <= 2


# ----------------------------------------------------------------------
# Checkpoints: fingerprints, and the full specs older ones carry
# ----------------------------------------------------------------------
def _assert_held(service, answers):
    """Settled answers replay as recorded; a resubmit of a settled id
    is a duplicate only with the same kind and canonical payload."""
    for job_id, answer in answers.items():
        assert _answer(_ask(service, {"verb": "result",
                                      "job_id": job_id})) == answer
    assert list(service.queue.pending) == ["j-live"]
    assert service.queue._seq == 3

    def resubmit(kind, payload):
        return service._handle_submit({"kind": kind, "client": "a",
                                       "job_id": "j-done",
                                       "payload": payload})

    assert resubmit("echo", {"x": True})["duplicate"] is True
    for kind, payload in (("echo", {"x": 1}), ("echo", {"x": False}),
                          ("sleep", {"x": True})):
        conflict = resubmit(kind, payload)
        assert conflict["status"] == "error"
        assert "different kind/payload" in conflict["message"]


#: Settlements as the checkpoints before done lines embedded them.
_LEGACY_OUTCOMES = {
    "j-done": {"status": "done", "result": {"echo": {"x": True}}},
    "j-fail": {"status": "failed", "reason": "RuntimeError",
               "message": 'boom "quoted"'},
}
_LEGACY_SPECS = {
    "j-done": {"job_id": "j-done", "kind": "echo", "client": "a",
               "payload": {"x": True}},
    "j-fail": {"job_id": "j-fail", "kind": "fail", "client": "a",
               "payload": {"message": 'boom "quoted"'}},
}


def _assert_legacy_checkpoint_replays(tmp_path, accepted):
    """A checkpoint with results in ``outcomes`` and ``accepted`` as
    given replays and answers, and so does the journal a compaction
    rewrites it into, which keeps no result as text."""
    with Journal(tmp_path / "journal.jsonl") as journal:
        journal.compact([
            {"type": "checkpoint", "seq": 3, "outcomes": _LEGACY_OUTCOMES,
             "accepted": accepted},
            {"type": "accepted", "job_id": "j-live", "kind": "echo",
             "client": "a", "payload": {}},
        ])
    answers = {job_id: {"job_id": job_id, **outcome}
               for job_id, outcome in _LEGACY_OUTCOMES.items()}
    service = _service(tmp_path)
    _assert_held(service, answers)
    assert isinstance(service.queue.outcomes["j-done"], str)
    assert service.queue.compact() is not None
    _assert_held(service, answers)
    service.queue.close()
    restarted = _service(tmp_path)
    _assert_held(restarted, answers)
    assert not isinstance(restarted.queue.outcomes["j-done"], str)
    restarted.queue.close()


def test_checkpoint_with_full_specs_still_replays(tmp_path):
    # The checkpoint shape written before fingerprints: full job specs.
    _assert_legacy_checkpoint_replays(tmp_path, _LEGACY_SPECS)


def test_checkpoint_with_embedded_results_still_replays(tmp_path):
    # The shape written before done lines followed the checkpoint:
    # fingerprints, with every result inside ``outcomes``.
    _assert_legacy_checkpoint_replays(tmp_path, {
        job_id: {"client": spec["client"], "job_id": job_id,
                 "kind": spec["kind"],
                 "payload_sha256": _digest(_canonical(spec["payload"]))}
        for job_id, spec in _LEGACY_SPECS.items()
    })


def test_compacted_fingerprints_replay(tmp_path):
    first = _service(tmp_path)
    for settled, (job_id, kind, payload) in enumerate((
            ("j-done", "echo", {"x": True}),
            ("j-fail", "fail", {"message": 'boom "quoted"'})), 1):
        first._handle_submit({"kind": kind, "client": "a",
                              "job_id": job_id, "payload": payload})
        _drain_service(first, settled)
    answers = {job_id: _answer(_ask(first, {"verb": "result",
                                            "job_id": job_id}))
               for job_id in ("j-done", "j-fail")}
    first._handle_submit({"kind": "echo", "client": "a", "job_id": "j-live"})
    _assert_held(first, answers)
    first.queue.compact()
    first.queue.close()
    second = _service(tmp_path)
    _assert_held(second, answers)
    second.queue.close()


# ----------------------------------------------------------------------
# A result that JSON cannot encode fails its job, not the daemon
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_unencodable_result_settles_failed(tmp_path, workers):
    router = default_router()
    router.register("poison", lambda payload, seed: {"x": np.float32(1.5)})
    service = _service(tmp_path, workers=workers, router=router,
                       breaker_threshold=1)
    for settled, (job_id, kind) in enumerate((("bad", "poison"),
                                              ("next", "echo")), 1):
        service._handle_submit({"kind": kind, "client": "p",
                                "job_id": job_id})
        _drain_service(service, settled)
    bad = service.queue.outcome("bad")
    assert bad["status"] == "failed" and bad["reason"] == "TypeError"
    assert "float32" in bad["message"]
    assert service.queue.outcome("next")["status"] == "done"
    # The failure counts toward the poison family's breaker.
    assert service.breaker.open_signature("serve/poison") is not None
    _close_service(service)
    restarted = _service(tmp_path, router=router)
    assert restarted.counters["replayed"] == 0
    assert not restarted.queue.pending
    assert restarted.queue.outcome("bad")["reason"] == "TypeError"
    restarted.queue.close()
