"""What a settled job costs the daemon: the text of its answer, once.

The daemon keeps each settlement as the canonical JSON text its journal
line and its ``result`` answers are spliced from, and each accepted job
as a fingerprint (id, kind, client, payload sha256).  These tests pin
that the bytes a client and the journal see did not change, that the
heap grows by about one answer per settled job, that older checkpoints
still replay, and that a result that JSON cannot encode settles as a
failure instead of killing the loop.
"""

import gc
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.serve import Journal, default_router

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
#: on float arithmetic, as the golden report digests do.
_PINNED_JOURNAL_SHA256 = (
    "50e75fc7f7520754397a6d0577f473d2f5e87e6bebc4dacf23a5b619b89c7883")
_PINNED_FRAMES_SHA256 = (
    "7c881ae4ed173d5f87c86649288f4fd8bdea523afeae8a9724c763ece4723562")


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
    assert hashlib.sha256(journal).hexdigest() == _PINNED_JOURNAL_SHA256
    assert hashlib.sha256(b"".join(frames)).hexdigest() == \
        _PINNED_FRAMES_SHA256


# ----------------------------------------------------------------------
# Heap: one answer per settled job
# ----------------------------------------------------------------------
def test_heap_grows_by_about_one_answer_per_settled_job(tmp_path):
    service = _service(tmp_path)
    payload = _resample_payload(0)

    def run_one(index):
        job_id = "mem-%02d" % index
        _ask(service, {"verb": "submit", "kind": "resample", "client": "m",
                       "job_id": job_id, "payload": payload})
        _drain_service(service, index + 1)
        return len(_ask(service, {"verb": "result", "job_id": job_id}))

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
    # What stays per job is its settlement text: the frame less its job
    # id and length prefix.
    assert grown / len(frame_bytes) <= 1.25 * max(frame_bytes)


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


def test_checkpoint_with_full_specs_still_replays(tmp_path):
    # The checkpoint shape written before fingerprints: full job specs.
    outcomes = {
        "j-done": {"status": "done", "result": {"echo": {"x": True}}},
        "j-fail": {"status": "failed", "reason": "RuntimeError",
                   "message": 'boom "quoted"'},
    }
    specs = {
        "j-done": {"job_id": "j-done", "kind": "echo", "client": "a",
                   "payload": {"x": True}},
        "j-fail": {"job_id": "j-fail", "kind": "fail", "client": "a",
                   "payload": {"message": 'boom "quoted"'}},
    }
    with Journal(tmp_path / "journal.jsonl") as journal:
        journal.compact([
            {"type": "checkpoint", "seq": 3, "outcomes": outcomes,
             "accepted": specs},
            {"type": "accepted", "job_id": "j-live", "kind": "echo",
             "client": "a", "payload": {}},
        ])
    service = _service(tmp_path)
    _assert_held(service, {job_id: {"job_id": job_id, **outcome}
                           for job_id, outcome in outcomes.items()})
    service.queue.close()


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
