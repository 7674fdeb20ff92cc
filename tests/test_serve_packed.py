"""A ``resample`` matrix travels packed both ways, and nothing is lost.

``x`` travels as the base64 of its float64 bytes (``pack_array``): in
a result, and in a payload the shipped client submits
(``pack_payload``).  These tests check that those are the very bits
the nested-list result held, against the handler as it was before
packing, kept here verbatim; that a packed payload gives the result of
its list payload, journals the same floats, and falls back to the list
where ``x`` does not convert; that ``unpack_array`` round-trips every
shape, still reads a nested list (a result journaled before packing,
which a daemon answers as it was journaled) and rejects malformed
input; that labels or a ``k_neighbors`` a cast would have truncated
fail their job, while a whole float ``k_neighbors`` runs as its int;
and that a compacted job whose ``done`` line no longer verifies
settles ``failed``/``lost`` instead of vanishing.
"""

import copy
import json
import os

import numpy as np
import pytest

from repro.serve import (
    Journal,
    ServeClient,
    default_router,
    job_seed,
    pack_array,
    pack_payload,
    segment_paths,
    unpack_array,
)
from repro.serve.journal import Locator, _canonical, _wrap

from .test_serve import _drain_service
from .test_serve_push import _frame, _service
from .test_serve_settled import (
    _answer,
    _ask,
    _compacted_resample_journal,
    _flip_result_byte,
    _resample_payload,
)


def _reference_handle_resample(payload, seed):
    """``repro.serve.router._handle_resample`` before packing, verbatim."""
    from repro.experiments.config import build_sampler

    x = np.asarray(payload["x"], dtype=np.float64)
    y = np.asarray(payload["y"], dtype=np.int64)
    sampler = build_sampler(
        payload.get("sampler", "eos"),
        k_neighbors=int(payload.get("k_neighbors", 5)),
        random_state=seed,
        **(payload.get("sampler_kwargs") or {}),
    )
    x_res, y_res = sampler.fit_resample(x, y)
    counts = np.bincount(np.asarray(y_res, dtype=np.int64))
    return {
        "x": np.asarray(x_res).tolist(),
        "y": np.asarray(y_res).tolist(),
        "class_counts": counts.tolist(),
        "n_synthetic": int(len(y_res) - len(y)),
        "sampler": payload.get("sampler", "eos"),
    }


def _job(job_id, payload):
    return {"job_id": job_id, "kind": "resample", "payload": payload}


class _InProcessClient(ServeClient):
    """A client whose requests go straight to ``service``'s handler;
    ``responses`` keeps each answer."""

    def __init__(self, service):
        super().__init__("/nonexistent.sock")
        self.service = service
        self.responses = []

    def request(self, obj):
        self.responses.append(_answer(_ask(self.service, obj)))
        return self.responses[-1]


def _two_class_payload():
    rng = np.random.default_rng(7)
    x = np.vstack([rng.normal(0.0, 1.0, (40, 6)),
                   rng.normal(2.5, 1.0, (9, 6))])
    return {"x": x.tolist(), "y": [0] * 40 + [1] * 9}


# ----------------------------------------------------------------------
# Exact: the packed matrix is the nested-list matrix, bit for bit
# ----------------------------------------------------------------------
_CASES = [
    *[(job_id, _resample_payload(0))
      for job_id in ("pin-resample", "mem-00", "s0-serve-resample-00001",
                     "s0-serve-resample-00150")],
    ("two-class", _two_class_payload()),
    ("k3", {**_resample_payload(1), "k_neighbors": 3}),
    ("k10", {**_resample_payload(1), "k_neighbors": 10}),
    ("smote", {**_resample_payload(2), "sampler": "smote"}),
]


@pytest.mark.parametrize("job_id,payload", _CASES,
                         ids=[case[0] for case in _CASES])
def test_packed_matrix_is_the_reference_bits(job_id, payload):
    reference = _reference_handle_resample(payload, job_seed(job_id))
    packed = default_router().dispatch(_job(job_id, payload))
    assert packed["x"]["dtype"] == "<f8"
    assert packed["x"]["shape"] == [len(reference["x"]),
                                    len(reference["x"][0])]
    # The parent's result reached clients through its canonical text.
    listed = json.loads(_canonical(reference))
    sent = json.loads(_canonical(packed))
    for result in (packed, sent):
        assert unpack_array(result["x"]).tobytes() == \
            np.asarray(listed["x"], dtype=np.float64).tobytes()
        assert {key: value for key, value in result.items() if key != "x"} \
            == {key: value for key, value in reference.items()
                if key != "x"}


# ----------------------------------------------------------------------
# Packed input: the list input's result, the list input's floats
# ----------------------------------------------------------------------
@pytest.mark.parametrize("job_id,payload", _CASES,
                         ids=[case[0] for case in _CASES])
def test_packed_input_gives_the_list_input_result(job_id, payload):
    router = default_router()
    listed = router.dispatch(_job(job_id, payload))
    sent = pack_payload("resample", payload)
    assert sent["x"] == pack_array(np.asarray(payload["x"]))
    # As the daemon reads it: through the frame's JSON text.
    packed = router.dispatch(_job(job_id, json.loads(_canonical(sent))))
    assert unpack_array(packed["x"]).tobytes() == \
        unpack_array(listed["x"]).tobytes()
    assert packed == listed


def _accepted_line(journal_path, job_id):
    for line in journal_path.read_text(encoding="utf-8").splitlines():
        body = json.loads(line)["body"]
        if body["type"] == "accepted" and body["job_id"] == job_id:
            return line, body
    raise AssertionError("no accepted line for %s" % job_id)


def _submit_listed(service, job_id, kind, payload):
    """A submit as a client that sends nested lists makes it."""
    return _answer(_ask(service, {"verb": "submit", "kind": kind,
                                  "client": "default", "job_id": job_id,
                                  "payload": payload}))


def test_client_journals_the_list_payload_floats_packed(tmp_path):
    payload = _resample_payload(0)
    before = copy.deepcopy(payload)
    packed_dir, listed_dir = tmp_path / "packed", tmp_path / "listed"
    service = _service(packed_dir)
    assert _InProcessClient(service).submit(
        "resample", payload, job_id="rs") == "rs"
    service.queue.close()
    assert payload == before
    _, body = _accepted_line(packed_dir / "journal.jsonl", "rs")
    assert body["payload"]["x"] == pack_array(np.asarray(payload["x"]))
    service = _service(listed_dir)
    assert _submit_listed(service, "rs", "resample", payload)["status"] \
        == "ok"
    service.queue.close()
    listed_line, _ = _accepted_line(listed_dir / "journal.jsonl", "rs")
    x = unpack_array(body["payload"]["x"]).tolist()
    assert _wrap({**body, "payload": {**body["payload"], "x": x}}) == \
        listed_line


def _run_through_client(tmp_path, kind, payload):
    """Submit ``payload`` through the client and run it; its settlement."""
    service = _service(tmp_path)
    _InProcessClient(service).submit(kind, payload, job_id="job")
    _drain_service(service, 1)
    answer = _answer(_ask(service, {"verb": "result", "job_id": "job"}))
    service.queue.close()
    return answer


def _unconvertible(row, cell):
    """The benchmark payload with the first cell of ``x[row]`` set to
    ``cell``, or, for ``cell`` None, its last cell dropped (ragged)."""
    payload = _resample_payload(0)
    payload["x"][row] = [cell] + payload["x"][row][1:] \
        if cell is not None else payload["x"][row][:-1]
    return payload


@pytest.mark.parametrize("payload", [
    _unconvertible(3, None), _unconvertible(0, "abc"),
    _unconvertible(5, 10 ** 400)], ids=["ragged", "string", "overflow"])
def test_unconvertible_x_goes_as_lists_and_fails_as_before(tmp_path,
                                                            payload):
    assert pack_payload("resample", payload) is payload
    with pytest.raises(Exception) as raised:
        _reference_handle_resample(payload, job_seed("job"))
    answer = _run_through_client(tmp_path, "resample", payload)
    assert answer["status"] == "failed"
    assert answer["reason"] == type(raised.value).__name__
    assert answer["message"] == str(raised.value)
    _, body = _accepted_line(tmp_path / "journal.jsonl", "job")
    assert body["payload"]["x"] == payload["x"]


def test_other_kinds_are_sent_unchanged(tmp_path):
    payload = {"x": [[1.0, 2.5], [3.0, -4.0]], "y": [0, 1]}
    assert pack_payload("echo", payload) is payload
    answer = _run_through_client(tmp_path, "echo", payload)
    assert answer["status"] == "done"
    assert answer["result"]["echo"] == payload


def test_client_resubmit_is_a_duplicate_across_a_restart(tmp_path):
    payload = _resample_payload(0)
    listed = _service(tmp_path / "listed")
    _submit_listed(listed, "rs", "resample", payload)
    _drain_service(listed, 1)
    expected = _ask(listed, {"verb": "result", "job_id": "rs"})
    # A list and a packed x are different work under one id.
    refused = _answer(_ask(listed, {
        "verb": "submit", "kind": "resample", "client": "default",
        "job_id": "rs", "payload": pack_payload("resample", payload)}))
    assert refused["status"] == "error"
    listed.queue.close()

    service = _service(tmp_path / "packed")
    client = _InProcessClient(service)
    client.submit("resample", payload, job_id="rs")
    assert client.submit("resample", payload, job_id="rs") == "rs"
    assert client.responses[-1]["duplicate"] is True
    service.queue.close()  # a restart with the job still pending
    restarted = _service(tmp_path / "packed")
    assert restarted.counters["replayed"] == 1
    client = _InProcessClient(restarted)
    client.submit("resample", payload, job_id="rs")
    assert client.responses[-1]["duplicate"] is True
    _drain_service(restarted, 1)
    assert _ask(restarted, {"verb": "result", "job_id": "rs"}) == expected
    restarted.queue.close()
    again = _service(tmp_path / "packed")
    client = _InProcessClient(again)
    client.submit("resample", payload, job_id="rs")
    assert client.responses[-1]["duplicate"] is True
    assert again.queue.depth() == 0
    again.queue.close()


# ----------------------------------------------------------------------
# pack_array / unpack_array
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shape", [(0, 32), (1, 1), (300, 32)])
def test_unpack_returns_what_was_packed(shape):
    array = np.random.default_rng(3).normal(size=shape) * 1e3
    packed = pack_array(array)
    assert packed["shape"] == list(shape)
    for form in (packed, json.loads(json.dumps(packed))):
        back = unpack_array(form)
        assert back.dtype == np.float64 and back.shape == shape
        assert back.tobytes() == array.tobytes()
    back[...] = 0.0  # writable, and not a view of anything shared
    assert unpack_array(packed).tobytes() == array.tobytes()


def test_unpack_takes_a_nested_list():
    array = np.random.default_rng(4).normal(size=(5, 3))
    back = unpack_array(array.tolist())
    assert back.dtype == np.float64
    assert back.tobytes() == array.tobytes()


_GOOD = pack_array(np.arange(6.0).reshape(2, 3))


@pytest.mark.parametrize("packed", [
    {**_GOOD, "dtype": "<f4"},
    {**_GOOD, "dtype": ">f8"},
    {key: value for key, value in _GOOD.items() if key != "dtype"},
    {**_GOOD, "shape": "2,3"},
    {**_GOOD, "shape": None},
    {**_GOOD, "shape": [2, -3]},
    {**_GOOD, "shape": [2.0, 3]},
    {**_GOOD, "shape": [True, 3]},
    {**_GOOD, "data": "not base64!"},
    {**_GOOD, "data": _GOOD["data"][:-1]},
    {**_GOOD, "data": "naïve"},
    {**_GOOD, "data": None},
    {**_GOOD, "data": 7},
    {**_GOOD, "shape": [2, 2]},
    {**_GOOD, "shape": [7]},
    {**_GOOD, "shape": []},
    {**_GOOD, "shape": [2 ** 70]},
    "AAAA",
    None,
    3.5,
    [[1.0, 2.0], [3.0]],
    [{"a": 1}],
    [[10 ** 400]],
], ids=lambda packed: "%.40r" % (packed,))
def test_unpack_rejects_malformed_input(packed):
    with pytest.raises(ValueError):
        unpack_array(packed)


# ----------------------------------------------------------------------
# A result journaled before packing answers as it was journaled
# ----------------------------------------------------------------------
def test_nested_list_result_in_the_journal_still_answers(tmp_path):
    payload = _resample_payload(0)
    job = {"job_id": "old-rs", "kind": "resample", "client": "old",
           "payload": payload}
    listed = _reference_handle_resample(payload, job_seed("old-rs"))
    with Journal(tmp_path / "journal.jsonl") as journal:
        journal.append_accepted(job, 1)
        assert journal.append_done("old-rs", _canonical(listed)) is not None
    expected = _frame({"job_id": "old-rs", "result": listed,
                       "status": "done"})
    service = _service(tmp_path)
    assert isinstance(service.queue.outcomes["old-rs"], Locator)
    assert service.counters["replayed"] == 0
    frame = _ask(service, {"verb": "result", "job_id": "old-rs"})
    assert frame == expected
    packed = default_router().dispatch(_job("old-rs", payload))
    assert unpack_array(_answer(frame)["result"]["x"]).tobytes() == \
        unpack_array(packed["x"]).tobytes()
    # A compaction copies the old line as it is.
    assert service.queue.compact() is not None
    assert _ask(service, {"verb": "result", "job_id": "old-rs"}) == expected
    service.queue.close()


# ----------------------------------------------------------------------
# Labels and a k_neighbors that a cast would truncate fail the job
# ----------------------------------------------------------------------
def test_fractional_label_fails_the_resample_job(tmp_path):
    x = np.random.default_rng(5).normal(size=(40, 4))
    payload = {"x": x.tolist(), "y": [0] * 30 + [1.9] * 10}
    with pytest.raises(ValueError, match="row 30"):
        default_router().dispatch(_job("frac", payload))
    service = _service(tmp_path)
    _ask(service, {"verb": "submit", "kind": "resample", "client": "f",
                   "job_id": "frac", "payload": payload})
    _drain_service(service, 1)
    answer = _answer(_ask(service, {"verb": "result", "job_id": "frac"}))
    assert answer["status"] == "failed" and answer["reason"] == "ValueError"
    assert "row 30" in answer["message"]
    service.queue.close()


@pytest.mark.parametrize("k", [2.9, True, "3"], ids=["fraction", "bool",
                                                     "string"])
def test_k_neighbors_a_cast_would_change_fails_the_resample_job(k):
    payload = {**_resample_payload(1), "k_neighbors": k}
    with pytest.raises(ValueError, match="k_neighbors"):
        default_router().dispatch(_job("k-bad", payload))


def test_whole_float_k_neighbors_runs_as_its_int():
    payload = _resample_payload(1)
    as_int = default_router().dispatch(
        _job("k-whole", {**payload, "k_neighbors": 2}))
    as_float = default_router().dispatch(
        _job("k-whole", {**payload, "k_neighbors": 2.0}))
    assert _canonical(as_float) == _canonical(as_int)


# ----------------------------------------------------------------------
# A damaged done line in a compacted segment settles failed/lost
# ----------------------------------------------------------------------
def _done_locators(segment):
    """job id -> Locator of each ``done`` line of ``segment``."""
    found, offset = {}, 0
    with open(segment, "rb") as handle:
        for line in handle:
            body = json.loads(line)["body"]
            if body["type"] == "done":
                found[body["job_id"]] = Locator(str(segment), offset,
                                                len(line) - 1)
            offset += len(line)
    return found


def _assert_lost(service, job_ids):
    for job_id in job_ids:
        answer = _answer(_ask(service, {"verb": "result",
                                        "job_id": job_id}))
        assert answer["status"] == "failed" and answer["reason"] == "lost"
        assert job_id in answer["message"]
        assert _InProcessClient(service).wait(job_id, timeout=1.0) == answer
        again = _answer(_ask(service, {
            "verb": "submit", "kind": "resample", "client": "m",
            "job_id": job_id, "payload": _resample_payload(0)}))
        assert again["status"] == "ok" and again["duplicate"] is True
        assert _answer(_ask(service, {"verb": "result",
                                      "job_id": job_id})) == answer
    assert service.queue.depth() == 0  # nothing re-runs


def test_damaged_done_lines_of_a_compacted_segment_settle_lost(tmp_path):
    frames = _compacted_resample_journal(tmp_path, 4)
    (segment,) = segment_paths(tmp_path / "journal.jsonl")
    locators = _done_locators(segment)
    assert list(locators) == ["mem-00", "mem-01", "mem-02", "mem-03"]
    damaged = ["mem-00", "mem-01", "mem-03"]
    for job_id in damaged:
        _flip_result_byte(locators[job_id])
    service = _service(tmp_path)
    assert service.replay_stats.corrupt == 2
    assert service.replay_stats.torn_tail  # the last line
    _assert_lost(service, damaged)
    assert _ask(service, {"verb": "result", "job_id": "mem-02"}) == \
        frames["mem-02"]
    assert service.queue.compact() is not None
    service.queue.close()
    assert not os.path.exists(segment)  # the damaged lines are gone
    restarted = _service(tmp_path)
    assert restarted.replay_stats.corrupt == 0
    assert restarted.counters["replayed"] == 0
    _assert_lost(restarted, damaged)
    assert _ask(restarted, {"verb": "result", "job_id": "mem-02"}) == \
        frames["mem-02"]
    restarted.queue.close()
