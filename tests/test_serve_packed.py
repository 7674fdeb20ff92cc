"""A ``resample`` result carries its matrix packed, and nothing is lost.

``x`` travels as the base64 of its float64 bytes (``pack_array``).
These tests check that those are the very bits the nested-list result
held, against the handler as it was before packing, kept here verbatim;
that ``unpack_array`` round-trips every shape, still reads a nested
list (a result journaled before packing, which a daemon answers as it
was journaled) and rejects malformed input; that labels a cast would
have truncated fail their job; and that a compacted job whose ``done``
line no longer verifies settles ``failed``/``lost`` instead of
vanishing.
"""

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
    segment_paths,
    unpack_array,
)
from repro.serve.journal import Locator, _canonical

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
# Labels a cast would truncate fail the job
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


# ----------------------------------------------------------------------
# A damaged done line in a compacted segment settles failed/lost
# ----------------------------------------------------------------------
class _InProcessClient(ServeClient):
    """A client whose requests go straight to ``service``'s handler."""

    def __init__(self, service):
        super().__init__("/nonexistent.sock")
        self.service = service

    def request(self, obj):
        return _answer(_ask(self.service, obj))


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
