"""Settlements pushed to waiting clients: the long-poll ``result`` verb,
and a ``done`` result encoded to JSON once for both the journal line and
the response.

Handler-level tests drive :class:`ReproService` without a loop, with
fake connections; end-to-end tests run ``repro-serve`` as a child with
two workers, so the daemon stays responsive while a job runs.
"""

import json
import os
import signal
import threading

import pytest

from repro.resilience import FaultPlan, inject_faults
from repro.serve import (
    JobQueue,
    Journal,
    ReproService,
    ServeClient,
    read_journal,
    recover,
    write_message,
)
from repro.serve.journal import _canonical, _digest, _wrap
from repro.telemetry import load_trace, monotonic

from .test_serve_chaos import _start_daemon, _stop_and_reap


def _old_wrap(body):
    """The journal line as written before the splice."""
    return json.dumps(
        {"sha256": _digest(_canonical(body)), "body": body},
        sort_keys=True,
        separators=(",", ":"),
    )


_BODIES = [
    {"type": "accepted", "job_id": "jé-中文", "kind": "echo",
     "client": "café", "payload": {"text": "naïve ☃"}, "seq": 1},
    {"type": "accepted", "job_id": 'q"uo\\te\'s', "kind": "echo",
     "payload": {'k"ey': ['v"al', "\\"]}, "seq": 2},
    {"type": "done", "job_id": "floats",
     "result": {"x": [float("nan"), float("inf"), -float("inf"), 0.1, -0.0]}},
    {"type": "done", "job_id": "nested",
     "result": {"b": {"z": [1, {"y": {"x": None}}], "a": True}, "a": []}},
    {"type": "done", "job_id": "empty", "result": {}},
    {"type": "accepted", "job_id": "empty-payload", "kind": "echo",
     "payload": {}, "seq": 3},
    {"type": "stop"},
    {"type": "checkpoint", "seq": 3, "outcomes": {
        "floats": {"status": "done", "result": [float("nan")]},
        "jé": {"status": "failed", "reason": "E", "message": 'a "b"'},
    }, "accepted": {}},
]


class _Conn:
    """A connection stand-in: replays a request, records the answer."""

    def __init__(self, data=b""):
        self.buffer = bytearray(data)
        self.sent = bytearray()
        self.closed = False
        self.broken = False

    def settimeout(self, timeout):
        pass

    def recv(self, size):
        chunk = bytes(self.buffer[:size])
        del self.buffer[:size]
        return chunk

    def sendall(self, data):
        if self.broken:
            raise BrokenPipeError(32, "broken pipe")
        self.sent.extend(data)

    def close(self):
        self.closed = True

    def response(self):
        return json.loads(bytes(self.sent[4:]).decode("utf-8"))


def _frame(message):
    sock = _Conn()
    write_message(sock, message)
    return bytes(sock.sent)


# ----------------------------------------------------------------------
# Journal byte-identity of the spliced lines
# ----------------------------------------------------------------------
class TestJournalSplice:
    @pytest.mark.parametrize("body", _BODIES,
                             ids=[str(i) for i in range(len(_BODIES))])
    def test_wrap_is_byte_identical_to_the_old_encoding(self, body):
        assert _wrap(body) == _old_wrap(body)

    @pytest.mark.parametrize("job_id,result", [
        ("jé-中", {"x": [1.5, float("nan"), float("inf")]}),
        ('q"uote\\', {'a"b': {"c": [-float("inf")]}}),
        ("nested", {"z": {"y": {"x": [1, 2]}}, "a": None}),
        ("empty", {}),
    ])
    def test_append_done_splices_the_canonical_body(self, tmp_path, job_id,
                                                    result):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append_done(job_id, _canonical(result))
        body = {"type": "done", "job_id": job_id, "result": result}
        line = path.read_text(encoding="utf-8")
        assert line == _old_wrap(body) + "\n"
        assert line.startswith('{"body":%s,"sha256":' % _canonical(body))

    @pytest.mark.parametrize(
        "body", [body for body in _BODIES if body["type"] == "accepted"],
        ids=lambda body: body["job_id"])
    def test_append_accepted_splices_the_canonical_body(self, tmp_path,
                                                        body):
        path = tmp_path / "journal.jsonl"
        job = {key: value for key, value in body.items()
               if key not in ("type", "seq")}
        with Journal(path) as journal:
            payload_text = journal.append_accepted(job, body["seq"])
        assert path.read_text(encoding="utf-8") == _old_wrap(body) + "\n"
        assert payload_text == _canonical(body["payload"])

    def test_spliced_checkpoint_is_byte_identical_to_its_encoding(
            self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(Journal(path))
        job_ids = ["jé-中文", 'q"uo\\te\'s', "plain", "☃ live"]
        for job_id in job_ids:
            queue.accept({"job_id": job_id, "kind": "echo", "client": "café",
                          "payload": {'k"ey': job_id}})
        queue.settle_done(job_ids[0], _canonical(
            {"x": [float("nan"), -float("inf")], "s": "☃\\"}))
        queue.settle_failed(job_ids[1], "RuntimeError", 'boom "quoted"')
        queue.settle_done(job_ids[2], _canonical([]))
        with open(path, encoding="utf-8") as handle:
            done_lines = [line for line in handle.read().splitlines()
                          if json.loads(line)["body"]["type"] == "done"]
        settled = {job_id: queue.settlement(job_id)
                   for job_id in job_ids[:3]}
        queue.compact()
        queue.close()
        (segment,) = queue.journal.segments()
        with open(segment, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        # The checkpoint, the two results' done lines copied byte for
        # byte, and the live job.
        assert len(lines) == 4
        for line in lines:
            assert line == _old_wrap(json.loads(line)["body"])
        assert lines[1:3] == done_lines
        assert json.loads(lines[3])["body"]["job_id"] == job_ids[3]
        checkpoint = json.loads(lines[0])["body"]
        assert sorted(checkpoint["outcomes"]) == [job_ids[1]]
        assert sorted(checkpoint["accepted"]) == sorted(job_ids[:3])
        assert checkpoint["accepted"][job_ids[1]] == {
            "client": "café", "job_id": job_ids[1], "kind": "echo",
            "payload_sha256": _digest(_canonical({'k"ey': job_ids[1]})),
        }
        recovered, _ = recover(path)
        assert {job_id: recovered.settlement(job_id)
                for job_id in job_ids[:3]} == settled
        assert list(recovered.pending) == [job_ids[3]]
        recovered.close()

    def test_journal_written_through_the_splice_replays_clean(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(Journal(path))
        for index, job_id in enumerate(("jé", 'q"1', "plain")):
            queue.accept({"job_id": job_id, "kind": "echo",
                          "payload": {"i": index}})
        queue.settle_done("jé", _canonical({"x": [float("inf")], "s": "☃"}))
        queue.settle_failed('q"1', "RuntimeError", 'boom "quoted"')
        queue.mark_stop()
        queue.close()
        stats = read_journal(path)
        assert stats.corrupt == 0 and not stats.torn_tail and stats.clean_stop
        assert [r["type"] for r in stats.records] == [
            "accepted", "accepted", "accepted", "done", "failed", "stop",
        ]
        replayed, _ = recover(path)
        assert list(replayed.pending) == ["plain"]
        assert replayed.outcome("jé") == {
            "status": "done", "result": {"x": [float("inf")], "s": "☃"},
        }
        assert replayed.outcomes == queue.outcomes
        replayed.close()

    def test_corrupt_fault_tears_the_spliced_done_append(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        plan = FaultPlan()
        plan.inject("serve.journal", action="corrupt",
                    when={"record": "done"})
        with inject_faults(plan), Journal(path) as journal:
            journal.append("accepted", fsync=True, job_id="j1", kind="echo")
            journal.append_done("j1", _canonical({"big": list(range(50))}))
        assert not path.read_bytes().endswith(b"\n")
        stats = read_journal(path)
        assert [r["type"] for r in stats.records] == ["accepted"]
        assert stats.torn_tail and stats.corrupt == 0


# ----------------------------------------------------------------------
# Service: parking, waking, expiring (handler level, fake connections)
# ----------------------------------------------------------------------
def _service(tmp_path, **kwargs):
    return ReproService(
        tmp_path / "repro.sock", tmp_path / "journal.jsonl", **kwargs
    )


def _accept(service, job_id):
    service.queue.accept({"job_id": job_id, "kind": "echo", "client": "a",
                          "payload": {}})
    return service.queue.pending[job_id]


def _long_poll(service, job_id, wait=5.0):
    conn = _Conn(_frame({"verb": "result", "job_id": job_id, "wait": wait}))
    service._serve_one_connection(conn)
    return conn


class TestParkedResults:
    def test_spliced_done_frame_equals_the_encoded_frame(self, tmp_path):
        service = _service(tmp_path)
        job_id, failed_id = 'café "1"', "jé-中"
        _accept(service, job_id)
        _accept(service, failed_id)
        result = {"x": [float("nan"), -float("inf")], "s": "☃\\"}
        service.queue.settle_done(job_id, _canonical(result))
        service.queue.settle_failed(failed_id, "TypeError", 'not "JSON"')
        for settled in (job_id, failed_id):
            spliced = service._result_response(settled)
            assert isinstance(spliced, bytes)
            encoded = {"job_id": settled, **service.queue.outcome(settled)}
            assert _frame(spliced) == _frame(encoded)
        service.queue.close()

    def test_parked_connection_is_answered_after_the_journal_append(
            self, tmp_path):
        service = _service(tmp_path)
        job = _accept(service, "j1")
        conn = _long_poll(service, "j1")
        assert not conn.sent and not conn.closed
        journaled = []
        append_done = service.queue.journal.append_done

        def spy(job_id, result_text):
            assert not conn.sent, "answered before the journal append"
            journaled.append(job_id)
            return append_done(job_id, result_text)

        service.queue.journal.append_done = spy
        service._settle_outcome(job, _canonical({"echo": {"x": 1}}))
        assert journaled == ["j1"]
        assert conn.closed
        assert conn.response() == {"status": "done", "job_id": "j1",
                                   "result": {"echo": {"x": 1}}}
        assert service._parked == []
        service.queue.close()

    def test_every_parked_connection_on_the_job_is_answered(self, tmp_path):
        service = _service(tmp_path)
        job = _accept(service, "j1")
        _accept(service, "j2")
        first, second = _long_poll(service, "j1"), _long_poll(service, "j1")
        other = _long_poll(service, "j2")
        service._settle_outcome(job, _canonical({"ok": 1}))
        assert first.response() == second.response()
        assert first.response()["status"] == "done"
        assert not other.sent and len(service._parked) == 1
        service.queue.close()

    def test_settled_unknown_and_waitless_requests_answer_at_once(
            self, tmp_path):
        service = _service(tmp_path)
        job = _accept(service, "j1")
        _accept(service, "j2")
        assert _long_poll(service, "nope").response()["status"] == "not_found"
        for wait in (0, -1.0, "soon", float("nan")):
            answer = _long_poll(service, "j2", wait=wait).response()
            assert answer["status"] == "pending"
        service._settle_outcome(job, _canonical({"ok": 1}))
        assert _long_poll(service, "j1").response()["status"] == "done"
        assert service._parked == []
        service.queue.close()

    def test_parked_set_is_capped_by_max_depth(self, tmp_path):
        service = _service(tmp_path, max_depth=2)
        _accept(service, "j1")
        parked = [_long_poll(service, "j1") for _ in range(2)]
        over = _long_poll(service, "j1")
        assert all(not conn.sent for conn in parked)
        assert over.response()["status"] == "pending" and over.closed
        service.queue.close()

    def test_stopping_daemon_does_not_park(self, tmp_path):
        service = _service(tmp_path)
        _accept(service, "j1")
        service._stop_requested = "SIGTERM"
        assert _long_poll(service, "j1").response()["status"] == "pending"
        service.queue.close()

    def test_elapsed_wait_answers_pending(self, tmp_path):
        service = _service(tmp_path)
        _accept(service, "j1")
        short = _long_poll(service, "j1", wait=0.5)
        capped = _long_poll(service, "j1", wait=60.0)  # at most 5 s
        service._expire_parked(monotonic())
        assert not short.sent and not capped.sent
        service._expire_parked(monotonic() + 1.0)
        assert short.response()["status"] == "pending" and short.closed
        assert not capped.sent
        service._expire_parked(monotonic() + 10.0)
        assert capped.response()["status"] == "pending"
        assert service._parked == []
        service.queue.close()

    def test_vanished_parked_peer_costs_one_conn_error(self, tmp_path,
                                                       monkeypatch):
        service = _service(tmp_path)
        job = _accept(service, "j1")
        conn = _long_poll(service, "j1")
        conn.broken = True
        events = []

        class Tracer:
            def event(self, name, **attrs):
                events.append(name)

        monkeypatch.setattr("repro.serve.service.get_tracer", Tracer)
        service._settle_outcome(job, _canonical({"ok": 1}))
        assert events == ["serve.conn_error"]
        assert conn.closed
        assert service.queue.outcome("j1")["status"] == "done"
        service.queue.close()


# ----------------------------------------------------------------------
# End to end: a two-worker daemon as a child process
# ----------------------------------------------------------------------
class _CountingClient(ServeClient):
    """Counts ``result`` round trips, long-poll or not."""

    result_trips = 0

    def request(self, obj):
        if obj.get("verb") == "result":
            self.result_trips += 1
        return super().request(obj)


def _in_thread(fn, *args):
    """Run ``fn(*args)`` in a thread; returns (thread, outcome dict)."""
    outcome = {}

    def run():
        try:
            outcome["value"] = fn(*args)
        except Exception as exc:  # recorded for the caller to assert on
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


@pytest.fixture
def daemon(tmp_path):
    """Start a two-worker child daemon (extra CLI args allowed); every
    daemon started is reaped at teardown, even after a failed assert."""
    started = []

    def start(*extra):
        process, client = _start_daemon(tmp_path, "--workers", "2", *extra)
        started.append((process, client))
        return process, client

    yield start
    for process, client in started:
        if process.poll() is None:
            _stop_and_reap(process, client)


class TestLongPollEndToEnd:
    def test_wait_needs_no_poll_quantum(self, daemon):
        process, client = daemon()
        counting = _CountingClient(client.socket_path, client_id="count")
        job_id = counting.submit("sleep", {"seconds": 0.5})
        assert counting.wait(job_id, timeout=30.0)["status"] == "done"
        # One plain ask, one long-poll; a 0.05 s poll loop makes ~10.
        assert counting.result_trips <= 2
        assert _stop_and_reap(process, client) == 0

    def test_parked_client_gets_a_failed_settlement(self, daemon):
        process, client = daemon()
        job_id = client.submit("fail", {"message": "poison"})
        settled = client.wait(job_id, timeout=30.0)
        assert settled["status"] == "failed"
        assert "poison" in settled["message"]
        assert _stop_and_reap(process, client) == 0

    def test_parked_client_gets_the_redispatched_settlement(self, daemon):
        process, client = daemon()
        job_id = client.submit("sleep", {"seconds": 1.0}, job_id="kill-1")
        thread, outcome = _in_thread(client.wait, job_id, 60.0)
        deadline = monotonic() + 30.0
        busy = []
        while not busy and monotonic() < deadline:
            busy = [worker["pid"]
                    for worker in client.health()["workers"].get("workers", ())
                    if worker["in_flight"] == "serve/sleep/kill-1"]
            threading.Event().wait(0.01)
        assert busy, "the job never reached a worker"
        threading.Event().wait(0.2)  # let the waiter park
        os.kill(busy[0], signal.SIGKILL)
        thread.join(timeout=60.0)
        assert outcome.get("value") == {"status": "done", "job_id": "kill-1",
                                        "result": {"slept": 1.0}}
        assert client.health()["workers"]["deaths"] >= 1
        assert _stop_and_reap(process, client) == 0

    def test_wait_times_out_on_time(self, daemon):
        process, client = daemon()
        job_id = client.submit("sleep", {"seconds": 3.0})
        started = monotonic()
        with pytest.raises(TimeoutError):
            client.wait(job_id, timeout=0.3)
        assert monotonic() - started < 1.0
        assert _stop_and_reap(process, client) == 0

    def test_client_closing_a_parked_socket_costs_one_conn_error(
            self, daemon, tmp_path):
        trace = tmp_path / "trace.jsonl"
        process, client = daemon("--trace-out", str(trace))
        job_id = client.submit("sleep", {"seconds": 1.0})
        impatient = ServeClient(client.socket_path, client_id="gone",
                                timeout=0.2)
        with pytest.raises(OSError):
            impatient.request({"verb": "result", "job_id": job_id,
                               "wait": 5.0})
        assert client.wait(job_id, timeout=30.0)["status"] == "done"
        assert client.alive()
        assert _stop_and_reap(process, client) == 0
        errors = [record for record in load_trace(trace)
                  if record.get("name") == "serve.conn_error"]
        assert len(errors) == 1

    def test_sigterm_answers_a_parked_client_and_exits_in_budget(
            self, daemon):
        process, client = daemon("--drain-seconds", "1")
        job_id = client.submit("sleep", {"seconds": 6.0})
        thread, outcome = _in_thread(
            client.request, {"verb": "result", "job_id": job_id, "wait": 5.0}
        )
        threading.Event().wait(0.3)  # let the waiter park
        started = monotonic()
        os.kill(process.pid, signal.SIGTERM)
        thread.join(timeout=10.0)
        answered = monotonic() - started
        assert outcome.get("value", {}).get("status") == "pending"
        assert answered < 3.0  # the drain budget, not the 5 s wait
        assert process.wait(timeout=10.0) == 0
        assert monotonic() - started < 4.0  # not the 6 s job either
