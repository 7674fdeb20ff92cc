"""Tests for repro.serve: protocol framing, the write-ahead journal,
queue recovery, admission control, routing determinism, and the daemon
itself (both handler-level and end-to-end over a real Unix socket)."""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.resilience import FaultPlan, SimulatedKill, inject_faults
from repro.serve import (
    AdmissionController,
    JobQueue,
    Journal,
    LoadShedded,
    ProtocolError,
    ReproService,
    Router,
    ServeClient,
    ServeError,
    default_router,
    job_seed,
    read_journal,
    read_message,
    recover,
    retry_jitter,
    segment_paths,
    write_message,
)
from repro.serve.journal import _canonical, _digest
from repro.telemetry import monotonic


# ----------------------------------------------------------------------
# Protocol framing (no real sockets needed: a buffer with the API)
# ----------------------------------------------------------------------
class FakeSock:
    """In-memory stand-in exposing the recv/sendall surface the framing
    helpers use."""

    def __init__(self, data=b""):
        self.buffer = bytearray(data)
        self.sent = bytearray()

    def recv(self, size):
        chunk = bytes(self.buffer[:size])
        del self.buffer[:size]
        return chunk

    def sendall(self, data):
        self.sent.extend(data)


class TestProtocol:
    def test_roundtrip(self):
        sock = FakeSock()
        write_message(sock, {"verb": "status", "n": 3})
        echo = FakeSock(bytes(sock.sent))
        assert read_message(echo) == {"verb": "status", "n": 3}

    def test_clean_eof_returns_none(self):
        assert read_message(FakeSock(b"")) is None

    def test_torn_header_raises(self):
        sock = FakeSock()
        write_message(sock, {"x": 1})
        with pytest.raises(ProtocolError):
            read_message(FakeSock(bytes(sock.sent[:2])))

    def test_torn_payload_raises(self):
        sock = FakeSock()
        write_message(sock, {"x": "hello world"})
        with pytest.raises(ProtocolError):
            read_message(FakeSock(bytes(sock.sent[:-3])))

    def test_undecodable_payload_raises(self):
        import struct

        payload = b"not json at all"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(ProtocolError):
            read_message(FakeSock(frame))

    def test_oversized_length_prefix_rejected(self):
        import struct

        with pytest.raises(ProtocolError):
            read_message(FakeSock(struct.pack(">I", (64 << 20) + 1)))

    def test_settlement_statuses_are_part_of_the_contract(self):
        # client.wait settles on "done"/"failed" from the result verb;
        # the wire contract must list them.
        from repro.serve.protocol import STATUSES

        for status in ("ok", "retry_after", "pending", "done", "failed",
                       "not_found", "error"):
            assert status in STATUSES


# ----------------------------------------------------------------------
# Write-ahead journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_append_and_replay_roundtrip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("accepted", fsync=True, job_id="j1", kind="echo")
            journal.append("done", job_id="j1", result={"ok": 1})
            journal.append("stop", fsync=True)
        stats = read_journal(path)
        assert [r["type"] for r in stats.records] == [
            "accepted", "done", "stop",
        ]
        assert stats.clean_stop and not stats.torn_tail
        assert stats.corrupt == 0

    def test_missing_file_replays_empty(self, tmp_path):
        stats = read_journal(tmp_path / "absent.jsonl")
        assert stats.records == [] and not stats.clean_stop

    def test_torn_tail_is_skipped_silently(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("accepted", fsync=True, job_id="j1", kind="echo")
        torn = path.read_text() + '{"sha256": "feed", "body": {"type": "acc'
        path.write_text(torn)
        stats = read_journal(path)
        assert [r["job_id"] for r in stats.records] == ["j1"]
        assert stats.torn_tail
        assert stats.corrupt == 0  # a torn tail is normal, not damage

    def test_corrupt_middle_line_counted_but_rest_recovers(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("accepted", fsync=True, job_id="j1", kind="echo")
            journal.append("accepted", fsync=True, job_id="j2", kind="echo")
        lines = path.read_text().splitlines()
        lines[0] = lines[0][: len(lines[0]) // 2]  # bit-rot the first record
        path.write_text("\n".join(lines) + "\n")
        stats = read_journal(path)
        assert [r["job_id"] for r in stats.records] == ["j2"]
        assert stats.corrupt == 1 and not stats.torn_tail

    def test_checksum_mismatch_is_rejected(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        body = {"type": "accepted", "job_id": "evil"}
        path.write_text(
            json.dumps({"sha256": "0" * 64, "body": body}) + "\n"
        )
        stats = read_journal(path)
        assert stats.records == []

    def test_torn_tail_repaired_before_next_append(self, tmp_path):
        # A crash mid-append leaves a partial final line.  Reopening for
        # append must truncate it first: otherwise the recovered
        # daemon's next record — possibly a fsynced, ACKed acceptance —
        # fuses with the garbage and is lost on the *second* replay.
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("accepted", fsync=True, job_id="j1", kind="echo")
        with open(path, "a", encoding="utf-8") as handle:  # repro: noqa[RES001] deliberately tearing the journal tail: this test simulates the crash shape
            handle.write('{"sha256": "feed", "body": {"type": "acc')
        assert read_journal(path).torn_tail
        with Journal(path) as journal:
            journal.append("accepted", fsync=True, job_id="j2", kind="echo")
        stats = read_journal(path)
        assert [r["job_id"] for r in stats.records] == ["j1", "j2"]
        assert not stats.torn_tail
        assert stats.corrupt == 0

    def test_repair_of_torn_first_line_empties_the_file(self, tmp_path):
        # Torn tail with no newline anywhere: the whole file is the
        # partial record; repair truncates to empty, append starts fresh.
        path = tmp_path / "journal.jsonl"
        path.write_text('{"sha256": "feed", "body"')
        with Journal(path) as journal:
            journal.append("accepted", fsync=True, job_id="j1", kind="echo")
        stats = read_journal(path)
        assert [r["job_id"] for r in stats.records] == ["j1"]
        assert not stats.torn_tail

    def test_corrupt_fault_writes_torn_record(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        plan = FaultPlan()
        plan.inject("serve.journal", action="corrupt",
                    when={"record": "done"})
        with inject_faults(plan), Journal(path) as journal:
            journal.append("accepted", fsync=True, job_id="j1", kind="echo")
            journal.append("done", job_id="j1", result=1)
        stats = read_journal(path)
        assert [r["type"] for r in stats.records] == ["accepted"]
        assert stats.torn_tail

    def test_append_after_a_torn_append_starts_a_fresh_line(self, tmp_path):
        # A torn done append, then an ACKed acceptance in the same life:
        # the acceptance must not fuse with the torn bytes, or replay
        # reads the fused line as the torn tail and loses the job.
        path = tmp_path / "journal.jsonl"
        plan = FaultPlan()
        plan.inject("serve.journal", action="corrupt",
                    when={"record": "done"})
        queue = JobQueue(Journal(path))
        queue.accept(_job("j1"))
        with inject_faults(plan):
            queue.settle_done("j1", _canonical({"ok": 1}))
        assert not path.read_bytes().endswith(b"\n")
        queue.accept(_job("j2"))
        # The torn settlement left no line to locate: its text is kept.
        assert queue.outcome("j1") == {"status": "done", "result": {"ok": 1}}
        queue.close()
        stats = read_journal(path)
        assert [r["job_id"] for r in stats.records] == ["j1", "j2"]
        assert not stats.torn_tail and stats.corrupt == 0
        recovered, _ = recover(path)
        assert list(recovered.pending) == ["j1", "j2"]
        recovered.close()


# ----------------------------------------------------------------------
# Journal segments + compaction
# ----------------------------------------------------------------------
class TestJournalSegments:
    def test_single_file_is_one_segment(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("accepted", fsync=True, job_id="j1", kind="echo")
        assert segment_paths(path) == [str(path)]
        stats = read_journal(path)
        assert stats.segments == 1
        assert stats.bytes == os.path.getsize(path)

    def test_compact_replaces_segments_with_one_checkpoint(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.append("accepted", fsync=True, job_id="j1", kind="echo")
        journal.append("done", job_id="j1", result=1)
        before = os.path.getsize(path)
        journal.compact([
            {"type": "checkpoint", "seq": 1,
             "outcomes": {"j1": {"status": "done", "result": 1}},
             "accepted": {"j1": {"job_id": "j1", "kind": "echo"}}},
        ])
        segments = segment_paths(path)
        assert segments == [str(path) + ".00000001"]
        assert not os.path.exists(path)  # segment 0 unlinked
        stats = read_journal(path)
        assert [r["type"] for r in stats.records] == ["checkpoint"]
        assert stats.segments == 1 and stats.bytes < before * 2
        journal.close()

    def test_appends_after_compaction_land_in_new_segment(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.append("accepted", fsync=True, job_id="j1", kind="echo")
        journal.compact([{"type": "checkpoint", "seq": 1, "outcomes": {},
                          "accepted": {}},
                         {"type": "accepted", "job_id": "j1", "kind": "echo"}])
        journal.append("done", job_id="j1", result=1)
        journal.close()
        stats = read_journal(path)
        assert [r["type"] for r in stats.records] == [
            "checkpoint", "accepted", "done",
        ]

    def test_second_compaction_increments_the_segment_index(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = Journal(path)
        journal.append("accepted", fsync=True, job_id="j1", kind="echo")
        body = {"type": "checkpoint", "seq": 1, "outcomes": {},
                "accepted": {}}
        journal.compact([body])
        journal.compact([body])
        journal.close()
        assert segment_paths(path) == [str(path) + ".00000002"]
        # A reopened Journal appends to the highest segment, not base.
        with Journal(path) as reopened:
            reopened.append("accepted", fsync=True, job_id="j2", kind="echo")
        assert segment_paths(path) == [str(path) + ".00000002"]
        assert [r["type"] for r in read_journal(path).records] == [
            "checkpoint", "accepted",
        ]

    def test_bare_file_name_reopens_after_compaction(self, tmp_path,
                                                     monkeypatch):
        # A journal named without a directory: its numbered segments
        # must be named the way compaction names them, or reopening the
        # compacted journal cannot parse the segment index.
        monkeypatch.chdir(tmp_path)
        queue = JobQueue(Journal("journal.jsonl"))
        queue.accept(_job("j1"))
        queue.settle_done("j1", _canonical({"ok": 1}))
        queue.compact()
        queue.close()
        assert segment_paths("journal.jsonl") == ["journal.jsonl.00000001"]
        recovered, _ = recover("journal.jsonl")
        assert recovered.outcome("j1")["result"] == {"ok": 1}
        recovered.accept(_job("j2"))
        recovered.close()
        assert segment_paths("journal.jsonl") == ["journal.jsonl.00000001"]

    def test_stray_tmp_files_are_not_segments(self, tmp_path):
        # atomic_write temp files (journal.jsonl.XXXX.tmp) from a crash
        # mid-compaction must never be replayed as segments.
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("accepted", fsync=True, job_id="j1", kind="echo")
        (tmp_path / "journal.jsonl.abc123.tmp").write_text("garbage")
        (tmp_path / "journal.jsonl.orphan").write_text("garbage")
        assert segment_paths(path) == [str(path)]

    def test_checkpoint_supersedes_earlier_records_in_replay(self, tmp_path):
        # Crash-before-unlink shape: old segment 0 (with a stop marker)
        # still on disk next to the new checkpoint segment.  Replay must
        # reset at the checkpoint — including the clean_stop flag.
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("accepted", fsync=True, job_id="old", kind="echo")
            journal.append("stop", fsync=True)
        checkpoint = Journal(str(path) + ".00000001")
        checkpoint.append("checkpoint", seq=5, outcomes={}, accepted={})
        checkpoint.append("accepted", job_id="new", kind="echo")
        checkpoint.close()
        stats = read_journal(path)
        assert [r.get("job_id") for r in stats.records] == [None, "new"]
        assert not stats.clean_stop
        assert stats.segments == 2

    def test_compact_kill_fault_fires_at_each_phase(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        for phase in ("begin", "written", "switched", "unlink"):
            journal = Journal(path)
            plan = FaultPlan()
            plan.inject("serve.compact", action="kill",
                        when={"phase": phase})
            with inject_faults(plan):
                with pytest.raises(SimulatedKill):
                    journal.compact([{"type": "checkpoint", "seq": 1,
                                      "outcomes": {}, "accepted": {}}])
            try:
                journal.close()
            except OSError:  # repro: noqa[RES002] handle may already be mid-switch after the simulated kill
                pass
            # Whatever the crash left, replay still resolves a state.
            read_journal(path)


class TestQueueCompaction:
    def test_compaction_preserves_recovered_state(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(Journal(path))
        for i in range(6):
            queue.accept(_job("j%d" % i, payload={"n": i}))
        taken = queue.take(4)
        for job in taken[:3]:
            queue.settle_done(job["job_id"],
                              _canonical({"ok": job["job_id"]}))
        queue.settle_failed(taken[3]["job_id"], "boom", "err")
        reference = {job_id: queue.settlement(job_id)
                     for job_id in queue.outcomes}
        queue.compact()
        queue.accept(_job("j9"))
        queue.close()
        recovered, stats = recover(path)
        # Settlements read back byte-identical; the locators the live
        # queue moved to the new segment are the ones replay finds.
        assert {job_id: recovered.settlement(job_id)
                for job_id in recovered.outcomes} == reference
        assert recovered.outcomes == queue.outcomes
        # Live jobs — the untaken pending ones plus the new accept —
        # replay in acceptance order; settled ones never re-pend.
        assert list(recovered.pending) == ["j4", "j5", "j9"]
        assert stats.segments == 1
        recovered.close()

    def test_taken_jobs_survive_compaction_as_pending(self, tmp_path):
        # A job handed to the persistent pool but unsettled at compaction
        # time is still the daemon's promise: it must replay.
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(Journal(path))
        queue.accept(_job("j1"))
        queue.accept(_job("j2"))
        queue.take(1)  # j1 now in flight
        queue.compact()
        queue.close()
        recovered, _ = recover(path)
        assert list(recovered.pending) == ["j1", "j2"]
        recovered.close()

    def test_seq_and_specs_survive_compaction(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(Journal(path))
        queue.accept(_job("job-00000001", payload={"x": 1}))
        queue.settle_done("job-00000001", 1)
        queue.compact()
        queue.close()
        recovered, _ = recover(path)
        # Generated ids keep counting past the checkpoint, and the
        # fingerprint of a settled job still answers idempotent resubmits.
        assert recovered._seq == 1
        assert recovered.accepted["job-00000001"] == {
            "client": "t", "job_id": "job-00000001", "kind": "echo",
            "payload_sha256": _digest(_canonical({"x": 1})),
        }
        assert recovered.same_work("job-00000001", "echo", {"x": 1})
        assert not recovered.same_work("job-00000001", "echo", {"x": 2})
        recovered.close()

    def test_repeated_compaction_keeps_journal_bounded(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(Journal(path))
        sizes = []
        for round_index in range(5):
            for i in range(10):
                job_id = "r%d-j%d" % (round_index, i)
                queue.accept(_job(job_id))
                queue.settle_done(job_id, _canonical({"ok": job_id}))
            queue.compact()
            sizes.append(queue.journal.size_bytes())
        queue.close()
        # Growth is O(settled outcomes), not O(journal history): each
        # round's checkpoint replaces — not stacks on — the previous one.
        assert len(queue.journal.segments()) == 1
        assert sizes[-1] < sizes[0] * 6


# ----------------------------------------------------------------------
# Queue + recovery (exactly-once)
# ----------------------------------------------------------------------
def _job(job_id, kind="echo", payload=None):
    return {"job_id": job_id, "kind": kind, "client": "t",
            "payload": payload or {}}


class TestQueueRecovery:
    def test_accept_then_recover_is_pending_again(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(Journal(path))
        queue.accept(_job("j1"))
        queue.accept(_job("j2"))
        queue.close()  # crash: nothing settled
        recovered, stats = recover(path)
        assert list(recovered.pending) == ["j1", "j2"]
        assert recovered.outcomes == {}
        recovered.close()

    def test_settled_jobs_never_replay_as_pending(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(Journal(path))
        queue.accept(_job("j1"))
        queue.accept(_job("j2"))
        queue.settle_done("j1", _canonical({"answer": 42}))
        queue.settle_failed("j2", "RuntimeError", "boom")
        queue.close()
        recovered, _ = recover(path)
        assert recovered.pending == {}
        assert recovered.outcome("j1") == {
            "status": "done", "result": {"answer": 42},
        }
        assert recovered.outcome("j2")["reason"] == "RuntimeError"
        recovered.close()

    def test_done_line_verified_by_re_encoding_keeps_its_text(self,
                                                              tmp_path):
        # A done line whose bytes are not canonical (spaces after the
        # separators) verifies only once decoded and re-encoded, so it
        # cannot be located: its settlement is kept as text until a
        # compaction writes it out canonically.
        path = tmp_path / "journal.jsonl"
        with Journal(path) as journal:
            journal.append("accepted", fsync=True, job_id="j1", kind="echo",
                           client="t", payload={})
        body = {"type": "done", "job_id": "j1", "result": {"ok": [1, 2.5]}}
        with open(path, "a", encoding="utf-8") as handle:  # repro: noqa[RES001] writing a non-canonical journal line on purpose
            handle.write(json.dumps({"sha256": _digest(_canonical(body)),
                                     "body": body}) + "\n")
        recovered, stats = recover(path)
        assert stats.corrupt == 0 and not recovered.pending
        expected = '{"result":{"ok":[1,2.5]},"status":"done"}'
        assert recovered.outcomes["j1"] == expected
        assert recovered.settlement("j1") == expected
        recovered.compact()
        recovered.close()
        again, _ = recover(path)
        assert not isinstance(again.outcomes["j1"], str)
        assert again.settlement("j1") == expected
        again.close()

    def test_duplicate_job_id_rejected(self, tmp_path):
        queue = JobQueue(Journal(tmp_path / "journal.jsonl"))
        queue.accept(_job("j1"))
        with pytest.raises(ValueError):
            queue.accept(_job("j1"))
        queue.settle_done("j1", 1)
        with pytest.raises(ValueError):
            queue.accept(_job("j1"))
        queue.close()

    def test_taken_job_still_counts_as_accepted_for_duplicates(self, tmp_path):
        queue = JobQueue(Journal(tmp_path / "journal.jsonl"))
        queue.accept(_job("j1"))
        queue.take(1)  # in a dispatch batch: neither pending nor settled
        with pytest.raises(ValueError):
            queue.accept(_job("j1"))
        queue.close()

    def test_accepted_specs_survive_recovery(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(Journal(path))
        queue.accept(_job("j1", payload={"x": 1}))
        queue.accept(_job("j2"))
        queue.settle_done("j2", 1)
        queue.close()
        recovered, _ = recover(path)
        # Both the pending and the settled job keep their fingerprints,
        # so a lost-ACK retry can be recognized across a restart.
        assert recovered.accepted["j1"]["payload_sha256"] == _digest(
            _canonical({"x": 1}))
        assert recovered.same_work("j1", "echo", {"x": 1})
        assert recovered.same_work("j2", "echo", {})
        recovered.close()

    def test_take_preserves_acceptance_order(self, tmp_path):
        queue = JobQueue(Journal(tmp_path / "journal.jsonl"))
        for name in ("a", "b", "c"):
            queue.accept(_job(name))
        batch = queue.take(2)
        assert [j["job_id"] for j in batch] == ["a", "b"]
        queue.close()

    def test_seq_survives_recovery_for_unique_generated_ids(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(Journal(path))
        queue.accept(_job("job-00000001"))
        queue.close()
        recovered, _ = recover(path)
        assert recovered._seq == 1  # the next generated id is job-00000002
        recovered.close()

    def test_clean_stop_marker_recovered(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        queue = JobQueue(Journal(path))
        queue.accept(_job("j1"))
        queue.settle_done("j1", 1)
        queue.mark_stop()
        queue.close()
        _, stats = recover(path)
        assert stats.clean_stop


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
class TestAdmission:
    def test_accepts_under_capacity(self):
        controller = AdmissionController(max_depth=4)
        assert controller.admit("c", depth=3) is None

    def test_sheds_at_depth_with_structured_retry(self):
        controller = AdmissionController(max_depth=2)
        shed = controller.admit("c", depth=2)
        assert shed is not None and shed.reason == "queue_full"
        assert shed.retry_after >= 0.05

    def test_retry_after_tracks_observed_service_time(self):
        controller = AdmissionController(max_depth=1)
        for _ in range(4):
            controller.observe_service(2.0)
        shed = controller.admit("c", depth=3)
        # 3 over capacity by 3 - 1 + 1 = 3 jobs at ~2s each.
        assert shed.retry_after == pytest.approx(6.0)

    def test_per_client_cap(self):
        controller = AdmissionController(max_depth=64, per_client_limit=1)
        assert controller.admit("a", depth=0) is None
        controller.register("a")
        shed = controller.admit("a", depth=1)
        assert shed is not None and shed.reason == "client_limit"
        assert controller.admit("b", depth=1) is None  # other clients fine
        controller.release("a")
        assert controller.admit("a", depth=1) is None

    def test_stopping_sheds_everything(self):
        controller = AdmissionController(max_depth=64)
        shed = controller.admit("c", depth=0, stopping=True)
        assert shed is not None and shed.reason == "stopping"

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(max_depth=0)
        with pytest.raises(ValueError):
            AdmissionController(per_client_limit=0)


# ----------------------------------------------------------------------
# Router determinism
# ----------------------------------------------------------------------
class TestRouter:
    def test_job_seed_is_stable_and_id_dependent(self):
        assert job_seed("j1") == job_seed("j1")
        assert job_seed("j1") != job_seed("j2")

    def test_echo_carries_seed(self):
        result = default_router().dispatch(_job("j1", payload={"k": 1}))
        assert result == {"echo": {"k": 1}, "seed": job_seed("j1")}

    def test_unknown_kind_is_lookup_error(self):
        with pytest.raises(LookupError):
            default_router().dispatch(_job("j1", kind="nope"))

    def test_fail_handler_raises(self):
        with pytest.raises(RuntimeError, match="boom"):
            default_router().dispatch(
                _job("j1", kind="fail", payload={"message": "boom"})
            )

    def test_resample_is_deterministic_in_job_id(self, blob_data):
        x, y = blob_data
        payload = {"x": x.tolist(), "y": y.tolist(), "sampler": "eos"}
        router = default_router()
        first = router.dispatch(_job("jA", kind="resample", payload=payload))
        again = router.dispatch(_job("jA", kind="resample", payload=payload))
        other = router.dispatch(_job("jB", kind="resample", payload=payload))
        assert first == again  # same id -> byte-identical replay
        assert first["n_synthetic"] > 0
        counts = first["class_counts"]
        assert counts[0] == counts[1] == counts[2]  # balanced output
        assert other["y"] == first["y"]  # same plan, different draws
        assert other["x"] != first["x"]


# ----------------------------------------------------------------------
# Service: handler-level (no socket, no loop)
# ----------------------------------------------------------------------
def _service(tmp_path, **kwargs):
    return ReproService(
        tmp_path / "repro.sock", tmp_path / "journal.jsonl", **kwargs
    )


class TestServiceHandlers:
    def test_submit_accepts_and_journals(self, tmp_path):
        service = _service(tmp_path)
        response = service._handle_submit(
            {"kind": "echo", "client": "a", "payload": {"x": 1}}
        )
        assert response["status"] == "ok"
        job_id = response["job_id"]
        stats = read_journal(service.journal_path)
        assert [r["type"] for r in stats.records] == ["accepted"]
        assert stats.records[0]["job_id"] == job_id
        service.queue.close()

    def test_submit_sheds_at_depth_before_journaling(self, tmp_path):
        service = _service(tmp_path, max_depth=1)
        assert service._handle_submit(
            {"kind": "echo", "client": "a"}
        )["status"] == "ok"
        shed = service._handle_submit({"kind": "echo", "client": "a"})
        assert shed["status"] == "retry_after"
        assert shed["reason"] == "queue_full"
        # The shed job was never promised: exactly one journal record.
        assert len(read_journal(service.journal_path).records) == 1
        service.queue.close()

    def test_unknown_kind_rejected_without_journaling(self, tmp_path):
        service = _service(tmp_path)
        response = service._handle_submit({"kind": "nope", "client": "a"})
        assert response["status"] == "error"
        assert read_journal(service.journal_path).records == []
        service.queue.close()

    def test_dispatch_settles_done_and_failed(self, tmp_path):
        service = _service(tmp_path)
        ok = service._handle_submit({"kind": "echo", "client": "a"})
        bad = service._handle_submit(
            {"kind": "fail", "client": "a", "payload": {"message": "kaput"}}
        )
        assert service._dispatch_some() == 2
        done = service.queue.outcome(ok["job_id"])
        failed = service.queue.outcome(bad["job_id"])
        assert done["status"] == "done"
        assert done["result"]["seed"] == job_seed(ok["job_id"])
        assert failed["status"] == "failed"
        assert failed["reason"] == "RuntimeError"
        assert service.counters["completed"] == 1
        assert service.counters["failed"] == 1
        service.queue.close()

    def test_breaker_opens_and_short_circuits_job_family(self, tmp_path):
        service = _service(tmp_path, breaker_threshold=2)
        for _ in range(2):
            service._handle_submit(
                {"kind": "fail", "client": "a",
                 "payload": {"message": "same failure"}}
            )
            service._dispatch_some()
        assert service.breaker.open_breakers()
        response = service._handle_submit(
            {"kind": "fail", "client": "a",
             "payload": {"message": "same failure"}}
        )
        service._dispatch_some()
        outcome = service.queue.outcome(response["job_id"])
        assert outcome["status"] == "failed"
        assert outcome["reason"].startswith("circuit_open:")
        # Other kinds are unaffected by the fail family's breaker.
        ok = service._handle_submit({"kind": "echo", "client": "a"})
        service._dispatch_some()
        assert service.queue.outcome(ok["job_id"])["status"] == "done"
        service.queue.close()

    def test_resubmit_of_held_job_id_is_idempotent(self, tmp_path):
        # The lost-ACK shape: the daemon journaled + holds the job, the
        # client never saw the response and retries the same id.
        service = _service(tmp_path)
        first = service._handle_submit(
            {"kind": "echo", "client": "a", "payload": {"x": 1},
             "job_id": "j-ack"}
        )
        assert first["status"] == "ok"
        retry = service._handle_submit(
            {"kind": "echo", "client": "a", "payload": {"x": 1},
             "job_id": "j-ack"}
        )
        assert retry["status"] == "ok"
        assert retry["job_id"] == "j-ack"
        assert retry["duplicate"] is True
        # Still idempotent after settlement.
        service._dispatch_some()
        settled = service._handle_submit(
            {"kind": "echo", "client": "a", "payload": {"x": 1},
             "job_id": "j-ack"}
        )
        assert settled["status"] == "ok"
        # Exactly one acceptance was ever journaled or counted.
        accepted = [r for r in read_journal(service.journal_path).records
                    if r["type"] == "accepted"]
        assert len(accepted) == 1
        assert service.counters["accepted"] == 1
        assert service.admission.in_flight == {}
        # A reused id with different work is a genuine conflict.
        conflict = service._handle_submit(
            {"kind": "echo", "client": "a", "payload": {"x": 2},
             "job_id": "j-ack"}
        )
        assert conflict["status"] == "error"
        assert "different kind/payload" in conflict["message"]
        service.queue.close()

    def test_anonymous_ids_skip_a_claimed_generated_name(self, tmp_path):
        # A client's own id may be the name the next anonymous job would
        # generate; anonymous submits must keep working, and must keep
        # working after a restart restores the sequence number.
        service = _service(tmp_path)
        claimed = service._handle_submit(
            {"kind": "echo", "client": "a", "job_id": "job-00000002"}
        )
        assert claimed["status"] == "ok"
        seen = {"job-00000002"}
        for restart in (False, True):
            if restart:
                service.queue.close()
                service = _service(tmp_path)
            for _ in range(2):
                response = service._handle_submit(
                    {"kind": "echo", "client": "a"}
                )
                assert response["status"] == "ok", response
                assert response["job_id"] not in seen
                seen.add(response["job_id"])
        service.queue.close()

    def test_peer_reset_and_broken_pipe_do_not_crash(self, tmp_path):
        # A client that resets the connection or closes before reading
        # the response (routine when it times out during a slow batch)
        # must end the connection, not the daemon.
        service = _service(tmp_path)

        class ResetConn:
            def settimeout(self, timeout):
                pass

            def recv(self, size):
                raise ConnectionResetError(104, "connection reset by peer")

            def sendall(self, data):
                raise BrokenPipeError(32, "broken pipe")

            def close(self):
                pass

        service._serve_one_connection(ResetConn())  # must not raise

        class ImpatientConn(FakeSock):
            """Sends a full request, closes before reading the answer."""

            def settimeout(self, timeout):
                pass

            def sendall(self, data):
                raise BrokenPipeError(32, "broken pipe")

            def close(self):
                pass

        request = FakeSock()
        write_message(request, {"verb": "status"})
        service._serve_one_connection(ImpatientConn(bytes(request.sent)))
        service.queue.close()

    def test_status_snapshot_shape(self, tmp_path):
        service = _service(tmp_path)
        payload = service.status()
        assert payload["status"] == "ok"
        assert payload["pid"] == os.getpid()
        assert payload["queue_depth"] == 0
        assert payload["replay"]["clean_stop"] is False
        assert "echo" in payload["kinds"]
        service.queue.close()

    def test_crash_then_recover_reexecutes_exactly_once(self, tmp_path):
        calls = []
        router = Router()
        router.register(
            "count", lambda payload, seed: calls.append(seed) or {"seed": seed}
        )
        first = _service(tmp_path, router=router)
        accepted = first._handle_submit(
            {"kind": "count", "client": "a", "job_id": "j-keep"}
        )
        settled = first._handle_submit(
            {"kind": "count", "client": "a", "job_id": "j-done"}
        )
        # Settle only j-keep... dispatch runs both; emulate a crash that
        # lands between the two settlements instead: settle j-done alone.
        first.queue.take(2)
        first.queue.settle_done("j-done",
                                _canonical({"seed": job_seed("j-done")}))
        first.queue.close()  # SIGKILL: j-keep accepted but unsettled

        second = _service(tmp_path, router=router)
        assert second.counters["replayed"] == 1
        assert list(second.queue.pending) == ["j-keep"]
        assert second._dispatch_some() == 1
        # j-keep ran exactly once (now); j-done was served from the
        # journal and never re-executed.
        assert calls == [job_seed("j-keep")]
        assert second.queue.outcome("j-done")["result"] == {
            "seed": job_seed("j-done")
        }
        assert second.queue.outcome("j-keep")["status"] == "done"
        assert accepted["status"] == settled["status"] == "ok"
        second.queue.close()

    def test_accept_kill_fault_leaves_no_promise(self, tmp_path):
        service = _service(tmp_path)
        plan = FaultPlan()
        plan.inject("serve.accept", action="kill")
        with inject_faults(plan):
            with pytest.raises(SimulatedKill):
                service._handle_submit({"kind": "echo", "client": "a"})
        # Crashed before the journal write: nothing was accepted.
        assert read_journal(service.journal_path).records == []
        service.queue.close()


# ----------------------------------------------------------------------
# Health, degraded mode, compaction and persistent dispatch (handler-level)
# ----------------------------------------------------------------------
def _drain_service(service, expected, rounds=2000):
    """Drive _dispatch_some until ``expected`` jobs settled (or fail)."""
    for _ in range(rounds):
        if len(service.queue.outcomes) >= expected:
            return
        service._dispatch_some()
    raise AssertionError(
        "only %d/%d jobs settled" % (len(service.queue.outcomes), expected)
    )


def _close_service(service):
    if service._pool is not None:
        service._pool.close()
        service._pool = None
    service.queue.close()


class TestServiceHealth:
    def test_health_snapshot_shape(self, tmp_path):
        service = _service(tmp_path)
        payload = service.health()
        assert payload["status"] == "ok"
        assert payload["health"] == "ok"
        assert payload["queue_depth"] == 0 and payload["in_flight"] == 0
        assert payload["death_streak"] == 0
        assert payload["workers"] == {"count": 1}
        journal = payload["journal"]
        assert set(journal) == {"segments", "bytes", "corrupt_lines",
                                "compactions"}
        assert journal["segments"] == 1
        service.queue.close()

    def test_health_verb_routed(self, tmp_path):
        service = _service(tmp_path)
        assert service._handle_request({"verb": "health"})["health"] == "ok"
        service.queue.close()

    def test_status_carries_journal_stats_and_health(self, tmp_path):
        service = _service(tmp_path)
        payload = service.status()
        assert payload["health"] == "ok"
        stats = payload["journal_stats"]
        assert stats["segments"] == 1 and stats["compactions"] == 0
        assert stats["bytes"] == os.path.getsize(service.journal_path)
        service.queue.close()

    def test_draining_health_state(self, tmp_path):
        service = _service(tmp_path)
        service._handle_request({"verb": "stop"})
        assert service.health()["health"] == "draining"
        service.queue.close()

    def test_degraded_mode_sheds_to_floor_and_defers_compaction(
            self, tmp_path):
        service = _service(tmp_path, max_depth=8, compact_every=1)
        service._degraded = True
        # Floor = max_depth // 4 = 2: the third submit sheds.
        for i in range(2):
            assert service._handle_submit(
                {"kind": "echo", "client": "a"}
            )["status"] == "ok"
        shed = service._handle_submit({"kind": "echo", "client": "a"})
        assert shed["status"] == "retry_after"
        assert shed["reason"] == "degraded"
        # Settle work: past compact_every, but compaction is deferred.
        service.queue.take(2)
        for job_id in list(service.queue.taken):
            service.queue.settle_done(job_id, 1)
            service._settled_since_compact += 1
        assert service._maybe_compact() is False
        service._degraded = False
        assert service._maybe_compact() is True
        assert service.counters["compactions"] == 1
        service.queue.close()

    def test_death_streak_flips_degraded_and_success_clears_it(
            self, tmp_path):
        service = _service(tmp_path, degraded_threshold=2)

        class FakePool:
            deaths = 2

        service._supervise(FakePool())
        assert service._degraded and service.health()["health"] == "degraded"
        # A completed job resets the streak; the next sweep exits.
        service._handle_submit({"kind": "echo", "client": "a"})
        job = service.queue.take(1)[0]
        service._settle_outcome(job, _canonical({"ok": 1}))
        service._supervise(FakePool())
        assert not service._degraded
        assert service.health()["health"] == "ok"
        service.queue.close()

    def test_auto_compaction_after_n_settlements(self, tmp_path):
        service = _service(tmp_path, compact_every=2)
        for _ in range(4):
            service._handle_submit({"kind": "echo", "client": "a"})
            service._dispatch_some()
            service._maybe_compact()
        assert service.counters["compactions"] == 2
        assert service.status()["journal_stats"]["segments"] == 1
        service.queue.close()


class TestServicePersistent:
    def test_persistent_dispatch_matches_fork_per_job(self, tmp_path):
        jobs = [("p-%d" % i, {"n": i}) for i in range(6)]
        outcomes = {}
        for mode, root in (("fork", tmp_path / "a"),
                           ("persistent", tmp_path / "b")):
            root.mkdir()
            service = _service(root, workers=2)
            for job_id, payload in jobs:
                service._handle_submit({"kind": "echo", "client": "a",
                                        "job_id": job_id,
                                        "payload": payload})
            _drain_service(service, len(jobs))
            outcomes[mode] = {
                job_id: service.queue.outcome(job_id) for job_id, _ in jobs
            }
            _close_service(service)
        # Byte-identical settlements: same seeds, same results.
        assert outcomes["fork"] == outcomes["persistent"]
        assert outcomes["fork"]["p-0"]["result"]["seed"] == job_seed("p-0")

    def test_persistent_breaker_short_circuits_without_dispatch(
            self, tmp_path):
        service = _service(tmp_path, workers=1,
                           breaker_threshold=1)
        service._handle_submit(
            {"kind": "fail", "client": "a", "payload": {"message": "x"}}
        )
        _drain_service(service, 1)
        assert service.breaker.open_breakers()
        second = service._handle_submit(
            {"kind": "fail", "client": "a", "payload": {"message": "x"}}
        )
        _drain_service(service, 2)
        outcome = service.queue.outcome(second["job_id"])
        assert outcome["reason"].startswith("circuit_open:")
        _close_service(service)

    def test_persistent_worker_stats_in_health(self, tmp_path):
        service = _service(tmp_path, workers=2)
        assert service.health()["workers"]["started"] is False
        service._handle_submit({"kind": "echo", "client": "a"})
        _drain_service(service, 1)
        workers = service.health()["workers"]
        assert workers["started"]
        assert len(workers["workers"]) == 2
        assert all(w["pid"] > 0 for w in workers["workers"])
        assert workers["deaths"] == 0
        _close_service(service)

    def test_pool_workers_serve_every_job_without_refork(self, tmp_path):
        service = _service(tmp_path, workers=2)
        for i in range(20):
            service._handle_submit({"kind": "echo", "client": "a",
                                    "job_id": "e-%02d" % i})
        _drain_service(service, 20)
        assert all(service.queue.outcome("e-%02d" % i)["status"] == "done"
                   for i in range(20))
        workers = service.health()["workers"]
        assert len({w["pid"] for w in workers["workers"]}) <= 2
        assert sum(w["jobs"] for w in workers["workers"]) == 20
        assert workers["deaths"] == 0
        _close_service(service)


# ----------------------------------------------------------------------
# Client backoff: full jitter, bounded, deterministic
# ----------------------------------------------------------------------
class _SheddingClient(ServeClient):
    """ServeClient whose submit always sheds with a fixed retry_after."""

    def __init__(self, retry_after=0.2, relent_after=None):
        super().__init__("/nonexistent.sock", client_id="jitter-test")
        self.attempts = 0
        self.retry_after = retry_after
        self.relent_after = relent_after

    def submit(self, kind, payload=None, job_id=None):
        self.attempts += 1
        if self.relent_after and self.attempts > self.relent_after:
            return "accepted-%d" % self.attempts
        raise LoadShedded({"status": "retry_after",
                           "retry_after": self.retry_after,
                           "reason": "queue_full"})


class TestSubmitWithRetry:
    def test_sleeps_are_full_jitter_bounded(self):
        client = _SheddingClient(retry_after=0.2)
        sleeps = []
        with pytest.raises(LoadShedded):
            client.submit_with_retry("echo", max_attempts=6, backoff_cap=1.0,
                                     sleep=sleeps.append)
        # One sleep per shed except the last (re-raise immediately).
        assert client.attempts == 6
        assert len(sleeps) == 5
        for attempt, slept in enumerate(sleeps):
            ceiling = min(1.0, 0.2 * (2.0 ** attempt))
            assert 0.0 <= slept <= ceiling
        # Exactly the documented schedule: ceiling × hash fraction.
        expected = [
            min(1.0, 0.2 * (2.0 ** k)) * retry_jitter(
                "jitter-test:echo::%d:%d" % (os.getpid(), k)
            )
            for k in range(5)
        ]
        assert sleeps == pytest.approx(expected)

    def test_jitter_is_deterministic_per_identity(self):
        first, second = [], []
        client = _SheddingClient()
        with pytest.raises(LoadShedded):
            client.submit_with_retry("echo", max_attempts=4,
                                     sleep=first.append)
        client = _SheddingClient()
        with pytest.raises(LoadShedded):
            client.submit_with_retry("echo", max_attempts=4,
                                     sleep=second.append)
        assert first == second  # same (client, kind, pid, attempt) tuple

    def test_jitter_differs_across_clients(self):
        # The de-synchronization property: two clients shed at the same
        # instant must not sleep the same schedule.
        fractions_a = [retry_jitter("a:echo::1:%d" % k) for k in range(4)]
        fractions_b = [retry_jitter("b:echo::1:%d" % k) for k in range(4)]
        assert fractions_a != fractions_b
        for fraction in fractions_a + fractions_b:
            assert 0.0 <= fraction < 1.0

    def test_success_after_sheds_returns_job_id(self):
        client = _SheddingClient(relent_after=2)
        sleeps = []
        job_id = client.submit_with_retry("echo", max_attempts=8,
                                          sleep=sleeps.append)
        assert job_id == "accepted-3"
        assert len(sleeps) == 2

    def test_retry_cap_re_raises_last_shed(self):
        client = _SheddingClient()
        with pytest.raises(LoadShedded) as excinfo:
            client.submit_with_retry("echo", max_attempts=3,
                                     sleep=lambda _s: None)
        assert excinfo.value.reason == "queue_full"
        assert client.attempts == 3


# ----------------------------------------------------------------------
# Service: end-to-end over a real Unix socket (daemon in a thread)
# ----------------------------------------------------------------------
@pytest.fixture
def running_service(tmp_path):
    service = _service(tmp_path, max_depth=8, drain_seconds=2.0)
    final = {}

    def run():
        final["status"] = service.serve_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    client = ServeClient(service.socket_path, client_id="test")
    deadline = 50
    while not client.alive() and deadline:
        deadline -= 1
        threading.Event().wait(0.05)
    assert deadline, "daemon never came up"
    yield service, client, final
    if client.alive():
        try:
            client.stop()
        except (OSError, ServeError):  # repro: noqa[RES002] teardown race: the daemon may finish stopping between alive() and stop()
            pass
    thread.join(timeout=10.0)
    assert not thread.is_alive(), "daemon thread failed to stop"


class TestServiceEndToEnd:
    def test_submit_wait_status_stop_cycle(self, running_service):
        service, client, final = running_service
        job_id = client.submit("echo", {"hello": "world"})
        settled = client.wait(job_id, timeout=10.0)
        assert settled["status"] == "done"
        assert settled["result"]["echo"] == {"hello": "world"}
        status = client.status()
        assert status["counters"]["completed"] >= 1
        response = client.stop()
        assert response["stopping"] is True
        # The daemon drains, journals the stop marker, unlinks the socket.
        for _ in range(100):
            if not os.path.exists(service.socket_path):
                break
            threading.Event().wait(0.05)
        assert not os.path.exists(service.socket_path)
        stats = read_journal(service.journal_path)
        assert stats.clean_stop
        assert final["status"]["stopping"] is True

    def test_fast_result_polling_does_not_starve_dispatch(
            self, running_service):
        # A client reconnecting well inside the daemon's accept poll
        # must not keep it accepting forever with the job undispatched.
        _, client, _ = running_service
        job_id = client.submit("echo", {"x": 1})
        deadline = monotonic() + 2.0
        response = client.result(job_id)
        while response["status"] == "pending" and monotonic() < deadline:
            threading.Event().wait(0.002)
            response = client.result(job_id)
        assert response["status"] == "done"

    def test_resubmitted_job_id_is_idempotent_over_the_wire(
            self, running_service):
        _, client, _ = running_service
        assert client.submit("echo", {"x": 1}, job_id="dup-1") == "dup-1"
        assert client.submit("echo", {"x": 1}, job_id="dup-1") == "dup-1"
        assert client.wait("dup-1", timeout=10.0)["status"] == "done"
        # Settled jobs answer resubmits too; conflicting reuse errors.
        assert client.submit("echo", {"x": 1}, job_id="dup-1") == "dup-1"
        with pytest.raises(ServeError, match="different kind/payload"):
            client.submit("echo", {"x": 2}, job_id="dup-1")

    def test_unknown_kind_surfaces_as_serve_error(self, running_service):
        _, client, _ = running_service
        with pytest.raises(ServeError, match="unknown job kind"):
            client.submit("nope")

    def test_cli_reports_a_daemon_error_like_its_other_errors(
            self, running_service, capsys):
        from repro.serve.__main__ import main

        service, _, _ = running_service
        code = main(["submit", "--socket", service.socket_path,
                     "--kind", "nope", "--no-backoff"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro-serve: error: unknown job kind")
        assert "Traceback" not in err

    def test_wait_on_unknown_job_raises(self, running_service):
        _, client, _ = running_service
        with pytest.raises(ServeError):
            client.wait("job-missing", timeout=1.0)

    def test_resample_over_the_wire_matches_local(self, running_service,
                                                  blob_data):
        _, client, _ = running_service
        x, y = blob_data
        payload = {"x": x.tolist(), "y": y.tolist(), "sampler": "eos"}
        job_id = client.submit("resample", payload, job_id="wire-1")
        settled = client.wait(job_id, timeout=30.0)
        assert settled["status"] == "done"
        local = default_router().dispatch(
            _job("wire-1", kind="resample", payload=payload)
        )
        assert settled["result"] == local
        counts = np.asarray(settled["result"]["class_counts"])
        assert (counts == counts[0]).all()

    def test_second_daemon_refuses_live_socket(self, running_service,
                                               tmp_path):
        service, _, _ = running_service
        from repro.serve import ServiceAlreadyRunning

        rival = ReproService(
            service.socket_path, tmp_path / "rival.jsonl"
        )
        with pytest.raises(ServiceAlreadyRunning):
            rival._claim_socket()
        rival.queue.close()


# ----------------------------------------------------------------------
# `repro-serve start` refuses a limit out of range before any work
# ----------------------------------------------------------------------
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class TestStartValidation:
    @pytest.mark.parametrize("flag, setting", [
        ("--max-depth", "max_depth"),
        ("--per-client-limit", "per_client_limit"),
        ("--breaker-threshold", "breaker threshold"),
        ("--task-deadline", "task_deadline"),
    ])
    def test_bad_limit_exits_2_before_the_journal_exists(
            self, flag, setting, tmp_path):
        journal = tmp_path / "serve" / "journal.jsonl"
        socket_path = tmp_path / "repro.sock"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.serve", "start",
             "--socket", str(socket_path), "--journal", str(journal),
             "--workers", "2", flag, "0"],
            cwd=_REPO, env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("repro-serve: error: %s" % setting)
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert not journal.exists()
        assert not socket_path.exists()
