"""Chaos suite for the serve daemon: real processes, real SIGKILLs.

Each test runs ``repro-serve`` (``python -m repro.serve``) as a child
process, crashes or overloads it, and asserts the journaled-queue
contract end to end:

* a daemon SIGKILLed mid-batch loses **nothing it acknowledged** — a
  restarted daemon replays the journal and settles every accepted job
  exactly once, with results byte-identical to a run that never
  crashed;
* an overloaded daemon sheds with structured ``retry_after`` responses
  and accepts **zero** jobs it then fails to finish or replay;
* a torn journal record (crash mid-append) is skipped on replay, not
  fatal.

Deselect locally with ``-m "not chaos"``.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import LoadShedded, ServeClient, job_seed, read_journal
from repro.telemetry import monotonic

pytestmark = pytest.mark.chaos

_ENV = {**os.environ, "PYTHONPATH": "src", "PYTHONUNBUFFERED": "1"}
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _start_daemon(tmp_path, *extra):
    """Launch repro-serve as a child; returns (process, client)."""
    socket_path = str(tmp_path / "repro.sock")
    journal_path = str(tmp_path / "journal.jsonl")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "start",
         "--socket", socket_path, "--journal", journal_path, *extra],
        cwd=_REPO, env=_ENV,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    # Generous per-request timeout: chaos tests share the machine with
    # the rest of the suite, and a loaded box must not flake a submit.
    client = ServeClient(socket_path, client_id="chaos", timeout=30.0)
    deadline = monotonic() + 30.0
    while not client.alive():
        if process.poll() is not None:
            raise AssertionError(
                "daemon exited before coming up:\n%s" % process.stdout.read()
            )
        if monotonic() > deadline:
            process.kill()
            raise AssertionError("daemon never answered status")
        time.sleep(0.05)
    return process, client


def _stop_and_reap(process, client, timeout=60.0):
    """Graceful stop; returns the daemon's exit code."""
    if client.alive():
        try:
            client.stop()
        except OSError:  # repro: noqa[RES002] the daemon may finish stopping between alive() and stop()
            pass
    try:
        process.wait(timeout=timeout)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
    return process.returncode


def _sigkill(process):
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=10.0)
    assert process.returncode == -signal.SIGKILL


def _submit_concurrently(client, jobs, submit=None):
    """Fire one submit per thread; returns [(job_id, outcome), ...].

    ``outcome`` is the ACKed job id or the raised exception.  Threads
    connect while the daemon is busy dispatching, so the whole batch
    lands on the listener backlog and is admitted in one accept pass —
    the shape that actually builds queue depth (a sequential client is
    ACK-throttled to one job per dispatch loop and never can).
    """
    submit = submit or client.submit
    outcomes = [None] * len(jobs)

    def one(index, kind, payload, job_id):
        try:
            outcomes[index] = (job_id, submit(kind, payload, job_id=job_id))
        except Exception as exc:  # recorded for the caller to assert on
            outcomes[index] = (job_id, exc)

    threads = [
        threading.Thread(target=one, args=(i, kind, payload, job_id))
        for i, (kind, payload, job_id) in enumerate(jobs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert all(outcome is not None for outcome in outcomes), \
        "a submit thread never finished"
    return outcomes


def _toy_matrix():
    """A small imbalanced dataset as JSON-safe nested lists (no RNG:
    results must be reproducible across the reference and chaos runs)."""
    x, y = [], []
    for label, count in ((0, 24), (1, 10), (2, 5)):
        for i in range(count):
            x.append([
                label * 5.0 + ((7 * i + 13 * d + label) % 19) / 19.0
                for d in range(4)
            ])
            y.append(label)
    return x, y


def _resample_jobs(n=5):
    x, y = _toy_matrix()
    return [
        ("resample",
         {"x": x, "y": y, "sampler": "eos", "k_neighbors": 3},
         "rs-%02d" % i)
        for i in range(n)
    ]


class TestKillAndReplay:
    def test_sigkill_mid_batch_then_replay_is_byte_identical(self, tmp_path):
        # Reference run: the same resample jobs against a daemon that
        # never crashes.  Handlers are pure in (payload,
        # job_seed(job_id)), so these settlements are the ground truth.
        ref_dir = tmp_path / "reference"
        ref_dir.mkdir()
        process, client = _start_daemon(ref_dir)
        reference = {}
        for kind, payload, job_id in _resample_jobs():
            client.submit(kind, payload, job_id=job_id)
            reference[job_id] = client.wait(job_id, timeout=30.0)
        assert all(r["status"] == "done" for r in reference.values())
        assert _stop_and_reap(process, client) == 0

        # Chaos run: occupy the daemon with a sleep job, land the real
        # jobs (plus a 2s sleep "gate") on the backlog so they are all
        # ACKed in one accept pass, then SIGKILL 0.2s later.  The gate
        # cannot have finished, so at least one acknowledged job is
        # guaranteed to die accepted-but-unsettled.
        chaos_dir = tmp_path / "chaos"
        chaos_dir.mkdir()
        process, client = _start_daemon(chaos_dir)
        client.submit("sleep", {"seconds": 1.0}, job_id="warmup-0")
        batch = [("sleep", {"seconds": 2.0}, "gate-0")] + _resample_jobs()
        acks = _submit_concurrently(client, batch)
        assert all(ack == job_id for job_id, ack in acks)
        time.sleep(0.2)
        _sigkill(process)

        stats = read_journal(chaos_dir / "journal.jsonl")
        accepted = [r["job_id"] for r in stats.records
                    if r["type"] == "accepted"]
        assert sorted(accepted) == sorted(
            ["warmup-0", "gate-0"] + [job_id for _, _, job_id in
                                      _resample_jobs()]
        )
        assert not stats.clean_stop

        # Successor on the same journal: every acknowledged job settles
        # exactly once, byte-identical to the crash-free run.
        process, client = _start_daemon(chaos_dir)
        status = client.status()
        assert status["replay"]["clean_stop"] is False
        assert status["replay"]["recovered"] >= 1  # the gate at minimum
        for kind, payload, job_id in _resample_jobs():
            assert client.wait(job_id, timeout=60.0) == reference[job_id]
        assert client.wait("warmup-0", timeout=60.0)["status"] == "done"
        assert client.wait("gate-0", timeout=60.0)["status"] == "done"
        assert client.status()["queue_depth"] == 0
        assert _stop_and_reap(process, client) == 0
        assert read_journal(chaos_dir / "journal.jsonl").clean_stop

    def test_replayed_settlements_are_not_reexecuted(self, tmp_path):
        process, client = _start_daemon(tmp_path)
        client.submit("echo", {"x": 1}, job_id="done-before-crash")
        first = client.wait("done-before-crash", timeout=30.0)
        assert first["result"]["seed"] == job_seed("done-before-crash")
        _sigkill(process)

        process, client = _start_daemon(tmp_path)
        # The settlement rode the journal: served verbatim, with zero
        # replayed (re-pending) jobs.
        assert client.result("done-before-crash") == first
        assert client.status()["replay"]["recovered"] == 0
        assert _stop_and_reap(process, client) == 0


class TestOverloadShedding:
    def test_sheds_with_retry_after_and_honors_every_ack(self, tmp_path):
        process, client = _start_daemon(
            tmp_path, "--max-depth", "2", "--drain-seconds", "60",
        )
        # Occupy the daemon, then land 12 slow submits on the backlog at
        # once: admission accepts until depth hits --max-depth and must
        # shed the rest with a structured retry_after.
        client.submit("sleep", {"seconds": 0.5}, job_id="occupy-0")
        outcomes = _submit_concurrently(client, [
            ("sleep", {"seconds": 0.2}, "load-%02d" % i) for i in range(12)
        ])
        acked = [job_id for job_id, out in outcomes if out == job_id]
        shed = [out for _, out in outcomes if isinstance(out, LoadShedded)]
        unexpected = [out for _, out in outcomes
                      if out not in acked and not isinstance(out, LoadShedded)]
        assert not unexpected
        assert shed, "overload never triggered shedding"
        assert len(acked) + len(shed) == 12
        assert all(s.reason == "queue_full" for s in shed)
        assert all(s.retry_after >= 0.05 for s in shed)

        # Zero accepted jobs go unhonored: every ACK settles, and the
        # journal promised exactly the ACKed set — no shed job left a
        # trace.
        for job_id in acked:
            assert client.wait(job_id, timeout=60.0)["status"] == "done"
        stats = read_journal(tmp_path / "journal.jsonl")
        journaled = {r["job_id"] for r in stats.records
                     if r["type"] == "accepted"}
        assert journaled == {"occupy-0"} | set(acked)
        assert _stop_and_reap(process, client) == 0

    def test_well_behaved_client_backs_off_and_gets_through(self, tmp_path):
        process, client = _start_daemon(
            tmp_path, "--max-depth", "1", "--drain-seconds", "60",
        )
        client.submit("sleep", {"seconds": 0.5}, job_id="occupy-0")
        outcomes = _submit_concurrently(
            client,
            [("sleep", {"seconds": 0.05}, "patient-%02d" % i)
             for i in range(4)],
            submit=lambda kind, payload, job_id: client.submit_with_retry(
                kind, payload, job_id=job_id, max_attempts=100
            ),
        )
        # Depth 1 forces most submits through the retry_after loop, and
        # every one of them eventually lands.
        assert all(out == job_id for job_id, out in outcomes)
        for job_id, _ in outcomes:
            assert client.wait(job_id, timeout=60.0)["status"] == "done"
        assert _stop_and_reap(process, client) == 0


class TestJournalChaos:
    def test_torn_settlement_record_replays_the_job(self, tmp_path):
        # Corrupt the first *done* append: the job completes in life 1
        # but its settlement record is torn mid-write, so life 2 must
        # re-execute it — deterministically, to the same result.
        chaos = json.dumps([
            {"point": "serve.journal", "action": "corrupt",
             "when": {"record": "done"}},
        ])
        process, client = _start_daemon(tmp_path, "--chaos", chaos)
        client.submit("echo", {"x": 1}, job_id="torn-1")
        first = client.wait("torn-1", timeout=30.0)
        assert first["result"]["seed"] == job_seed("torn-1")
        _sigkill(process)

        stats = read_journal(tmp_path / "journal.jsonl")
        assert stats.torn_tail  # the corrupt fault tore the done record
        assert [r["type"] for r in stats.records] == ["accepted"]

        process, client = _start_daemon(tmp_path)
        assert client.status()["replay"]["recovered"] == 1
        replayed = client.wait("torn-1", timeout=30.0)
        assert replayed["status"] == "done"
        assert replayed["result"] == first["result"]
        assert _stop_and_reap(process, client) == 0

    def test_ack_appended_after_torn_tail_survives_second_replay(
            self, tmp_path):
        # The append-after-torn-tail sequence: life 1 crashes mid-append
        # (torn tail), life 2 ACKs a new job whose fsynced acceptance is
        # the first append after the tear, life 2 is SIGKILLed, and life
        # 3 must still recover that ACKed job.  Without tail repair on
        # reopen, life 2's acceptance record fuses onto the partial line,
        # fails checksum on life 3's replay, and the promised job
        # silently vanishes.
        journal_path = tmp_path / "journal.jsonl"
        process, client = _start_daemon(tmp_path)
        client.submit("echo", {"x": 1}, job_id="pre-tear")
        assert client.wait("pre-tear", timeout=30.0)["status"] == "done"
        _sigkill(process)
        # Tear the tail the way a crash mid-append does: a partial
        # record with no trailing newline.
        with open(journal_path, "a", encoding="utf-8") as handle:  # repro: noqa[RES001,SRV002] deliberately tearing the journal tail: this test simulates the crash shape
            handle.write('{"sha256": "dead", "body": {"type": "acc')
        assert read_journal(journal_path).torn_tail

        process, client = _start_daemon(tmp_path)
        assert client.status()["replay"]["torn_tail"] is True
        assert client.submit(
            "sleep", {"seconds": 2.0}, job_id="acked-after-tear"
        ) == "acked-after-tear"
        _sigkill(process)

        process, client = _start_daemon(tmp_path)
        assert client.status()["replay"]["recovered"] >= 1
        assert client.wait(
            "acked-after-tear", timeout=60.0
        )["status"] == "done"
        assert client.result("pre-tear")["status"] == "done"
        assert _stop_and_reap(process, client) == 0

    def test_kill_fault_at_accept_means_no_promise(self, tmp_path):
        # A daemon killed between admission and the journal write dies
        # before ACKing: the client sees a dead connection, the journal
        # stays empty, and the successor has nothing to replay.
        chaos = json.dumps([
            {"point": "serve.accept", "action": "kill"},
        ])
        process, client = _start_daemon(tmp_path, "--chaos", chaos)
        from repro.serve import ServeError

        with pytest.raises((OSError, ServeError)):
            client.submit("echo", {"x": 1}, job_id="never-acked")
        process.wait(timeout=10.0)
        assert process.returncode != 0

        assert read_journal(tmp_path / "journal.jsonl").records == []
        process, client = _start_daemon(tmp_path)
        assert client.status()["replay"]["recovered"] == 0
        assert client.result("never-acked")["status"] == "not_found"
        assert _stop_and_reap(process, client) == 0


class TestCompactionChaos:
    """SIGKILL inside a journal compaction, at every phase boundary.

    The contract: a crash at *any* point of :meth:`Journal.compact`
    recovers to the same logical state as the uncompacted journal —
    same outcomes, same pending set, byte-identical results.
    """

    @pytest.mark.parametrize("phase", ["begin", "written", "switched",
                                       "unlink"])
    def test_kill_mid_compaction_replays_byte_identical(self, tmp_path,
                                                        phase):
        from repro.serve import default_router

        jobs = [("echo", {"n": i}, "e%d" % i) for i in range(5)]
        expected = {
            job_id: default_router().dispatch(
                {"job_id": job_id, "kind": kind, "payload": payload}
            )
            for kind, payload, job_id in jobs
        }
        chaos = json.dumps([
            {"point": "serve.compact", "action": "kill",
             "when": {"phase": phase}},
        ])
        process, client = _start_daemon(
            tmp_path, "--compact-every", "3", "--chaos", chaos,
        )
        for kind, payload, job_id in jobs:
            try:
                client.submit(kind, payload, job_id=job_id)
            except OSError:
                break  # the daemon died at the fault point mid-batch
        # The third settlement triggers compaction, which dies at
        # ``phase``; everything journaled up to that instant survives.
        process.wait(timeout=60.0)
        assert process.returncode != 0

        stats = read_journal(tmp_path / "journal.jsonl")
        assert not stats.clean_stop

        process, client = _start_daemon(tmp_path)
        for kind, payload, job_id in jobs:
            try:
                client.submit(kind, payload, job_id=job_id)
            except Exception:  # repro: noqa[RES002] duplicate of a settled job answers ok; re-submit shapes vary by crash point
                pass
            settled = client.wait(job_id, timeout=60.0)
            assert settled["status"] == "done"
            assert settled["result"] == expected[job_id]
        assert client.status()["queue_depth"] == 0
        assert _stop_and_reap(process, client) == 0


class TestBoundedJournal:
    def test_compact_every_keeps_journal_bounded_and_replay_exact(
            self, tmp_path):
        # 5×N settlements with --compact-every N: the surviving journal
        # is one checkpoint segment, replay serves every settled result
        # without re-executing a single job.
        process, client = _start_daemon(tmp_path, "--compact-every", "4")
        job_ids = []
        for i in range(20):
            job_id = "b%02d" % i
            client.submit("echo", {"n": i}, job_id=job_id)
            job_ids.append(job_id)
        first_life = {}
        for job_id in job_ids:
            first_life[job_id] = client.wait(job_id, timeout=60.0)
        deadline = monotonic() + 30.0
        while monotonic() < deadline:
            status = client.status()
            if status["counters"]["compactions"] >= 5:
                break
            time.sleep(0.05)
        assert status["counters"]["compactions"] >= 5
        assert status["journal_stats"]["segments"] == 1
        _sigkill(process)

        stats = read_journal(tmp_path / "journal.jsonl")
        # Bounded: O(pending + checkpoint).  All 20 settled and the last
        # compaction folded them, so exactly one checkpoint record (plus
        # any settlement that landed after it) — not 40+ history lines.
        assert stats.segments == 1
        assert len(stats.records) <= 1 + (20 % 4) + 1
        assert stats.records[0]["type"] == "checkpoint"

        process, client = _start_daemon(tmp_path)
        status = client.status()
        assert status["replay"]["recovered"] == 0
        for job_id in job_ids:
            assert client.result(job_id) == first_life[job_id]
        # Served from the checkpoint: the successor executed nothing.
        assert client.status()["counters"]["completed"] == 0
        assert _stop_and_reap(process, client) == 0


class TestPersistentWorkerChaos:
    def test_worker_sigkill_mid_job_matches_serial_reference(self, tmp_path):
        # Reference: the same jobs through a serial (workers=1,
        # fork-per-job) daemon that never crashes.
        ref_dir = tmp_path / "reference"
        ref_dir.mkdir()
        process, client = _start_daemon(ref_dir)
        reference = {}
        for kind, payload, job_id in _resample_jobs():
            client.submit(kind, payload, job_id=job_id)
            reference[job_id] = client.wait(job_id, timeout=60.0)
        assert all(r["status"] == "done" for r in reference.values())
        assert _stop_and_reap(process, client) == 0

        # Chaos: a persistent 4-worker daemon whose worker is killed on
        # rs-00's FIRST dispatch.  The supervisor must respawn it and
        # re-dispatch under the same job_seed — byte-identical results.
        chaos_dir = tmp_path / "chaos"
        chaos_dir.mkdir()
        chaos = json.dumps([
            {"point": "worker.task", "action": "kill",
             "when": {"task": "serve/resample/rs-00", "dispatch": 0}},
        ])
        process, client = _start_daemon(
            chaos_dir, "--workers", "4", "--chaos", chaos,
        )
        for kind, payload, job_id in _resample_jobs():
            client.submit(kind, payload, job_id=job_id)
        for kind, payload, job_id in _resample_jobs():
            assert client.wait(job_id, timeout=60.0) == reference[job_id]

        health = client.health()
        assert health["health"] == "ok"  # one death is not a streak
        workers = health["workers"]
        assert workers["deaths"] >= 1, "the injected kill never fired"
        assert workers["respawns"] >= 1
        assert len(workers["workers"]) == 4  # the set was replenished
        assert _stop_and_reap(process, client) == 0

    def test_hung_persistent_worker_is_killed_and_job_retried(self, tmp_path):
        # A worker hung mid-job (dispatch 0 only) is SIGKILLed by the
        # pool watchdog; the retry completes with the right seed.
        chaos = json.dumps([
            {"point": "worker.task", "action": "hang",
             "when": {"task": "serve/echo/stuck-1", "dispatch": 0},
             "seconds": 60.0},
        ])
        process, client = _start_daemon(
            tmp_path, "--workers", "2",
            "--task-deadline", "1.0", "--chaos", chaos,
        )
        client.submit("echo", {"x": 1}, job_id="stuck-1")
        client.submit("echo", {"x": 2}, job_id="fluid-1")
        # The unaffected job finishes immediately; the hung one only
        # after the watchdog kill + re-dispatch.
        assert client.wait("fluid-1", timeout=30.0)["status"] == "done"
        settled = client.wait("stuck-1", timeout=60.0)
        assert settled["status"] == "done"
        assert settled["result"]["seed"] == job_seed("stuck-1")
        assert client.health()["workers"]["deaths"] >= 1
        assert _stop_and_reap(process, client) == 0


class TestGracefulDrain:
    def test_sigterm_drains_and_writes_stop_marker(self, tmp_path):
        process, client = _start_daemon(
            tmp_path, "--drain-seconds", "60",
        )
        for i in range(3):
            client.submit("sleep", {"seconds": 0.05}, job_id="drain-%d" % i)
        os.kill(process.pid, signal.SIGTERM)
        assert process.wait(timeout=60.0) == 0

        stats = read_journal(tmp_path / "journal.jsonl")
        assert stats.clean_stop
        done = {r["job_id"] for r in stats.records if r["type"] == "done"}
        assert done == {"drain-0", "drain-1", "drain-2"}
        assert not os.path.exists(tmp_path / "repro.sock")
