"""Tests for the execution-substrate hardening layer (repro.guard).

Three pillars, each tested from unit level up to the real Table-II
sweep:

1. **Watchdog** — a hung worker is SIGKILLed at its task deadline and
   re-dispatched under the same derived seed, so a hung-then-killed
   sweep is bit-identical to one that never hung.
2. **Artifact integrity** — a corrupted phase-1 checkpoint is caught by
   digest verification on resume, quarantined with a structured reason,
   and transparently recomputed (or raised, under ``strict``).
3. **Circuit breaker** — N equivalent failures open a per-configuration
   breaker that settles the remaining matching cells as
   ``FAILED(circuit_open)`` without invoking their thunks.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.evals import MatrixSpec, run_matrix
from repro.experiments import ExtractorCache, bench_config
from repro.guard import (
    CircuitBreaker,
    IntegrityFailure,
    default_breaker_key,
    failure_signature,
    quarantine,
    report_phase,
    verify_artifact,
)
from repro.parallel import (
    Skip,
    TaskFailure,
    parallel_map,
    run_cells,
)
from repro.parallel.pool import _exit_status_of
from repro.resilience import (
    CellFailure,
    CheckpointCorruptError,
    FaultPlan,
    RetryPolicy,
    RunRegistry,
    SimulatedKill,
    inject_faults,
)
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    set_metrics,
    set_tracer,
)
from repro.telemetry.summarize import render_trace_report, summarize_trace
from repro.utils.serialization import _flip_bytes, save_arrays

MICRO = bench_config(phase1_epochs=2, finetune_epochs=2,
                     model_kwargs={"width": 4})
SAMPLERS = ("none", "smote", "eos")
KILL_CELL = "t2/cifar10_like/ce/eos"

#: Watchdog deadline for sweep-scale tests: ~30x a MICRO cell's wall
#: time, so a clean cell never trips it even on a loaded machine.
SWEEP_DEADLINE = 3.0


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Telemetry uninstalled around every test."""
    set_tracer(None)
    set_metrics(None)
    yield
    set_tracer(None)
    set_metrics(None)


def run_sweep(cache, registry=None, retry_policy=None, workers=None):
    return run_matrix(
        MatrixSpec("table2", config=MICRO, losses=("ce",),
                   samplers=SAMPLERS),
        cache=cache,
        registry=registry,
        retry_policy=retry_policy,
        workers=workers,
    )


@pytest.fixture(scope="module")
def reference():
    """The fault-free run every guard scenario is compared to."""
    return run_sweep(ExtractorCache())


# ----------------------------------------------------------------------
# Failure signatures and breaker keys
# ----------------------------------------------------------------------
class TestFailureSignature:
    def test_numbers_are_collapsed(self):
        assert (failure_signature("RuntimeError", "boom at epoch 3")
                == failure_signature("RuntimeError", "boom at epoch 7"))

    def test_type_distinguishes(self):
        assert (failure_signature("RuntimeError", "boom")
                != failure_signature("ValueError", "boom"))

    def test_empty_reason_is_just_the_type(self):
        assert failure_signature("DivergenceError") == "DivergenceError"

    def test_long_messages_truncate(self):
        sig = failure_signature("E", "x" * 500)
        assert len(sig) <= len("E: ") + 96

    def test_multiline_uses_first_line(self):
        assert (failure_signature("E", "first\nsecond")
                == failure_signature("E", "first"))


class TestDefaultBreakerKey:
    def test_dataset_segment_is_wildcarded(self):
        assert default_breaker_key("t2/cifar10_like/ce/smote") == "t2/*/ce/smote"
        assert (default_breaker_key("t2/mnist_like/ce/smote")
                == default_breaker_key("t2/cifar10_like/ce/smote"))

    def test_short_ids_are_their_own_key(self):
        assert default_breaker_key("warmup") == "warmup"
        assert default_breaker_key("a/b") == "a/b"


# ----------------------------------------------------------------------
# CircuitBreaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_on_nth_equivalent_failure(self):
        breaker = CircuitBreaker(threshold=3)
        assert breaker.record_failure("k", "E", "boom 1") is None
        assert breaker.record_failure("k", "E", "boom 2") is None
        opened = breaker.record_failure("k", "E", "boom 3")
        assert opened == failure_signature("E", "boom 3")
        assert breaker.is_open("k")
        assert breaker.open_signature("k") == opened

    def test_distinct_signatures_count_separately(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("k", "E", "boom")
        breaker.record_failure("k", "F", "other")
        assert not breaker.is_open("k")

    def test_distinct_keys_count_separately(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("a", "E", "boom")
        breaker.record_failure("b", "E", "boom")
        assert not breaker.is_open("a") and not breaker.is_open("b")

    def test_count_reports_a_whole_retry_budget_at_once(self):
        breaker = CircuitBreaker(threshold=3)
        assert breaker.record_failure("k", "E", "boom", count=3) is not None

    def test_recording_after_open_is_a_noop(self):
        breaker = CircuitBreaker(threshold=1)
        first = breaker.record_failure("k", "E", "boom")
        assert first is not None
        assert breaker.record_failure("k", "E", "boom") is None
        assert breaker.open_signature("k") == first

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)

    def test_open_event_and_counter_emitted(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        set_tracer(tracer)
        set_metrics(metrics)
        CircuitBreaker(threshold=1).record_failure("k", "E", "boom")
        events = [r for r in tracer.records if r.get("type") == "event"]
        assert any(e["name"] == "guard.breaker_opened" for e in events)
        assert metrics.counter("guard.breaker_open").value == 1

    def test_state_persists_through_registry_store(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        breaker = CircuitBreaker(threshold=1, store=registry)
        breaker.record_failure("t2/*/ce/eos", "E", "boom")

        revived = CircuitBreaker(
            threshold=1, store=RunRegistry(tmp_path / "run")
        )
        assert revived.is_open("t2/*/ce/eos")
        assert revived.open_breakers() == breaker.open_breakers()

        revived.reset()
        fresh = CircuitBreaker(
            threshold=1, store=RunRegistry(tmp_path / "run")
        )
        assert not fresh.is_open("t2/*/ce/eos")


# ----------------------------------------------------------------------
# Breaker woven into cell execution (serial and parallel)
# ----------------------------------------------------------------------
def _failing_tasks(n, calls, marker_dir=None):
    """(cell_id, thunk) pairs that log invocation and always fail.

    The cell ids share one breaker family (``t9/*/ce/x``): same loss and
    sampler, different datasets — the systematic-failure shape the
    breaker exists to catch.
    """
    tasks = []
    for i in range(n):
        cell_id = "t9/ds%d/ce/x" % i

        def thunk(_attempt, cell_id=cell_id):
            calls.append(cell_id)
            if marker_dir is not None:
                (marker_dir / ("ran_%s" % cell_id.split("/")[1])).touch()
            raise RuntimeError("systematic boom %s" % cell_id)

        tasks.append((cell_id, thunk))
    return tasks


class TestBreakerInRunCellsSerial:
    def test_remaining_cells_short_circuit_without_running(self):
        calls = []
        breaker = CircuitBreaker(threshold=3)
        results = run_cells(_failing_tasks(6, calls), breaker=breaker,
                            max_workers=1)

        assert calls == ["t9/ds0/ce/x", "t9/ds1/ce/x", "t9/ds2/ce/x"]
        assert breaker.is_open("t9/*/ce/x")
        for failure in results[:3]:
            assert isinstance(failure, CellFailure)
            assert failure.error_type == "RuntimeError"
        for failure in results[3:]:
            assert isinstance(failure, CellFailure)
            assert failure.error_type == "circuit_open"
            assert failure.attempts == 0
            assert failure.label().startswith("FAILED(circuit_open:")

    def test_short_circuits_are_recorded_failed_in_registry(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        run_cells(_failing_tasks(5, []), breaker=CircuitBreaker(threshold=2),
                  registry=registry, max_workers=1)
        statuses = registry.cell_statuses()
        assert len(statuses) == 5
        assert all(status == "failed" for status in statuses.values())
        payload = registry.manifest["cells"]["t9/ds4/ce/x"]["payload"]
        assert payload["error_type"] == "circuit_open"

    def test_retry_budget_counts_as_equivalent_failures(self):
        # One cell exhausting a 3-attempt retry budget reports count=3,
        # enough to trip a threshold-3 breaker on its own.
        calls = []
        breaker = CircuitBreaker(threshold=3)
        run_cells(_failing_tasks(2, calls), breaker=breaker,
                  retry_policy=RetryPolicy(max_retries=2,
                                           retry_on=(RuntimeError,)),
                  max_workers=1)
        assert breaker.is_open("t9/*/ce/x")
        assert calls.count("t9/ds0/ce/x") == 3  # initial + 2 retries
        assert calls.count("t9/ds1/ce/x") == 0  # short-circuited


class TestBreakerInRunCellsParallel:
    def test_skipped_cells_never_fork_a_worker(self, tmp_path):
        breaker = CircuitBreaker(threshold=2)
        results = run_cells(
            _failing_tasks(6, [], marker_dir=tmp_path),
            breaker=breaker,
            max_workers=2,
        )

        # Workers 0 and 1 fail; the second recorded failure opens the
        # breaker, so only task 2 (already launched) still runs — the
        # marker files prove tasks 3..5 never executed anywhere.
        ran = sorted(p.name for p in tmp_path.glob("ran_*"))
        assert ran == ["ran_ds0", "ran_ds1", "ran_ds2"]
        genuine = [r for r in results if r.error_type == "RuntimeError"]
        skipped = [r for r in results if r.error_type == "circuit_open"]
        assert len(genuine) == 3 and len(skipped) == 3
        assert results[3].error_type == "circuit_open"
        assert all(f.attempts == 0 for f in skipped)

    def test_parallel_short_circuits_match_serial_records(self, tmp_path):
        serial_reg = RunRegistry(tmp_path / "serial")
        run_cells(_failing_tasks(6, []), breaker=CircuitBreaker(threshold=2),
                  registry=serial_reg, max_workers=1)
        parallel_reg = RunRegistry(tmp_path / "parallel")
        run_cells(_failing_tasks(6, []), breaker=CircuitBreaker(threshold=2),
                  registry=parallel_reg, max_workers=2)
        skipped = {
            cid: entry["payload"]
            for cid, entry in parallel_reg.manifest["cells"].items()
            if entry["payload"]["error_type"] == "circuit_open"
        }
        for cid, payload in skipped.items():
            assert serial_reg.manifest["cells"][cid]["payload"] == payload


# ----------------------------------------------------------------------
# Signal-aware exit-status decoding (the pre-3.9 fallback fix)
# ----------------------------------------------------------------------
class TestExitStatusDecoding:
    def test_signal_killed_status_decodes_negative(self):
        # Raw wait status 9 == "terminated by SIGKILL"; the naive
        # ``status >> 8`` decoded this as a clean exit 0.
        assert _exit_status_of(9) == -9
        assert _exit_status_of(signal.SIGSEGV) == -signal.SIGSEGV

    def test_clean_exit_decodes_exit_code(self):
        assert _exit_status_of(0) == 0
        assert _exit_status_of(99 << 8) == 99

    def test_sigkilled_worker_reports_negative_exit_status(self):
        def fn(item, _seed):
            if item == 1:
                os.kill(os.getpid(), signal.SIGKILL)
            return item

        out = parallel_map(fn, range(3), max_workers=2, on_error="return")
        failure = out[1]
        assert isinstance(failure, TaskFailure)
        assert failure.reason == "WorkerDied"
        assert failure.exit_status == -signal.SIGKILL
        assert "-9" in failure.message


# ----------------------------------------------------------------------
# Watchdog: hung workers are killed, re-dispatched, and attributed
# ----------------------------------------------------------------------
class TestWatchdog:
    def test_hung_task_redispatches_bit_identical(self):
        fn = lambda item, seed: (item * 10, seed)
        clean = parallel_map(fn, range(4), max_workers=2, seed_root=11)

        plan = FaultPlan()
        plan.inject("worker.task", action="hang", seconds=30,
                    when={"index": 1, "dispatch": 0})
        with inject_faults(plan):
            out = parallel_map(fn, range(4), max_workers=2, seed_root=11,
                               task_deadline=0.5, deadline_retries=1)
        assert out == clean

    def test_persistent_hang_becomes_watchdog_killed(self):
        tracer = Tracer()
        set_tracer(tracer)
        plan = FaultPlan()
        plan.inject("worker.task", action="hang", seconds=30,
                    when={"index": 1}, times=None)
        with inject_faults(plan):
            out = parallel_map(lambda item, _seed: item, range(3),
                               max_workers=2, task_deadline=0.4,
                               deadline_retries=0, on_error="return")

        assert out[0] == 0 and out[2] == 2
        failure = out[1]
        assert isinstance(failure, TaskFailure)
        assert failure.reason == "WatchdogKilled"
        assert "deadline" in failure.message
        kills = [r for r in tracer.records
                 if r.get("type") == "event"
                 and r["name"] == "guard.watchdog_kill"]
        assert len(kills) == 1
        assert kills[0]["attrs"]["elapsed"] >= 0.4

    def test_failure_message_names_last_reported_phase(self):
        def fn(item, _seed):
            if item == 1:
                report_phase("crunching")
                time.sleep(30)
            return item

        out = parallel_map(fn, range(2), max_workers=2, task_deadline=0.5,
                           deadline_retries=0, on_error="return")
        assert out[1].reason == "WatchdogKilled"
        assert "crunching" in out[1].message

    def test_retries_exhausted_after_repeated_hangs(self):
        # times=None hangs every dispatch; one re-dispatch is allowed,
        # then the task settles with the dispatch count in the message.
        plan = FaultPlan()
        plan.inject("worker.task", action="hang", seconds=30,
                    when={"index": 0}, times=None)
        with inject_faults(plan):
            out = parallel_map(lambda item, _seed: item, range(2),
                               max_workers=2, task_deadline=0.4,
                               deadline_retries=1, on_error="return")
        assert out[0].reason == "WatchdogKilled"
        assert "2 dispatch(es)" in out[0].message

    def test_serial_mode_ignores_deadline(self):
        # A serial pool has no supervisor process; the deadline is
        # documented as parallel-only and must not break serial runs.
        out = parallel_map(lambda item, _seed: item, range(3),
                           max_workers=1, task_deadline=0.001)
        assert out == [0, 1, 2]


class TestPreDispatchSkip:
    def test_serial_skip_settles_without_calling_fn(self):
        calls = []

        def fn(item, _seed):
            calls.append(item)
            return item

        out = parallel_map(
            fn, range(4), max_workers=1,
            pre_dispatch=lambda item, i: Skip("held:%d" % i) if i % 2 else None,
        )
        assert out == [0, "held:1", 2, "held:3"]
        assert calls == [0, 2]

    def test_parallel_skip_settles_without_forking(self, tmp_path):
        def fn(item, _seed):
            (tmp_path / ("ran_%d" % item)).touch()
            return item

        out = parallel_map(
            fn, range(4), max_workers=2,
            pre_dispatch=lambda item, i: Skip(-item) if item >= 2 else None,
        )
        assert out == [0, 1, -2, -3]
        assert sorted(p.name for p in tmp_path.glob("ran_*")) == [
            "ran_0", "ran_1",
        ]

    def test_non_skip_return_is_a_type_error(self):
        with pytest.raises(TypeError, match="pre_dispatch"):
            parallel_map(lambda item, _seed: item, range(2), max_workers=1,
                         pre_dispatch=lambda item, i: "oops")


# ----------------------------------------------------------------------
# Artifact integrity: verification, quarantine, strict resume
# ----------------------------------------------------------------------
class TestVerifyArtifact:
    def test_fresh_artifact_verifies(self, tmp_path):
        path = save_arrays(tmp_path / "a.npz", {"x": np.arange(4)})
        assert verify_artifact(path) is None

    def test_missing_artifact_fails(self, tmp_path):
        failure = verify_artifact(tmp_path / "gone.npz")
        assert isinstance(failure, IntegrityFailure)
        assert failure.reason == "missing"

    def test_corrupted_artifact_fails_with_both_digests(self, tmp_path):
        path = save_arrays(tmp_path / "a.npz", {"x": np.arange(64)})
        _flip_bytes(path)
        failure = verify_artifact(path)
        assert failure.reason == "digest mismatch"
        assert failure.expected and failure.actual
        assert failure.expected != failure.actual

    def test_legacy_artifact_without_sidecar_passes(self, tmp_path):
        path = save_arrays(tmp_path / "a.npz", {"x": np.arange(4)})
        os.unlink(path + ".sha256")
        assert verify_artifact(path) is None


class TestQuarantine:
    def test_moves_set_and_writes_reason(self, tmp_path):
        root = tmp_path / "run"
        root.mkdir()
        path = save_arrays(root / "bad.npz", {"x": np.arange(8)})
        failure = IntegrityFailure(path, "digest mismatch",
                                   expected="aa", actual="bb")
        target = quarantine(root, [path], "digest mismatch", [failure])

        assert target is not None and not os.path.exists(path)
        assert not os.path.exists(path + ".sha256")
        with open(os.path.join(target, "reason.json")) as handle:
            reason = json.load(handle)
        assert reason["reason"] == "digest mismatch"
        assert reason["files"][0]["expected"] == "aa"
        assert os.path.exists(os.path.join(target, "bad.npz"))
        assert os.path.exists(os.path.join(target, "bad.npz.sha256"))

    def test_repeat_quarantines_get_numbered_slots(self, tmp_path):
        root = tmp_path / "run"
        root.mkdir()
        targets = []
        for _ in range(2):
            path = save_arrays(root / "bad.npz", {"x": np.arange(8)})
            targets.append(quarantine(root, [path], "digest mismatch"))
        assert targets[0].endswith("bad.npz.0")
        assert targets[1].endswith("bad.npz.1")

    def test_nothing_to_move_returns_none(self, tmp_path):
        assert quarantine(tmp_path, [tmp_path / "gone.npz"], "missing") is None


def _save_tiny_phase1(registry, fingerprint="deadbeef"):
    rng = np.random.default_rng(7)
    registry.save_phase1(
        fingerprint,
        {"w": rng.normal(size=(4, 4))},
        {"head.w": rng.normal(size=(4, 2))},
        rng.normal(size=(6, 4)), np.arange(6) % 2,
        rng.normal(size=(3, 4)), np.arange(3) % 2,
        {"loss": "ce"},
    )
    return fingerprint


class TestResumeVerification:
    def test_intact_set_resumes(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        fp = _save_tiny_phase1(registry)
        assert RunRegistry(tmp_path / "run").has_phase1(fp)

    def test_corrupt_set_quarantined_and_recomputed(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        fp = _save_tiny_phase1(registry)
        _flip_bytes(tmp_path / "run" / "phase1" / fp / "train_emb.npz")

        resumed = RunRegistry(tmp_path / "run")
        assert resumed.has_phase1(fp) is False
        assert fp not in resumed.manifest["phase1"]
        # ... and the drop is durable, not just in-memory.
        assert fp not in RunRegistry(tmp_path / "run").manifest["phase1"]

        quarantined = list((tmp_path / "run" / "quarantine").iterdir())
        assert len(quarantined) == 1
        with open(quarantined[0] / "reason.json") as handle:
            reason = json.load(handle)
        assert "digest mismatch" in reason["reason"]
        assert (quarantined[0] / fp / "train_emb.npz").exists()

    def test_strict_resume_raises_instead(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        fp = _save_tiny_phase1(registry)
        bad = tmp_path / "run" / "phase1" / fp / "head.npz"
        _flip_bytes(bad)

        strict = RunRegistry(tmp_path / "run", strict=True)
        with pytest.raises(CheckpointCorruptError) as excinfo:
            strict.has_phase1(fp)
        assert str(bad) in str(excinfo.value)
        assert excinfo.value.expected is not None
        # Strict mode preserves the evidence: nothing was quarantined.
        assert not (tmp_path / "run" / "quarantine").exists()
        assert fp in strict.manifest["phase1"]


# ----------------------------------------------------------------------
# End-to-end determinism under injected faults (real Table-II sweep)
# ----------------------------------------------------------------------
class TestSweepUnderFaults:
    def test_hung_cell_watchdog_killed_and_bit_identical(self, reference):
        plan = FaultPlan()
        plan.inject("worker.task", action="hang", seconds=60,
                    when={"task": KILL_CELL, "dispatch": 0})
        tracer = Tracer()
        set_tracer(tracer)
        with inject_faults(plan):
            out = run_sweep(
                ExtractorCache(),
                retry_policy=RetryPolicy(
                    max_retries=1, task_deadline=SWEEP_DEADLINE
                ),
                workers=2,
            )
        assert out["results"] == reference["results"]
        assert out["report"] == reference["report"]
        kills = [r for r in tracer.records
                 if r.get("type") == "event"
                 and r["name"] == "guard.watchdog_kill"]
        assert len(kills) == 1
        assert kills[0]["attrs"]["task"] == KILL_CELL

    def test_corrupted_checkpoint_quarantined_on_resume(self, tmp_path,
                                                        reference):
        plan = FaultPlan()
        plan.inject("artifact.saved", action="corrupt",
                    when={"name": "train_emb.npz"})
        plan.inject("sweep.cell", action="kill", when={"cell": KILL_CELL})
        registry = RunRegistry(tmp_path / "run")
        with inject_faults(plan):
            with pytest.raises(SimulatedKill):
                run_sweep(ExtractorCache(registry=registry),
                          registry=registry)

        # Resume with no faults: verification catches the corrupted
        # embedding artifact, quarantines the whole phase-1 set, and the
        # sweep recomputes it — landing on the reference bit for bit.
        resumed = run_sweep(
            ExtractorCache(registry=RunRegistry(tmp_path / "run")),
            registry=RunRegistry(tmp_path / "run"),
        )
        assert resumed["results"] == reference["results"]

        quarantined = list((tmp_path / "run" / "quarantine").iterdir())
        assert len(quarantined) == 1
        with open(quarantined[0] / "reason.json") as handle:
            reason = json.load(handle)
        assert "digest mismatch" in reason["reason"]
        moved = list(quarantined[0].rglob("train_emb.npz"))
        assert len(moved) == 1


# ----------------------------------------------------------------------
# Trace summarizer: the guard section of `repro-report trace`
# ----------------------------------------------------------------------
GUARD_RECORDS = [
    {"type": "event", "ts": 1.0, "depth": 0, "name": "guard.watchdog_kill",
     "attrs": {"task": "t2/cifar10_like/ce/eos", "elapsed": 2.5,
               "phase": "cell:t2/cifar10_like/ce/eos", "dispatch": 0}},
    {"type": "event", "ts": 2.0, "depth": 0, "name": "guard.quarantined",
     "attrs": {"reason": "digest mismatch", "target": "run/quarantine/x.0",
               "files": 2}},
    {"type": "event", "ts": 3.0, "depth": 0, "name": "guard.breaker_opened",
     "attrs": {"key": "t2/*/ce/eos", "signature": "RuntimeError: boom #",
               "failures": 3}},
    {"type": "event", "ts": 4.0, "depth": 0,
     "name": "guard.breaker_short_circuit",
     "attrs": {"cell": "t2/mnist_like/ce/eos", "key": "t2/*/ce/eos",
               "signature": "RuntimeError: boom #"}},
]


class TestTraceGuardSection:
    def test_summary_collects_guard_events(self):
        guard = summarize_trace(GUARD_RECORDS)["guard"]
        assert guard["watchdog_kills"][0]["task"] == "t2/cifar10_like/ce/eos"
        assert guard["watchdog_kills"][0]["elapsed"] == 2.5
        assert guard["quarantined"][0]["reason"] == "digest mismatch"
        assert guard["breakers_opened"][0]["key"] == "t2/*/ce/eos"
        assert guard["short_circuits"] == 1

    def test_report_renders_guard_section(self):
        report = render_trace_report(summarize_trace(GUARD_RECORDS))
        assert "Guard (watchdog / integrity / breakers):" in report
        assert "watchdog killed t2/cifar10_like/ce/eos after 2.50s" in report
        assert "quarantined 2 file(s)" in report
        assert "breaker opened for t2/*/ce/eos after 3 failure(s)" in report
        assert "1 cell(s) short-circuited" in report

    def test_guard_section_absent_without_guard_events(self):
        report = render_trace_report(summarize_trace([]))
        assert "Guard (" not in report
