"""Tests for the deterministic fork-based process pool (repro.parallel)."""

import os
import signal
import threading
import time

import pytest

from repro.parallel import (
    PersistentPool,
    PoolInterrupted,
    TaskFailure,
    WorkerError,
    derive_seed,
    get_default_workers,
    in_worker,
    parallel_map,
    resolve_workers,
    run_cells,
    set_default_workers,
)
from repro.resilience import (
    CellFailure,
    FaultPlan,
    RunRegistry,
    SimulatedKill,
    inject_faults,
)
from repro.telemetry import MetricsRegistry, Tracer, set_metrics, set_tracer


@pytest.fixture(autouse=True)
def _clean_global_state():
    """Telemetry uninstalled and worker default reset around every test."""
    set_tracer(None)
    set_metrics(None)
    previous = get_default_workers()
    yield
    set_tracer(None)
    set_metrics(None)
    set_default_workers(previous)


class TestDeriveSeed:
    def test_pure_function_of_root_and_index(self):
        assert derive_seed(0, 0) == derive_seed(0, 0)
        assert derive_seed(0, 0) != derive_seed(0, 1)
        assert derive_seed(0, 0) != derive_seed(1, 0)

    def test_fits_in_uint32(self):
        for index in range(50):
            assert 0 <= derive_seed(7, index) < 2 ** 32


class TestResolveWorkers:
    def test_none_uses_process_default(self):
        set_default_workers(3)
        assert resolve_workers(None) == 3

    def test_explicit_overrides_default(self):
        set_default_workers(3)
        assert resolve_workers(1) == 1
        assert resolve_workers(5) == 5

    def test_floor_is_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-2) == 1


class TestParallelMap:
    def test_serial_preserves_order_and_seeds(self):
        out = parallel_map(lambda item, seed: (item, seed), "abc",
                           max_workers=1)
        assert [r[0] for r in out] == ["a", "b", "c"]
        assert [r[1] for r in out] == [derive_seed(0, i) for i in range(3)]

    def test_parallel_bit_identical_to_serial(self):
        fn = lambda item, seed: item * 10 + seed % 97
        items = list(range(9))
        serial = parallel_map(fn, items, max_workers=1, seed_root=5)
        forked = parallel_map(fn, items, max_workers=4, seed_root=5)
        assert serial == forked

    def test_parallel_runs_in_child_processes(self):
        parent = os.getpid()
        pids = parallel_map(lambda _item, _seed: os.getpid(), range(4),
                            max_workers=2)
        assert all(pid != parent for pid in pids)

    def test_workers_fork_once_per_call(self):
        # Tasks stream to the call's workers; a fork per task would
        # show up as one pid per item.
        pids = parallel_map(lambda i, s: os.getpid(), range(20),
                            max_workers=2)
        assert len(set(pids)) <= 2

    def test_nested_pool_degrades_to_serial(self):
        def fn(_item, _seed):
            return (in_worker(), resolve_workers(4))

        assert not in_worker()
        out = parallel_map(fn, range(2), max_workers=2)
        assert out == [(True, 1), (True, 1)]

    def test_worker_exception_raises_worker_error(self):
        def fn(item, _seed):
            if item == 1:
                raise ValueError("bad cell")
            return item

        with pytest.raises(WorkerError, match="bad cell"):
            parallel_map(fn, range(3), max_workers=2)

    def test_worker_exception_returned_as_task_failure(self):
        def fn(item, _seed):
            if item == 1:
                raise ValueError("bad cell")
            return item

        out = parallel_map(fn, range(3), max_workers=2, on_error="return")
        assert out[0] == 0 and out[2] == 2
        assert isinstance(out[1], TaskFailure)
        assert out[1].reason == "ValueError"
        assert out[1].message == "bad cell"
        assert "ValueError" in out[1].traceback

    def test_dead_worker_becomes_worker_died_failure(self):
        def fn(item, _seed):
            if item == 2:
                os._exit(99)
            return item

        out = parallel_map(fn, range(4), max_workers=2, on_error="return")
        assert out[0] == 0 and out[1] == 1 and out[3] == 3
        failure = out[2]
        assert isinstance(failure, TaskFailure)
        assert failure.reason == "WorkerDied"
        assert failure.exit_status == 99

    def test_simulated_kill_dies_like_a_real_crash(self):
        def fn(item, _seed):
            if item == 0:
                raise SimulatedKill("injected")
            return item

        out = parallel_map(fn, range(3), max_workers=2, on_error="return")
        assert isinstance(out[0], TaskFailure)
        assert out[0].reason == "WorkerDied"
        assert out[1] == 1 and out[2] == 2

    def test_on_result_sees_every_task(self):
        seen = {}
        parallel_map(lambda item, _seed: item * 2, range(5), max_workers=3,
                     on_result=lambda index, result: seen.__setitem__(
                         index, result))
        assert seen == {i: i * 2 for i in range(5)}

    def test_more_workers_than_items(self):
        assert parallel_map(lambda i, _s: i, range(2), max_workers=16) \
            == [0, 1]

    def test_empty_items(self):
        assert parallel_map(lambda i, _s: i, [], max_workers=4) == []

    def test_invalid_on_error(self):
        with pytest.raises(ValueError):
            parallel_map(lambda i, _s: i, [1], on_error="ignore")


class TestPoolInterruption:
    """SIGINT/SIGTERM mid-map must surface as PoolInterrupted — after
    every worker has been killed and reaped, never as a raw ^C."""

    def _assert_all_dead(self, pids):
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_serial_keyboard_interrupt_is_structured(self):
        def fn(item, _seed):
            if item == 1:
                raise KeyboardInterrupt  # what a ^C mid-call raises
            return item

        with pytest.raises(PoolInterrupted) as excinfo:
            parallel_map(fn, range(3), max_workers=1)
        assert excinfo.value.signal_name == "SIGINT"
        assert excinfo.value.completed == [0]
        assert excinfo.value.pending == [1, 2]

    @pytest.mark.parametrize("signum, name", [
        (signal.SIGTERM, "SIGTERM"),
        (signal.SIGINT, "SIGINT"),
    ])
    def test_signal_mid_parallel_map_leaves_no_orphans(
            self, tmp_path, signum, name):
        def fn(_item, _seed):
            pid_file = tmp_path / ("%d.pid" % os.getpid())
            pid_file.write_text(str(os.getpid()))
            time.sleep(30.0)  # far past the test's own lifetime
            return None

        timer = threading.Timer(
            0.5, lambda: os.kill(os.getpid(), signum)
        )
        timer.start()
        try:
            with pytest.raises(PoolInterrupted) as excinfo:
                parallel_map(fn, range(3), max_workers=2)
        finally:
            timer.cancel()
        assert excinfo.value.signal_name == name
        assert excinfo.value.completed == []
        assert excinfo.value.pending == [0, 1, 2]
        # Every worker that had started was SIGKILLed and reaped before
        # the exception escaped: no orphan survives the pool.
        pids = [int(p.read_text()) for p in tmp_path.glob("*.pid")]
        assert pids, "no worker ever started; the test raced its timer"
        self._assert_all_dead(pids)

    def test_sigterm_disposition_restored_after_map(self):
        before = signal.getsignal(signal.SIGTERM)
        parallel_map(lambda i, _s: i, range(3), max_workers=2)
        assert signal.getsignal(signal.SIGTERM) is before

    def test_sigterm_disposition_restored_after_interrupt(self):
        before = signal.getsignal(signal.SIGTERM)

        def fn(item, _seed):
            raise KeyboardInterrupt

        with pytest.raises(PoolInterrupted):
            parallel_map(fn, [1], max_workers=1)
        assert signal.getsignal(signal.SIGTERM) is before

    def test_pool_interrupted_is_a_keyboard_interrupt(self):
        # Existing except-KeyboardInterrupt handlers (the serve daemon's
        # requeue path) must keep catching interruptions.
        assert issubclass(PoolInterrupted, KeyboardInterrupt)
        exc = PoolInterrupted("SIGTERM", [0], [1, 2])
        assert "SIGTERM" in str(exc)
        assert "2 pending" in str(exc)


class TestTelemetryForwarding:
    def test_worker_spans_and_counters_merge_into_parent(self):
        tracer = Tracer()
        metrics = MetricsRegistry()
        set_tracer(tracer)
        set_metrics(metrics)

        def fn(item, _seed):
            from repro.telemetry import get_metrics, get_tracer
            with get_tracer().span("unit", item=item):
                get_metrics().counter("work.units").inc()
            return item

        out = parallel_map(fn, range(3), max_workers=2)
        assert out == [0, 1, 2]
        forwarded = [r for r in tracer.records
                     if r.get("attrs", {}).get("forwarded")]
        unit_spans = [r for r in forwarded if r["name"] == "unit"]
        assert len(unit_spans) == 3
        assert sorted(r["attrs"]["item"] for r in unit_spans) == [0, 1, 2]
        assert metrics.snapshot()["counters"]["work.units"] == 3

    def test_no_forwarding_when_telemetry_disabled(self):
        out = parallel_map(lambda item, _seed: item, range(3), max_workers=2)
        assert out == [0, 1, 2]


class TestRunCells:
    @staticmethod
    def tasks(kill=()):
        def make(cell_id, value):
            def thunk(_attempt):
                if cell_id in kill:
                    raise SimulatedKill("die %s" % cell_id)
                return {"value": value}
            return (cell_id, thunk)

        return [make("grid/a", 1), make("grid/b", 2), make("grid/c", 3)]

    def test_parallel_matches_serial(self, tmp_path):
        serial = run_cells(self.tasks(), max_workers=1)
        forked = run_cells(self.tasks(), max_workers=3)
        assert serial == forked == [{"value": v} for v in (1, 2, 3)]

    def test_results_checkpointed_in_registry(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        run_cells(self.tasks(), registry=registry, max_workers=2)
        assert registry.cell_statuses() == {
            "grid/a": "done", "grid/b": "done", "grid/c": "done",
        }

    def test_dead_worker_becomes_failed_cell_then_resumes(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        out = run_cells(self.tasks(kill={"grid/b"}), registry=registry,
                        max_workers=2)
        assert out[0] == {"value": 1} and out[2] == {"value": 3}
        failure = out[1]
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "WorkerDied"
        assert registry.cell_statuses()["grid/b"] == "failed"
        # A failed cell does not count as checkpointed...
        assert not registry.has_cell("grid/b")

        # ...so resuming from the same directory re-runs exactly it.
        resumed = run_cells(self.tasks(),
                            registry=RunRegistry(tmp_path / "run"),
                            max_workers=2)
        assert resumed == [{"value": v} for v in (1, 2, 3)]

    def test_fail_soft_false_raises_after_batch(self):
        with pytest.raises(WorkerError):
            run_cells(self.tasks(kill={"grid/c"}), max_workers=2,
                      fail_soft=False)

    def test_worker_exception_recorded_with_its_type(self, tmp_path):
        def bad(_attempt):
            raise RuntimeError("loss diverged")

        out = run_cells([("grid/x", bad), ("grid/y", lambda _a: {"ok": 1})],
                        max_workers=2)
        assert isinstance(out[0], CellFailure)
        assert out[0].error_type == "RuntimeError"
        assert "loss diverged" in out[0].reason
        assert out[1] == {"ok": 1}


class TestTableSweepBitExactness:
    def test_tiny_table2_identical_across_worker_counts(self):
        """The ISSUE acceptance criterion: --workers 4 == --workers 1."""
        from repro.evals import MatrixSpec, run_matrix
        from repro.experiments import ExtractorCache, bench_config

        micro = bench_config(phase1_epochs=2, finetune_epochs=2,
                             model_kwargs={"width": 4})
        spec = MatrixSpec("table2", config=micro, losses=("ce",),
                          samplers=("none", "smote", "eos"))
        serial = run_matrix(spec, cache=ExtractorCache(), workers=1)
        forked = run_matrix(spec, cache=ExtractorCache(), workers=4)
        assert serial["results"] == forked["results"]
        assert serial["report"] == forked["report"]


# ----------------------------------------------------------------------
# PersistentPool: pre-forked supervised worker set
# ----------------------------------------------------------------------
def _echo_task(item, seed):
    return {"item": item, "seed": seed}


def _fragile_task(item, seed):
    if item == "die":
        os._exit(42)
    if item == "hang":
        time.sleep(30.0)
    return {"item": item, "seed": seed}


def _run_pool(pool, expected, deadline=30.0):
    """Poll until ``expected`` completions land (or fail loudly)."""
    from repro.telemetry import monotonic

    results = {}
    cutoff = monotonic() + deadline
    while len(results) < expected and monotonic() < cutoff:
        for task_id, value in pool.poll(timeout=0.2):
            results[task_id] = value
    assert len(results) == expected, "only %d/%d tasks completed" % (
        len(results), expected)
    return results


class TestPersistentPool:
    def test_results_and_seeds_roundtrip(self):
        with PersistentPool(_echo_task, workers=3) as pool:
            for i in range(12):
                pool.submit("t%d" % i, i, seed=100 + i)
            results = _run_pool(pool, 12)
        for i in range(12):
            assert results["t%d" % i] == {"item": i, "seed": 100 + i}

    def test_work_is_actually_distributed(self):
        with PersistentPool(_echo_task, workers=3) as pool:
            for i in range(12):
                pool.submit("t%d" % i, i, seed=i)
            _run_pool(pool, 12)
            served = [w["jobs"] for w in pool.stats()["workers"]]
        assert sum(served) == 12
        assert len([jobs for jobs in served if jobs]) >= 2

    def test_dead_worker_respawns_and_task_reruns_same_seed(self):
        with PersistentPool(_fragile_task, workers=2, task_retries=1) as pool:
            pool.submit("victim", "die", seed=7)
            pool.submit("bystander", "ok", seed=8)
            results = _run_pool(pool, 2)
            # "die" exits the worker on dispatch 0; dispatch 1 runs on
            # the replacement... which also dies: retries exhausted.
            assert isinstance(results["victim"], TaskFailure)
            assert results["victim"].reason == "WorkerDied"
            assert results["bystander"] == {"item": "ok", "seed": 8}
            assert pool.deaths == 2  # dispatch 0 + the one retry
            assert pool.respawns == 2
            assert len(pool.stats()["workers"]) == 2  # pool never shrinks

    def test_injected_kill_on_first_dispatch_is_transparent(self):
        # The chaos shape the daemon relies on: a worker SIGKILLed
        # mid-job is respawned and the job re-dispatched under the SAME
        # seed — the completion is indistinguishable from a clean run.
        plan = FaultPlan()
        plan.inject("worker.task", action="kill",
                    when={"task": "victim", "dispatch": 0})
        with inject_faults(plan):
            with PersistentPool(_echo_task, workers=2,
                                task_retries=1) as pool:
                pool.submit("victim", "payload", seed=1234, label="victim")
                results = _run_pool(pool, 1)
                assert results["victim"] == {"item": "payload", "seed": 1234}
                assert pool.deaths == 1
                assert pool.respawns == 1

    def test_recycle_after_replaces_workers_cleanly(self):
        with PersistentPool(_echo_task, workers=1, recycle_after=2) as pool:
            for i in range(6):
                pool.submit("t%d" % i, i, seed=i)
            results = _run_pool(pool, 6)
            assert all(results["t%d" % i]["item"] == i for i in range(6))
            assert pool.recycles >= 2
            assert pool.deaths == 0  # recycling is not dying

    def test_watchdog_kills_hung_worker_at_deadline(self):
        with PersistentPool(_fragile_task, workers=2, task_deadline=0.5,
                            task_retries=0) as pool:
            pool.submit("stuck", "hang", seed=1)
            pool.submit("fine", "ok", seed=2)
            results = _run_pool(pool, 2, deadline=15.0)
            assert results["fine"] == {"item": "ok", "seed": 2}
            assert isinstance(results["stuck"], TaskFailure)
            assert results["stuck"].reason == "WatchdogKilled"
            assert "deadline" in results["stuck"].message

    def test_stats_shape_for_health_reporting(self):
        with PersistentPool(_echo_task, workers=2) as pool:
            stats = pool.stats()
            assert set(stats) == {"workers", "deaths", "respawns",
                                  "recycles", "backlog"}
            assert len(stats["workers"]) == 2
            for worker in stats["workers"]:
                assert set(worker) == {"pid", "jobs", "in_flight", "phase",
                                       "last_beat_age", "retiring"}
                assert worker["in_flight"] is None

    def test_submit_after_close_raises(self):
        pool = PersistentPool(_echo_task, workers=1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit("t", 1, seed=1)
        pool.close()  # idempotent

    def test_backlog_beyond_worker_count_completes(self):
        with PersistentPool(_echo_task, workers=2) as pool:
            for i in range(20):
                pool.submit("t%d" % i, i, seed=i)
            assert pool.backlog() > 0 or not pool.idle()
            results = _run_pool(pool, 20)
        assert sorted(r["item"] for r in results.values()) == list(range(20))
