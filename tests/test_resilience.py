"""Unit tests for the fault-tolerance stack: atomic writes, structured
divergence/timeout errors, retry schedules, fault injection, the run
registry, and the bounded extractor cache."""

import json
import os

import numpy as np
import pytest

from repro.core import Trainer, finetune_classifier
from repro.data import ArrayDataset
from repro.experiments import bench_config
from repro.experiments.pipeline import ExtractorCache
from repro.losses import CrossEntropyLoss
from repro.nn import SmallConvNet
from repro.optim import SGD
from repro.parallel import run_cells
from repro.resilience import (
    Attempt,
    CellFailure,
    CheckpointMismatchError,
    DivergenceError,
    FaultInjected,
    FaultPlan,
    RetryBudgetExhausted,
    RetryPolicy,
    RunRegistry,
    SimulatedKill,
    TrialTimeoutError,
    active_plan,
    failure_from_payload,
    fingerprint_of,
    inject_faults,
)
from repro.utils import atomic_write, atomic_write_json, load_arrays, save_arrays


@pytest.fixture
def rng():
    return np.random.default_rng(7)


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------
class TestAtomicWrite:
    def test_writes_bytes(self, tmp_path):
        path = tmp_path / "out.bin"
        atomic_write(path, lambda handle: handle.write(b"payload"))
        assert path.read_bytes() == b"payload"

    def test_failure_leaves_previous_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")

        def explode(handle):
            handle.write(b"partial")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            atomic_write(path, explode)
        assert path.read_bytes() == b"old"

    def test_failure_leaves_no_temp_droppings(self, tmp_path):
        path = tmp_path / "out.bin"
        with pytest.raises(RuntimeError):
            atomic_write(path, lambda handle: (_ for _ in ()).throw(
                RuntimeError("boom")))
        assert os.listdir(tmp_path) == []

    def test_json_roundtrip_sorted(self, tmp_path):
        path = tmp_path / "m.json"
        atomic_write_json(path, {"b": 2, "a": [1.5, None]})
        assert json.loads(path.read_text()) == {"b": 2, "a": [1.5, None]}

    def test_save_load_arrays(self, tmp_path, rng):
        arrays = {"x": rng.normal(size=(4, 3)), "y": np.arange(4)}
        out = save_arrays(tmp_path / "a", arrays)
        assert out.endswith(".npz")
        loaded = load_arrays(out)
        np.testing.assert_array_equal(loaded["x"], arrays["x"])
        np.testing.assert_array_equal(loaded["y"], arrays["y"])


class TestLoadModelDiagnostics:
    def test_error_names_mismatched_parameters(self, tmp_path, rng):
        from repro.utils import load_model, save_model

        model = SmallConvNet(num_classes=4, width=4, rng=rng)
        path = tmp_path / "model.npz"
        save_model(model, path)
        other = SmallConvNet(num_classes=4, width=8, rng=rng)
        with pytest.raises(ValueError) as err:
            load_model(other, path)
        assert "shape mismatch" in str(err.value)
        assert "conv1.weight" in str(err.value)


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_schedule_is_deterministic(self):
        policy = RetryPolicy(max_retries=2, seed_bump=1000, lr_backoff=0.5,
                             trial_timeout=30.0)
        first = list(policy.attempts())
        second = list(policy.attempts())
        assert [a.index for a in first] == [0, 1, 2]
        assert [a.seed_offset for a in first] == [0, 1000, 2000]
        assert [a.lr_scale for a in first] == [1.0, 0.5, 0.25]
        assert all(a.max_seconds == 30.0 for a in first)
        assert [(a.index, a.seed_offset, a.lr_scale) for a in first] == [
            (a.index, a.seed_offset, a.lr_scale) for a in second
        ]

    def test_success_after_failures(self):
        policy = RetryPolicy(max_retries=2)
        calls = []

        def trial(attempt):
            calls.append(attempt.index)
            if attempt.index < 2:
                raise DivergenceError("nan", epoch=0, batch=1)
            return "ok"

        assert policy.run(trial) == "ok"
        assert calls == [0, 1, 2]

    def test_budget_exhaustion_chains_last_error(self):
        policy = RetryPolicy(max_retries=1)

        def trial(attempt):
            raise TrialTimeoutError("too slow", seconds=9.0, budget=1.0)

        with pytest.raises(RetryBudgetExhausted) as err:
            policy.run(trial)
        assert err.value.attempts == 2
        assert isinstance(err.value.last_error, TrialTimeoutError)
        assert isinstance(err.value.__cause__, TrialTimeoutError)

    def test_non_retryable_error_propagates_immediately(self):
        policy = RetryPolicy(max_retries=3)
        calls = []

        def trial(attempt):
            calls.append(attempt.index)
            raise KeyError("not a training failure")

        with pytest.raises(KeyError):
            policy.run(trial)
        assert calls == [0]

    def test_on_retry_callback_sees_each_failure(self):
        policy = RetryPolicy(max_retries=2)
        seen = []

        def trial(attempt):
            if attempt.index == 0:
                raise DivergenceError("nan")
            return attempt.index

        assert policy.run(trial, on_retry=lambda a, e: seen.append(
            (a.index, type(e).__name__))) == 1
        assert seen == [(0, "DivergenceError")]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(lr_backoff=0.0)


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_when_filter_matches_exact_context(self):
        plan = FaultPlan()
        plan.inject("p", action="nan", when={"epoch": 1})
        assert plan.fire("p", {"epoch": 0}) is None
        assert plan.fire("p", {"epoch": 1}) == "nan"
        assert plan.fire("q", {"epoch": 1}) is None

    def test_after_and_times_schedule(self):
        plan = FaultPlan()
        plan.inject("p", action="nan", after=2, times=2)
        results = [plan.fire("p", {}) for _ in range(5)]
        assert results == [None, "nan", "nan", None, None]

    def test_times_none_fires_forever(self):
        plan = FaultPlan()
        plan.inject("p", action="nan", times=None)
        assert all(plan.fire("p", {}) == "nan" for _ in range(4))

    def test_raise_action_uses_custom_exception(self):
        plan = FaultPlan()
        plan.inject("p", action="raise", exc=OSError("no space"))
        with pytest.raises(OSError):
            plan.fire("p", {})
        plan2 = FaultPlan()
        plan2.inject("p", action="raise")
        with pytest.raises(FaultInjected):
            plan2.fire("p", {})

    def test_kill_action_is_base_exception(self):
        plan = FaultPlan()
        plan.inject("p", action="kill")
        with pytest.raises(SimulatedKill):
            try:
                plan.fire("p", {"cell": "x"})
            except Exception:  # pragma: no cover - must NOT catch the kill
                pytest.fail("SimulatedKill was swallowed by except Exception")

    def test_inject_faults_restores_previous_plan(self):
        outer = FaultPlan()
        with inject_faults(outer):
            inner = FaultPlan()
            with inject_faults(inner):
                assert active_plan() is inner
            assert active_plan() is outer
        assert active_plan() is None

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan().inject("p", action="explode")


# ----------------------------------------------------------------------
# Divergence / timeout guards in the real training loops
# ----------------------------------------------------------------------
def _tiny_setup(rng, n=24):
    images = rng.normal(size=(n, 3, 8, 8))
    labels = rng.integers(0, 3, n)
    dataset = ArrayDataset(images, labels)
    model = SmallConvNet(num_classes=3, width=4, rng=rng)
    trainer = Trainer(model, CrossEntropyLoss(), SGD(model.parameters(), lr=0.05))
    return dataset, model, trainer


class TestTrainingGuards:
    def test_injected_nan_raises_divergence_with_provenance(self, rng):
        dataset, _, trainer = _tiny_setup(rng)
        plan = FaultPlan()
        plan.inject("trainer.batch", action="nan",
                    when={"epoch": 1, "batch": 0})
        with inject_faults(plan):
            with pytest.raises(DivergenceError) as err:
                trainer.fit(dataset, epochs=3, batch_size=8,
                            rng=np.random.default_rng(0))
        assert err.value.epoch == 1
        assert err.value.batch == 0
        assert err.value.phase == "phase1"
        assert "epoch=1" in str(err.value)

    def test_zero_budget_times_out(self, rng):
        dataset, _, trainer = _tiny_setup(rng)
        with pytest.raises(TrialTimeoutError) as err:
            trainer.fit(dataset, epochs=1, batch_size=8,
                        rng=np.random.default_rng(0), max_seconds=0.0)
        assert err.value.budget == 0.0

    def test_clean_run_unaffected_without_plan(self, rng):
        dataset, _, trainer = _tiny_setup(rng)
        history = trainer.fit(dataset, epochs=1, batch_size=8,
                              rng=np.random.default_rng(0))
        assert len(history) == 1 and np.isfinite(history[0]["loss"])

    def test_finetune_guard_raises_with_finetune_phase(self, rng):
        _, model, _ = _tiny_setup(rng)
        embeddings = rng.normal(size=(16, model.classifier.weight.shape[1]))
        labels = rng.integers(0, 3, 16)
        plan = FaultPlan()
        plan.inject("finetune.batch", action="nan",
                    when={"epoch": 0, "batch": 0})
        with inject_faults(plan):
            with pytest.raises(DivergenceError) as err:
                finetune_classifier(model, embeddings, labels, epochs=1,
                                    batch_size=8, rng=np.random.default_rng(0))
        assert err.value.phase == "finetune"


# ----------------------------------------------------------------------
# Run registry
# ----------------------------------------------------------------------
class TestRunRegistry:
    def test_cell_roundtrip_across_reload(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        registry.record_cell("t2/a/ce/eos", {"bac": 0.75})
        reloaded = RunRegistry(tmp_path / "run")
        assert reloaded.has_cell("t2/a/ce/eos")
        assert reloaded.load_cell("t2/a/ce/eos") == {"bac": 0.75}

    def test_failed_cells_are_reattempted(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        registry.record_cell("c", {"reason": "nan"}, status="failed")
        assert not registry.has_cell("c")
        with pytest.raises(KeyError):
            registry.load_cell("c")
        assert registry.cell_statuses() == {"c": "failed"}

    def test_fingerprint_mismatch_refused(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        registry.ensure_fingerprint(fingerprint_of("small", ("a",), 0))
        reloaded = RunRegistry(tmp_path / "run")
        reloaded.ensure_fingerprint(fingerprint_of("small", ("a",), 0))
        with pytest.raises(CheckpointMismatchError):
            reloaded.ensure_fingerprint(fingerprint_of("small", ("a",), 1))

    def test_phase1_roundtrip(self, tmp_path, rng):
        registry = RunRegistry(tmp_path / "run")
        fp = fingerprint_of("phase1", "demo")
        model_state = {"param:w": rng.normal(size=(3, 2))}
        head_state = {"param:h": rng.normal(size=(2,))}
        registry.save_phase1(
            fp, model_state, head_state,
            rng.normal(size=(6, 2)), np.arange(6),
            rng.normal(size=(4, 2)), np.arange(4),
            {"loss": "ce", "train_seconds": 1.5},
        )
        assert registry.has_phase1(fp)
        loaded_model, loaded_head, train, test, meta = RunRegistry(
            tmp_path / "run"
        ).load_phase1(fp)
        np.testing.assert_array_equal(loaded_model["param:w"],
                                      model_state["param:w"])
        np.testing.assert_array_equal(loaded_head["param:h"],
                                      head_state["param:h"])
        assert train[0].shape == (6, 2) and test[0].shape == (4, 2)
        assert meta["loss"] == "ce"

    def test_missing_artifact_file_means_not_checkpointed(self, tmp_path, rng):
        registry = RunRegistry(tmp_path / "run")
        fp = fingerprint_of("phase1", "demo")
        registry.save_phase1(
            fp, {"param:w": rng.normal(size=(2,))}, {"param:h": np.zeros(1)},
            rng.normal(size=(2, 1)), np.arange(2),
            rng.normal(size=(2, 1)), np.arange(2), {},
        )
        os.unlink(tmp_path / "run" / "phase1" / fp / "model.npz")
        assert not registry.has_phase1(fp)

    def test_summary_counts(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        registry.record_cell("a", {}, status="done")
        registry.record_cell("b", {}, status="failed")
        assert "2 cell(s) checkpointed (1 done, 1 failed)" in registry.summary()


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------
class TestRunCell:
    def test_success_records_done(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        result = run_cells([("c", lambda attempt: {"bac": 0.5})],
                           registry=registry)[0]
        assert result == {"bac": 0.5}
        assert registry.has_cell("c")

    def test_resume_skips_thunk(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        registry.record_cell("c", {"bac": 0.9})
        result = run_cells(
            [("c", lambda attempt: pytest.fail("must not recompute"))],
            registry=registry,
        )[0]
        assert result == {"bac": 0.9}

    def test_failure_degrades_and_is_recorded(self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        policy = RetryPolicy(max_retries=1)

        def thunk(attempt):
            raise DivergenceError("nan loss", epoch=0, batch=3)

        failure = run_cells([("c", thunk)], registry=registry,
                            retry_policy=policy)[0]
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "DivergenceError"
        assert failure.attempts == 2
        assert failure.label().startswith("FAILED(DivergenceError")
        assert registry.cell_statuses() == {"c": "failed"}
        rebuilt = failure_from_payload(
            registry.manifest["cells"]["c"]["payload"]
        )
        assert rebuilt.error_type == "DivergenceError"

    def test_fail_fast_propagates(self):
        def thunk(attempt):
            raise DivergenceError("nan loss")

        with pytest.raises(DivergenceError):
            run_cells([("c", thunk)], fail_soft=False)[0]

    def test_simulated_kill_is_never_absorbed(self):
        plan = FaultPlan()
        plan.inject("sweep.cell", action="kill", when={"cell": "c"})
        with inject_faults(plan):
            with pytest.raises(SimulatedKill):
                run_cells([("c", lambda attempt: {"bac": 1.0})])[0]

    def test_retry_recovers_after_injected_divergence(self):
        plan = FaultPlan()
        plan.inject("sweep.cell", action="raise",
                    exc=DivergenceError("injected"), when={"cell": "c"},
                    times=1)
        with inject_faults(plan):
            result = run_cells([("c", lambda attempt: attempt.index)],
                               retry_policy=RetryPolicy(max_retries=1))[0]
        assert result == 1


# ----------------------------------------------------------------------
# Extractor cache bound + stats
# ----------------------------------------------------------------------
class TestExtractorCacheLRU:
    def test_lru_eviction_and_stats(self, monkeypatch):
        import repro.experiments.pipeline as pipeline

        trained = []

        def fake_train(config, loss_name, registry=None, retry_policy=None):
            trained.append(loss_name)
            return "artifacts-%s" % loss_name

        monkeypatch.setattr(pipeline, "train_phase1", fake_train)
        config = bench_config()
        cache = ExtractorCache(max_entries=2)

        assert cache.get(config, "ce") == "artifacts-ce"
        assert cache.get(config, "asl") == "artifacts-asl"
        assert cache.get(config, "ce") == "artifacts-ce"  # hit, refreshes ce
        cache.get(config, "focal")  # evicts asl (least recently used)
        assert cache.stats() == {
            "hits": 1, "misses": 3, "evictions": 1, "size": 2,
            "max_entries": 2,
        }
        cache.get(config, "asl")  # miss again: was evicted
        assert trained == ["ce", "asl", "focal", "asl"]

    def test_clear_keeps_counters(self, monkeypatch):
        import repro.experiments.pipeline as pipeline

        monkeypatch.setattr(pipeline, "train_phase1",
                            lambda config, loss_name, **kw: loss_name)
        cache = ExtractorCache(max_entries=4)
        cache.get(bench_config(), "ce")
        cache.clear()
        stats = cache.stats()
        assert stats["size"] == 0 and stats["misses"] == 1

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            ExtractorCache(max_entries=0)


class TestAttemptRepr:
    def test_repr_mentions_schedule(self):
        text = repr(Attempt(1, 1000, 0.5, None))
        assert "index=1" in text and "seed_offset=1000" in text
