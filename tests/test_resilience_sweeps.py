"""End-to-end resilience tests against the real Table-II sweep.

The two acceptance behaviors from the resilience work:

1. a sweep killed mid-run (simulated process death) and then resumed
   from its checkpoint directory reproduces the uninterrupted run's
   metrics *exactly* under a fixed seed;
2. a cell whose training diverges on every retry completes as a
   ``FAILED(reason)`` row — after the configured number of attempts —
   while the rest of the sweep finishes and reports the degradation.
"""

import pytest

from repro.evals import MatrixSpec, run_matrix
from repro.experiments import ExtractorCache, bench_config
from repro.resilience import (
    CellFailure,
    DivergenceError,
    FaultPlan,
    RetryPolicy,
    RunRegistry,
    SimulatedKill,
    inject_faults,
)

MICRO = bench_config(phase1_epochs=2, finetune_epochs=2,
                     model_kwargs={"width": 4})
SAMPLERS = ("none", "smote", "eos")
KILL_CELL = "t2/cifar10_like/ce/eos"


def run_sweep(cache, registry=None, retry_policy=None):
    return run_matrix(
        MatrixSpec("table2", config=MICRO, losses=("ce",),
                   samplers=SAMPLERS),
        cache=cache,
        registry=registry,
        retry_policy=retry_policy,
    )


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted run every resilience scenario is compared to."""
    return run_sweep(ExtractorCache())


class TestKillAndResume:
    def test_resumed_run_reproduces_reference_exactly(self, tmp_path,
                                                      reference):
        registry = RunRegistry(tmp_path / "run")
        plan = FaultPlan()
        plan.inject("sweep.cell", action="kill", when={"cell": KILL_CELL})
        with inject_faults(plan):
            with pytest.raises(SimulatedKill):
                run_sweep(ExtractorCache(registry=registry),
                          registry=registry)

        # The kill lost only the in-flight cell: everything before it is
        # durable in the manifest, including the phase-1 extractor.
        statuses = registry.cell_statuses()
        assert KILL_CELL not in statuses
        assert len(statuses) == 2
        assert all(status == "done" for status in statuses.values())
        assert len(registry.manifest["phase1"]) == 1

        # Resume in a fresh process-equivalent: new registry handle, new
        # cache, no faults.  Checkpointed cells load from the manifest,
        # the killed cell recomputes on the registry-restored extractor.
        resumed = run_sweep(
            ExtractorCache(registry=RunRegistry(tmp_path / "run")),
            registry=RunRegistry(tmp_path / "run"),
        )
        assert resumed["results"] == reference["results"]

    def test_second_resume_is_pure_replay(self, tmp_path, reference):
        registry = RunRegistry(tmp_path / "run")
        run_sweep(ExtractorCache(registry=registry), registry=registry)
        replay_cache = ExtractorCache(registry=RunRegistry(tmp_path / "run"))
        replayed = run_sweep(replay_cache,
                             registry=RunRegistry(tmp_path / "run"))
        assert replayed["results"] == reference["results"]
        # Every cell came from the manifest; the one cache miss is the
        # per-loss artifact fetch, satisfied from the registry's
        # persisted extractor rather than by retraining.
        assert replay_cache.stats()["misses"] == 1


class TestAtomicWriteCrashWindow:
    def test_kill_between_temp_write_and_replace_keeps_old_manifest(
            self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        registry.record_cell("c/1", {"v": 1})

        # Kill inside atomic_write's crash window: after the temp file
        # is fsynced, before os.replace swings it over manifest.json.
        plan = FaultPlan()
        plan.inject("artifact.replace", action="kill",
                    when={"name": "manifest.json"})
        with inject_faults(plan):
            with pytest.raises(SimulatedKill):
                registry.record_cell("c/2", {"v": 2})

        # Resume sees the previous intact manifest: c/1 durable, the
        # in-flight c/2 lost, and no *.tmp debris left behind.
        resumed = RunRegistry(tmp_path / "run")
        assert resumed.cell_statuses() == {"c/1": "done"}
        assert resumed.load_cell("c/1") == {"v": 1}
        assert list((tmp_path / "run").glob("*.tmp")) == []

    def test_kill_between_replace_and_dirsync_keeps_new_manifest(
            self, tmp_path):
        registry = RunRegistry(tmp_path / "run")
        registry.record_cell("c/1", {"v": 1})

        # Kill inside the *other* crash window: after os.replace made the
        # rename visible, before the parent-directory fsync pinned it.
        plan = FaultPlan()
        plan.inject("artifact.dirsync", action="kill",
                    when={"name": "manifest.json"})
        with inject_faults(plan):
            with pytest.raises(SimulatedKill):
                registry.record_cell("c/2", {"v": 2})

        # The rename already happened, so the NEW manifest (with both
        # cells) is what resume must see — and no temp debris remains.
        resumed = RunRegistry(tmp_path / "run")
        assert resumed.cell_statuses() == {"c/1": "done", "c/2": "done"}
        assert resumed.load_cell("c/2") == {"v": 2}
        assert list((tmp_path / "run").glob("*.tmp")) == []


class TestDivergenceDegradation:
    def test_diverged_cell_fails_after_retry_budget(self, reference):
        plan = FaultPlan()
        plan.inject(
            "sweep.cell", action="raise",
            exc=DivergenceError("injected divergence", epoch=0, batch=0),
            when={"cell": "t2/cifar10_like/ce/smote"}, times=None,
        )
        with inject_faults(plan):
            out = run_sweep(ExtractorCache(),
                            retry_policy=RetryPolicy(max_retries=1))

        failure = out["results"][("cifar10_like", "ce", "smote")]
        assert isinstance(failure, CellFailure)
        assert failure.error_type == "DivergenceError"
        assert failure.attempts == 2  # initial try + one retry
        assert "FAILED" in out["report"]
        assert "DEGRADED: 1 / 3 cell(s) failed" in out["report"]
        # The surviving cells match the reference run bit for bit.
        for key in (("cifar10_like", "ce", "none"),
                    ("cifar10_like", "ce", "eos")):
            assert out["results"][key] == reference["results"][key]

    def test_transient_divergence_recovers_via_retry(self, reference):
        plan = FaultPlan()
        plan.inject(
            "sweep.cell", action="raise",
            exc=DivergenceError("transient divergence"),
            when={"cell": "t2/cifar10_like/ce/none"}, times=1,
        )
        with inject_faults(plan):
            out = run_sweep(ExtractorCache(),
                            retry_policy=RetryPolicy(max_retries=2))

        assert "FAILED" not in out["report"]
        assert "DEGRADED" not in out["report"]
        assert [(point, ctx["attempt"]) for point, ctx, _ in plan.log] == [
            ("sweep.cell", 0)
        ]
        # The retried cell ran on attempt index 1 (seed bump + LR
        # backoff), so its metrics may legitimately differ from the
        # reference; the untouched cells must not.
        assert (out["results"][("cifar10_like", "ce", "eos")]
                == reference["results"][("cifar10_like", "ce", "eos")])
