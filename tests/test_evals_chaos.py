"""Acceptance scenario for the result store: a Table-II matrix run
writing to the store is SIGKILLed mid-sweep (simulated process death),
leaves nothing in the store, is resumed from its checkpoint, and must
end with no duplicate or lost rows — and ``repro-report table2`` must
regenerate the table byte-identical to an uninterrupted reference run,
without retraining anything.

Mirrors the micro harness of ``test_resilience_sweeps`` (same config,
samplers, and kill cell) with the sqlite store attached.
"""

import pytest

from repro.evals import MatrixSpec, ResultStore, regenerate, run_matrix
from repro.experiments import ExtractorCache, bench_config
from repro.resilience import FaultInjected, FaultPlan, RunRegistry, \
    SimulatedKill, inject_faults

MICRO = bench_config(phase1_epochs=2, finetune_epochs=2,
                     model_kwargs={"width": 4})
SAMPLERS = ("none", "smote", "eos")
KILL_CELL = "t2/cifar10_like/ce/eos"


def sweep_spec():
    return MatrixSpec("table2", config=MICRO, losses=("ce",),
                      samplers=SAMPLERS)


@pytest.fixture(scope="module")
def reference():
    """The uninterrupted run every store scenario is compared to."""
    return run_matrix(sweep_spec(), cache=ExtractorCache())


class TestKillResumeStore:
    def test_killed_run_resumes_without_duplicate_or_lost_rows(
            self, tmp_path, reference):
        store_path = tmp_path / "evals.sqlite"
        registry = RunRegistry(tmp_path / "run")
        plan = FaultPlan()
        plan.inject("sweep.cell", action="kill", when={"cell": KILL_CELL})
        with ResultStore(store_path) as store:
            with inject_faults(plan):
                with pytest.raises(SimulatedKill):
                    run_matrix(sweep_spec(), store=store,
                               cache=ExtractorCache(registry=registry),
                               registry=registry)

            # The kill lost only the in-flight cell; the cells finished
            # before it are durable in the checkpoint manifest, and the
            # store holds nothing of the unfinished run.
            assert RunRegistry(tmp_path / "run").cell_statuses() == {
                "t2/cifar10_like/ce/none": "done",
                "t2/cifar10_like/ce/smote": "done",
            }
            assert store.runs() == []

        # Resume in a fresh process-equivalent: new store handle, new
        # registry handle, new cache, no faults.
        with ResultStore(store_path) as store:
            resumed = run_matrix(
                sweep_spec(), store=store,
                cache=ExtractorCache(registry=RunRegistry(tmp_path / "run")),
                registry=RunRegistry(tmp_path / "run"),
            )

            # The resumed run is the store's only run, reproduced the
            # reference exactly, and holds exactly one row per cell: the
            # cells resumed from the manifest and the recomputed one.
            run_id = resumed.store_run_id
            assert [run["run_id"] for run in store.runs()] == [run_id]
            assert resumed.report == reference.report
            assert resumed.cells == reference.cells
            assert resumed.degraded == []
            rows = store.cell_rows(run_id)
            assert len(rows) == 3
            assert len({(row["cell_id"], row["status"])
                        for row in rows}) == 3
            assert store.run_row(run_id)["status"] == "complete"

            # Regeneration is a pure view over the store: byte-identical
            # to the live report, no retraining.
            assert regenerate(store, "table2") == reference.report

            # A completed run is not resumable; replaying the sweep from
            # the checkpoint opens a NEW run (append-only history) whose
            # rows and report still match.
            replayed = run_matrix(
                sweep_spec(), store=store,
                cache=ExtractorCache(registry=RunRegistry(tmp_path / "run")),
                registry=RunRegistry(tmp_path / "run"),
            )
            assert replayed.store_run_id != run_id
            assert replayed.report == reference.report
            assert len(store.cell_rows(replayed.store_run_id)) == 3
            assert len(store.cell_rows(run_id)) == 3
            assert regenerate(store, "table2",
                              run_id=replayed.store_run_id) \
                == reference.report


class TestNoRunBeforeItFinishes:
    """The store sees a run only once it has finished: an interrupted
    run leaves no row, with or without a checkpoint registry."""

    def test_killed_table_run_without_registry_leaves_no_run(self, tmp_path):
        plan = FaultPlan()
        plan.inject("sweep.cell", action="kill", when={"cell": KILL_CELL})
        with ResultStore(tmp_path / "evals.sqlite") as store:
            with inject_faults(plan):
                with pytest.raises(SimulatedKill):
                    run_matrix(sweep_spec(), store=store,
                               cache=ExtractorCache())
            assert store.runs() == []
            assert "0 run(s), 0 cell row(s)" in store.summary()

    def test_figure_that_raises_leaves_no_run(self, tmp_path):
        plan = FaultPlan()
        plan.inject("phase1.trial", action="raise")
        with ResultStore(tmp_path / "evals.sqlite") as store:
            with inject_faults(plan):
                with pytest.raises(FaultInjected):
                    run_matrix(MatrixSpec("figure4", config=MICRO),
                               store=store, cache=ExtractorCache())
            assert store.runs() == []
