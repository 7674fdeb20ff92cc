"""Tests for repro.evals: the declarative experiment matrix and its
axis check, the sqlite result store, store-backed regeneration, the
``repro-report`` CLI, and the EVAL001 lint rule.

The store/regeneration tests run on synthetic cell payloads (no
training); only the worker-determinism test executes a real
(micro-scale, two-cell) sweep.

Note: nothing here imports sqlite3 — EVAL001 pins all sqlite access to
``repro.evals.store``, and the lint gate checks this tree too.
"""

import json
import os
import warnings

import pytest

from repro.analysis import LintEngine
from repro.evals import (
    EvalsStoreError,
    MatrixSpec,
    ResultStore,
    compile_matrix,
    plan_from_payload,
    plan_to_payload,
    regenerate,
    render_view,
    run_matrix,
    spec_to_payload,
)
from repro.evals import runner as runner_module
from repro.evals import store as store_module
from repro.evals.__main__ import main as report_main
from repro.experiments import ExtractorCache, bench_config
from repro.experiments.result import RunResult
from repro.resilience import CellFailure

MICRO = bench_config(phase1_epochs=2, finetune_epochs=2,
                     model_kwargs={"width": 4})


def fake_metrics(i):
    return {"bac": 0.5 + 0.01 * i, "gm": 0.4 + 0.01 * i, "fm": 0.3}


# ----------------------------------------------------------------------
# Matrix compilation
# ----------------------------------------------------------------------
class TestMatrixCompile:
    def test_compilation_is_deterministic(self):
        spec = MatrixSpec("table2")
        first = compile_matrix(spec)
        second = compile_matrix(MatrixSpec("table2"))
        assert [c.cell_id for c in first.cells] == \
            [c.cell_id for c in second.cells]
        assert [c.key for c in first.cells] == [c.key for c in second.cells]
        assert first.headers == second.headers
        assert first.prewarm == second.prewarm

    def test_table2_defaults_match_legacy_grid(self):
        plan = compile_matrix(MatrixSpec("table2"))
        # 1 dataset x 4 losses x 5 samplers, nested iteration order.
        assert len(plan.cells) == 20
        assert plan.cells[0].cell_id == "t2/cifar10_like/ce/none"
        assert plan.cells[0].key == ("cifar10_like", "ce", "none")
        assert plan.cells[5].cell_id == "t2/cifar10_like/asl/none"
        assert plan.summary["kind"] == "eos_wins"
        # One extractor per (dataset, loss).
        assert len(plan.prewarm) == 4

    def test_seed_axis_expands_every_base_cell(self):
        spec = MatrixSpec("table2", losses=("ce",), samplers=("none",),
                          seeds=(0, 1))
        plan = compile_matrix(spec)
        assert [c.cell_id for c in plan.cells] == [
            "t2/cifar10_like/ce/none/seed=0",
            "t2/cifar10_like/ce/none/seed=1",
        ]
        assert plan.cells[0].key == ("cifar10_like", "ce", "none", 0)
        assert plan.cells[1].overrides["seed"] == 1
        assert "seed" in plan.headers
        # Paper-shape summaries are defined on the base grid only.
        assert plan.summary == {"kind": "none"}

    def test_hyper_axis_is_a_cross_product(self):
        spec = MatrixSpec("table2", losses=("ce",), samplers=("none",),
                          seeds=(0, 1), hyper={"finetune_lr": (0.1, 0.2)})
        plan = compile_matrix(spec)
        assert len(plan.cells) == 4
        assert plan.cells[0].cell_id == \
            "t2/cifar10_like/ce/none/seed=0/finetune_lr=0.1"
        assert plan.cells[0].overrides == {
            "dataset": "cifar10_like", "seed": 0, "finetune_lr": 0.1,
        }
        assert plan.cells[-1].key == ("cifar10_like", "ce", "none", 1, 0.2)
        assert plan.headers[-5:] == ("seed", "finetune_lr",
                                     "BAC", "GM", "FM")

    def test_include_exclude_filter_cells_and_prewarm(self):
        plan = compile_matrix(
            MatrixSpec("table2", include=lambda cell: cell.sampler == "eos")
        )
        assert len(plan.cells) == 4
        assert all(c.sampler == "eos" for c in plan.cells)
        assert len(plan.prewarm) == 4
        excluded = compile_matrix(
            MatrixSpec("table2", losses=("ce",),
                       exclude=lambda cell: cell.sampler == "eos")
        )
        assert [c.sampler for c in excluded.cells] == \
            ["none", "smote", "bsmote", "balsvm"]

    def test_table3_mode_is_validated(self):
        with pytest.raises(ValueError):
            compile_matrix(MatrixSpec("table3", mode="bogus"))
        pixel = compile_matrix(MatrixSpec("table3", mode="pixel"))
        kinds = {c.sampler: c.kind for c in pixel.cells}
        assert kinds["eos"] == "timed_sampler"
        assert kinds["gamo"] == "preprocessed"
        assert pixel.show_seconds

    def test_figure_and_unknown_views_are_rejected(self):
        with pytest.raises(ValueError):
            compile_matrix(MatrixSpec("figure3"))
        with pytest.raises(ValueError):
            compile_matrix(MatrixSpec("table9"))

    def test_plan_round_trips_through_json(self):
        plan = compile_matrix(MatrixSpec("table2"))
        payload = json.loads(json.dumps(plan_to_payload(plan)))
        rebuilt = plan_from_payload(payload)
        assert rebuilt.title == plan.title
        assert rebuilt.headers == plan.headers
        assert [c.cell_id for c in rebuilt.cells] == \
            [c.cell_id for c in plan.cells]
        results = {c.key: fake_metrics(i) for i, c in enumerate(plan.cells)}
        assert render_view(rebuilt, results) == render_view(plan, results)

    def test_unknown_hyper_field_is_rejected_before_running(self):
        spec = MatrixSpec("table2", config=MICRO,
                          hyper={"not_a_config_field": (1,)})
        with pytest.raises(KeyError):
            run_matrix(spec)

    @pytest.mark.parametrize("view, axis, value", [
        ("table1", "losses", ("ldam",)),
        ("table4", "losses", ("ldam",)),
        ("table4", "samplers", ("smote",)),
        ("table5", "datasets", ("svhn_like",)),
        ("table2", "options", {"epochs": 3}),
        ("figure3", "seeds", (0, 1)),
        ("figure4", "samplers", ("eos",)),
        ("figure7", "hyper", {"finetune_lr": (0.1,)}),
        ("runtime_comparison", "options", {"epochs": 3}),
        ("eos_pixel_vs_embedding", "datasets", ("svhn_like",)),
    ])
    def test_unread_axis_is_rejected_before_any_work(
            self, view, axis, value, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("run_matrix started work")

        monkeypatch.setattr(runner_module, "_run_grid", no_work)
        monkeypatch.setattr(runner_module, "_run_figure", no_work)
        spec = MatrixSpec(view, config=MICRO, **{axis: value})
        store = tmp_path / "evals.sqlite"
        with pytest.raises(ValueError, match="%r.*%r" % (view, axis)):
            run_matrix(spec, store=store)
        assert not store.exists()
        if view.startswith("table"):
            with pytest.raises(ValueError, match=repr(axis)):
                compile_matrix(spec)


# ----------------------------------------------------------------------
# RunResult: typed fields + read-only Mapping of the view's outputs
# ----------------------------------------------------------------------
class TestRunResult:
    def make(self, **kwargs):
        failure = CellFailure("boom", error_type="DivergenceError")
        data = {"results": {("a",): fake_metrics(0), ("b",): failure},
                "report": "table text"}
        return RunResult(data, telemetry={"runner": "table2"}, **kwargs)

    def test_attribute_access_is_silent(self):
        out = self.make()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert out.report == "table text"
            assert out.cells == out["results"]
            assert out.telemetry["runner"] == "table2"
            assert out.degraded == [("b",)]
            assert out.store_run_id is None
            assert len(out) == 4

    def test_dict_access_warns(self):
        out = self.make()
        assert out["report"] == "table text"
        assert set(dict(out)) == {"results", "report", "telemetry",
                                  "degraded"}

    def test_store_run_id_key_only_when_recorded(self):
        out = self.make(store_run_id=7)
        assert out.store_run_id == 7
        assert len(out) == 5
        assert out["store_run_id"] == 7


# ----------------------------------------------------------------------
# Worker determinism on a real micro sweep
# ----------------------------------------------------------------------
class TestWorkerDeterminism:
    def test_parallel_run_matches_serial(self):
        cache = ExtractorCache()
        spec = MatrixSpec("table2", config=MICRO, losses=("ce",),
                          samplers=("none", "smote"))
        serial = run_matrix(spec, cache=cache)
        parallel = run_matrix(spec, cache=cache, workers=2)
        assert parallel.report == serial.report
        assert parallel.cells == serial.cells


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_round_trip_and_idempotent_recording(self, tmp_path):
        with ResultStore(tmp_path / "evals.sqlite") as store:
            run_id = store.begin_run("table2", fingerprint="fp",
                                     spec={"view": "table2"})
            assert store.run_row(run_id)["status"] == "running"
            assert store.is_resumable_run(run_id, "fp")
            assert not store.is_resumable_run(run_id, "other-fp")

            key = ("cifar10_like", "ce", "none")
            for _ in range(3):  # replays must not duplicate rows
                store.record_cell(run_id, "t2/cifar10_like/ce/none", 0,
                                  key, "done", fake_metrics(0))
            assert len(store.cell_rows(run_id)) == 1

            store.finish_run(
                run_id, report="the table", extras={"eos_wins": 1},
                cells=[{"position": 0, "cell_id": "t2/cifar10_like/ce/none",
                        "key": key, "status": "done",
                        "payload": fake_metrics(0)}],
            )
            assert len(store.cell_rows(run_id)) == 1
            row = store.run_row(run_id)
            assert row["status"] == "complete"
            assert row["report"] == "the table"
            assert not store.is_resumable_run(run_id, "fp")
            assert store.latest_run_id("table2") == run_id
            assert store.latest_run_id("table2", status="complete") == run_id
            assert store.latest_run_id("table5") is None
            assert "1 run(s), 1 cell row(s)" in store.summary()

    def test_cell_results_prefers_done_over_failed(self, tmp_path):
        with ResultStore(tmp_path / "evals.sqlite") as store:
            run_id = store.begin_run("table2")
            key = ("cifar10_like", "ce", "smote")
            failure = CellFailure("diverged", error_type="DivergenceError",
                                  attempts=2)
            store.record_cell(run_id, "t2/c/ce/smote", 0, key, "failed",
                              failure.to_payload())
            store.record_cell(run_id, "t2/c/ce/smote", 0, key, "done",
                              fake_metrics(1))
            assert len(store.cell_rows(run_id)) == 2
            best = store.cell_results(run_id)["t2/c/ce/smote"]
            assert best["status"] == "done"
            assert best["key"] == key
            assert best["payload"] == fake_metrics(1)

    def test_schema_version_mismatch_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "evals.sqlite"
        ResultStore(path).close()
        monkeypatch.setattr(store_module, "SCHEMA_VERSION",
                            store_module.SCHEMA_VERSION + 1)
        with pytest.raises(EvalsStoreError):
            ResultStore(path)

    def test_bench_history(self, tmp_path):
        with ResultStore(tmp_path / "evals.sqlite") as store:
            store.record_bench("resample", {"seconds": 1.5}, source="a.json")
            store.record_bench("resample", {"seconds": 1.2})
            rows = store.bench_rows("resample")
            assert [json.loads(r["payload_json"])["seconds"] for r in rows] \
                == [1.5, 1.2]
            assert store.bench_rows("other") == []


# ----------------------------------------------------------------------
# Regeneration as a view over the store
# ----------------------------------------------------------------------
def synthetic_run(store, failing=()):
    """Record a fake-but-complete table2 run; returns the live report."""
    spec = MatrixSpec("table2", losses=("ce",), samplers=("none", "eos"))
    plan = compile_matrix(spec)
    results = {}
    run_id = store.begin_run("table2", fingerprint="fp",
                             spec=spec_to_payload(spec),
                             plan=plan_to_payload(plan))
    for index, cell in enumerate(plan.cells):
        if cell.key in failing:
            failure = CellFailure("diverged",
                                  error_type="DivergenceError", attempts=2)
            results[cell.key] = failure
            store.record_cell(run_id, cell.cell_id, index, cell.key,
                              "failed", failure.to_payload())
        else:
            results[cell.key] = fake_metrics(index)
            store.record_cell(run_id, cell.cell_id, index, cell.key,
                              "done", results[cell.key])
    report, _ = render_view(plan, results)
    store.finish_run(run_id, report=report)
    return report


class TestRegenerate:
    def test_regenerated_report_is_byte_identical(self, tmp_path):
        with ResultStore(tmp_path / "evals.sqlite") as store:
            live = synthetic_run(store)
            assert regenerate(store, "table2") == live

    def test_failed_cells_regenerate_as_degraded_rows(self, tmp_path):
        with ResultStore(tmp_path / "evals.sqlite") as store:
            live = synthetic_run(store,
                                 failing={("cifar10_like", "ce", "eos")})
            regen = regenerate(store, "table2")
            assert regen == live
            assert "FAILED(DivergenceError" in regen
            assert "DEGRADED: 1 / 2 cell(s) failed" in regen

    def test_incomplete_run_refuses_to_regenerate(self, tmp_path):
        with ResultStore(tmp_path / "evals.sqlite") as store:
            spec = MatrixSpec("table2", losses=("ce",),
                              samplers=("none", "eos"))
            plan = compile_matrix(spec)
            run_id = store.begin_run("table2",
                                     plan=plan_to_payload(plan))
            cell = plan.cells[0]
            store.record_cell(run_id, cell.cell_id, 0, cell.key, "done",
                              fake_metrics(0))
            with pytest.raises(EvalsStoreError, match="missing 1 cell"):
                regenerate(store, "table2")

    def test_empty_store_raises(self, tmp_path):
        with ResultStore(tmp_path / "evals.sqlite") as store:
            with pytest.raises(EvalsStoreError, match="no run"):
                regenerate(store, "table2")


# ----------------------------------------------------------------------
# repro-report CLI
# ----------------------------------------------------------------------
def perfbench_record(throughput, finetune_batch_s, git_sha):
    """A ``perfbench/bench.py --out`` record of one traced workload."""
    samples = [throughput - 1.0, throughput, throughput + 1.0]
    return {
        "seed": 0,
        "seconds": 15,
        "env": {"git_sha": git_sha, "cpu_count": 2, "python": "3.11.9"},
        "workloads": {"embed-sweep": {
            "timed": {"metrics": {"throughput": {
                "n": 3, "median": throughput, "q1": samples[0],
                "q3": samples[2], "unit": "ops/s", "samples": samples,
            }}},
            "traced": {"per_layer": {
                "core.finetune_batch_s": finetune_batch_s,
                "core.finetune_batches": 2400,
            }},
        }},
    }


def perf_deltas(out, field):
    """The "Δ vs prev" cells of every BENCH history row for ``field``."""
    cells = [[cell.strip() for cell in line.split("|")]
             for line in out.splitlines()]
    return [row[3] for row in cells if len(row) == 4 and row[1] == field]


class TestReportCLI:
    def test_missing_store_is_an_error(self, tmp_path, capsys):
        assert report_main(["t2", "--store",
                            str(tmp_path / "nope.sqlite")]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_view_runs_and_perf_targets(self, tmp_path, capsys):
        path = str(tmp_path / "evals.sqlite")
        with ResultStore(path) as store:
            live = synthetic_run(store)

        assert report_main(["t2", "--store", path]) == 0
        assert capsys.readouterr().out.strip() == live.strip()

        assert report_main(["runs", "--store", path]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "complete" in out

        assert report_main(["perf", "--store", path]) == 0
        assert "Perf trajectory" in capsys.readouterr().out

    def test_ingest_bench_feeds_perf_history(self, tmp_path, capsys):
        path = str(tmp_path / "evals.sqlite")
        bench = tmp_path / "BENCH_resample.json"
        bench.write_text(json.dumps(
            {"benchmark": "resample", "eos": {"seconds": 1.5}}
        ))
        assert report_main(["ingest-bench", str(bench),
                            "--store", path]) == 0
        assert "ingested" in capsys.readouterr().out
        records = []
        for name, throughput, finetune_batch_s, git_sha in (
            ("base.json", 20.0, 0.30, "aaa111"),
            ("new.json", 22.5, 0.25, "bbb222"),
        ):
            records.append(tmp_path / name)
            records[-1].write_text(json.dumps(
                perfbench_record(throughput, finetune_batch_s, git_sha)
            ))
        assert report_main(["ingest-bench", *map(str, records),
                            "--store", path]) == 0
        assert capsys.readouterr().out.count("as 'embed-sweep'") == 2
        single = tmp_path / "single.json"
        single.write_text(json.dumps({
            "workload": "serve-resample", "seed": 3,
            "env": {"git_sha": "bbb222", "cpu_count": 2},
            "metrics": {"throughput": {"median": 31.5}},
        }))
        assert report_main(["ingest-bench", str(single),
                            "--store", path]) == 0
        assert "as 'serve-resample'" in capsys.readouterr().out
        assert report_main(["perf", "--store", path]) == 0
        out = capsys.readouterr().out
        assert "resample" in out and "eos.seconds" in out
        timed = "timed.metrics.throughput.median"
        traced = "traced.per_layer.core.finetune_batch_s"
        assert perf_deltas(out, timed) == ["-", "+2.5000"]
        assert perf_deltas(out, traced) == ["-", "-0.0500"]
        with ResultStore(path) as store:
            entries = [json.loads(row["payload_json"])
                       for row in store.bench_rows("embed-sweep")]
        assert [(e["env"], e["seed"]) for e in entries] == [
            ({"git_sha": "aaa111", "cpu_count": 2}, 0),
            ({"git_sha": "bbb222", "cpu_count": 2}, 0),
        ]

    def test_unknown_target_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            report_main(["table9", "--store", str(tmp_path / "s.sqlite")])


# ----------------------------------------------------------------------
# EVAL001: sqlite is pinned to repro.evals.store
# ----------------------------------------------------------------------
class TestDirectSqliteRule:
    def test_flags_sqlite_outside_the_store_module(self, tmp_path):
        offender = tmp_path / "offender.py"
        offender.write_text(
            "import sqlite3\nconn = sqlite3.connect('x.db')\n"
        )
        report = LintEngine(select=["EVAL001"]).run([tmp_path])
        assert {f.rule for f in report.findings} == {"EVAL001"}
        assert len(report.findings) == 2  # the import and the connect

    def test_store_module_is_exempt(self, tmp_path):
        store_py = tmp_path / "evals" / "store.py"
        store_py.parent.mkdir()
        store_py.write_text(
            "import sqlite3\nconn = sqlite3.connect('x.db')\n"
        )
        report = LintEngine(select=["EVAL001"]).run([tmp_path])
        assert report.findings == []

    def test_src_tree_has_exactly_one_sqlite_module(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        report = LintEngine(select=["EVAL001"]).run([src])
        assert report.findings == []
