"""Tests for repro.evals: the declarative experiment matrix and its
axis checks, the seed-mean view, the sqlite result store, store-backed
regeneration, the ``repro-report`` CLI and the view keys it shares with
``python -m repro.experiments``, and the EVAL001 lint rule.

The store/regeneration tests run on synthetic cell payloads (no
training); the worker-determinism test and the seed-mean view tests
execute real micro-scale sweeps, the latter over one shared
``ExtractorCache`` so each (seed, loss) extractor trains once.

Note: nothing here imports sqlite3 — EVAL001 pins all sqlite access to
``repro.evals.store``, and the lint gate checks this tree too.
"""

import dataclasses
import json
import os
import statistics
import warnings

import pytest

from repro import telemetry
from repro.analysis import LintEngine
from repro.evals import (
    ALL_VIEWS,
    VIEW_KEYS,
    EvalsStoreError,
    MatrixSpec,
    ResultStore,
    compile_matrix,
    degraded_summary,
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
from repro.experiments import ExtractorCache, bench_config, evaluate_sampler
from repro.experiments.result import RunResult
from repro.resilience import CellFailure, FaultPlan, inject_faults
from repro.utils import format_float

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
        # Paper-shape summaries are defined on the base grid only; a
        # seed axis is averaged over instead.
        assert plan.summary == {"kind": "seed_mean", "seeds": [0, 1],
                                "key_index": 3, "column": 3}

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

    @pytest.mark.parametrize("view, axes, message", [
        ("table2", {"losses": ("ce",), "samplers": ("eos",),
                    "seeds": (0, 0)}, "the seeds axis repeats 0"),
        ("table2", {"losses": ("ce", "ce"), "samplers": ("eos", "eos")},
         "the losses axis repeats 'ce'"),
        ("table4", {"k_values": (5, 5)}, "the k_values axis repeats 5"),
        ("table2", {"hyper": {"finetune_lr": (0.1, 0.2, 0.1)}},
         "the hyper 'finetune_lr' axis repeats 0.1"),
        ("table5", {"architectures": (("resnet8", {}),
                                      ("resnet8", {"width_multiplier": 1}))},
         "the architectures axis repeats 'resnet8'"),
        ("figure3", {"samplers": ("eos", "smote", "eos")},
         "the samplers axis repeats 'eos'"),
    ])
    def test_repeated_axis_value_is_rejected_before_any_work(
            self, view, axes, message, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("run_matrix started work")

        monkeypatch.setattr(runner_module, "_run_grid", no_work)
        monkeypatch.setattr(runner_module, "_run_figure", no_work)
        spec = MatrixSpec(view, config=MICRO, **axes)
        store = tmp_path / "evals.sqlite"
        with pytest.raises(ValueError, match=message):
            run_matrix(spec, store=store)
        assert not store.exists()
        if view.startswith("table"):
            with pytest.raises(ValueError, match=message):
                compile_matrix(spec)

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
# Seed-mean view: MatrixSpec(seeds=...) on a real micro sweep
# ----------------------------------------------------------------------
SEEDED = bench_config(phase1_epochs=4)
SEEDED_SAMPLERS = ("none", "eos")


def seeded_spec(**axes):
    return MatrixSpec("table2", config=SEEDED, losses=("ce",),
                      samplers=SEEDED_SAMPLERS, **axes)


@pytest.fixture(scope="module")
def seeded_cache():
    return ExtractorCache()


@pytest.fixture(scope="module")
def seeded_run(seeded_cache, tmp_path_factory):
    """A two-seed Table II run, recorded into a store."""
    path = tmp_path_factory.mktemp("seeded") / "evals.sqlite"
    out = run_matrix(seeded_spec(seeds=(0, 1)), cache=seeded_cache,
                     store=path)
    return out, path


def mean_and_pstdev(cells, group, metric, seeds=(0, 1)):
    """Mean and population std of ``metric`` over a group's seed cells."""
    values = [cells[group[:3] + (seed,) + group[3:]][metric]
              for seed in seeds]
    return statistics.fmean(values), statistics.pstdev(values)


def assert_seed_means(out, n=2):
    for group, entry in out["seed_means"].items():
        assert entry["n"] == n
        for metric in ("bac", "gm", "fm"):
            mean, std = mean_and_pstdev(out.cells, group, metric)
            assert entry[metric] == (pytest.approx(mean, abs=1e-12),
                                     pytest.approx(std, abs=1e-12))


class TestSeedMeanView:
    def test_each_seed_cell_equals_its_single_seed_run(
            self, seeded_run, seeded_cache):
        out, _ = seeded_run
        for seed in (0, 1):
            single = run_matrix(
                MatrixSpec("table2", config=SEEDED.with_overrides(seed=seed),
                           losses=("ce",), samplers=SEEDED_SAMPLERS),
                cache=seeded_cache,
            )
            for name in SEEDED_SAMPLERS:
                assert (out.cells[("cifar10_like", "ce", name, seed)]
                        == single.cells[("cifar10_like", "ce", name)])

    def test_seed_means_are_mean_and_population_std(self, seeded_run):
        out, _ = seeded_run
        means = out["seed_means"]
        assert list(means) == [("cifar10_like", "ce", name)
                               for name in SEEDED_SAMPLERS]
        assert_seed_means(out)
        bac, bac_std = means[("cifar10_like", "ce", "eos")]["bac"]
        row = "cifar10_like | ce   | eos     | %s ±%s" % (
            format_float(bac), format_float(bac_std, 3))
        assert "Mean ± std over seeds 0, 1" in out.report
        assert row in out.report

    def test_eos_seed_mean_bac_beats_the_baseline(self, seeded_run):
        """The paper's multi-cut protocol at micro scale."""
        means = seeded_run[0]["seed_means"]
        assert (means[("cifar10_like", "ce", "eos")]["bac"][0]
                > means[("cifar10_like", "ce", "none")]["bac"][0])

    def test_regenerated_seed_view_is_byte_identical(self, seeded_run):
        out, path = seeded_run
        with ResultStore(path) as store:
            assert regenerate(store, "table2") == out.report

    def test_failed_seed_is_left_out_of_its_mean(
            self, seeded_run, seeded_cache, tmp_path):
        reference = seeded_run[0]
        plan = FaultPlan()
        plan.inject("sweep.cell", action="raise", times=None,
                    when={"cell": "t2/cifar10_like/ce/eos/seed=1"})
        path = tmp_path / "evals.sqlite"
        with inject_faults(plan):
            out = run_matrix(seeded_spec(seeds=(0, 1)), cache=seeded_cache,
                             store=path)
        assert out.degraded == [("cifar10_like", "ce", "eos", 1)]
        eos = out["seed_means"][("cifar10_like", "ce", "eos")]
        assert eos["n"] == 1
        for metric in ("bac", "gm", "fm"):
            value = reference.cells[("cifar10_like", "ce", "eos", 0)][metric]
            assert eos[metric] == (value, 0.0)
        assert (out["seed_means"][("cifar10_like", "ce", "none")]
                == reference["seed_means"][("cifar10_like", "ce", "none")])
        assert "DEGRADED: 1 / 4 cell(s) failed" in out.report
        assert out.report.endswith(degraded_summary(out.cells))
        with ResultStore(path) as store:
            assert regenerate(store, "table2") == out.report

    def test_hyper_values_keep_their_own_rows(self, seeded_run,
                                              seeded_cache):
        reference = seeded_run[0]
        lrs = (0.02, SEEDED.finetune_lr)
        out = run_matrix(seeded_spec(seeds=(0, 1),
                                     hyper={"finetune_lr": lrs}),
                         cache=seeded_cache)
        assert SEEDED == bench_config(phase1_epochs=4)  # not mutated
        means = out["seed_means"]
        assert list(means) == [("cifar10_like", "ce", name, lr)
                               for lr in lrs for name in SEEDED_SAMPLERS]
        assert_seed_means(out)
        # Each cell fine-tunes at its own rate, although both rates
        # share the seed's cached extractor.
        for seed in (0, 1):
            artifacts = seeded_cache.get(SEEDED.with_overrides(seed=seed),
                                         "ce")
            assert (out.cells[("cifar10_like", "ce", "eos", seed, 0.02)]
                    == evaluate_sampler(artifacts, "eos", seed=seed,
                                        finetune_lr=0.02))
        for name in SEEDED_SAMPLERS:
            assert (means[("cifar10_like", "ce", name, SEEDED.finetune_lr)]
                    == reference["seed_means"][("cifar10_like", "ce", name)])
        table = out.report.split("Mean ± std over seeds 0, 1")[1]
        assert "sampler | finetune_lr | BAC" in table
        assert "| eos     | 0.02        |" in table

    def test_all_failed_row_prints_a_dash(self):
        plan = compile_matrix(MatrixSpec("table2", losses=("ce",),
                                         samplers=("none", "eos"),
                                         seeds=(0, 1)))
        failure = CellFailure("diverged", error_type="DivergenceError")
        results = {cell.key: (failure if cell.sampler == "eos"
                              else fake_metrics(cell.key[-1]))
                   for cell in plan.cells}
        report, extras = render_view(plan, results)
        assert extras["seed_means"][("cifar10_like", "ce", "eos")] == {
            "bac": None, "gm": None, "fm": None, "n": 0,
        }
        seed_table = report.split("Mean ± std over seeds 0, 1")[1]
        rows = [[cell.strip() for cell in line.split("|")]
                for line in seed_table.splitlines()]
        assert ["cifar10_like", "ce", "eos", "-", "-", "-", "0"] in rows
        assert ["cifar10_like", "ce", "none", ".5050 ±.005", ".4050 ±.005",
                ".3000 ±.000", "2"] in rows


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------
class TestResultStore:
    def test_round_trip_and_idempotent_recording(self, tmp_path):
        cell = {"position": 0, "cell_id": "t2/cifar10_like/ce/none",
                "key": ("cifar10_like", "ce", "none"), "status": "done",
                "payload": fake_metrics(0)}
        with ResultStore(tmp_path / "evals.sqlite") as store:
            # A repeated cell must not duplicate rows.
            run_id = store.record_run(
                "table2", fingerprint="fp", spec={"view": "table2"},
                report="the table", extras={"eos_wins": 1},
                cells=[cell] * 3, telemetry={"counters": {}}, seconds=1.5,
            )
            assert len(store.cell_rows(run_id)) == 1
            assert store.cell_results(run_id)[cell["cell_id"]] == {
                "status": "done", "position": 0, "key": cell["key"],
                "payload": fake_metrics(0)}
            row = store.run_row(run_id)
            assert row["status"] == "complete"
            assert row["report"] == "the table"
            assert row["fingerprint"] == "fp"
            assert json.loads(row["extras_json"]) == {"eos_wins": 1}
            assert row["seconds"] == 1.5
            assert row["created_wall"] == row["finished_wall"]
            assert len(store.telemetry_rows(run_id)) == 1
            assert store.latest_run_id("table2") == run_id
            assert store.latest_run_id("table2", status="complete") == run_id
            assert store.latest_run_id("table5") is None
            assert "1 run(s), 1 cell row(s)" in store.summary()

    def test_cell_results_prefers_done_over_failed(self, tmp_path):
        with ResultStore(tmp_path / "evals.sqlite") as store:
            key = ("cifar10_like", "ce", "smote")
            failure = CellFailure("diverged", error_type="DivergenceError",
                                  attempts=2)
            run_id = store.record_run("table2", cells=[
                {"position": 0, "cell_id": "t2/c/ce/smote", "key": key,
                 "status": status, "payload": payload}
                for status, payload in (("failed", failure.to_payload()),
                                        ("done", fake_metrics(1)))
            ])
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
def synthetic_run(store, failing=(), plan=None):
    """Record a fake-but-complete table2 run; returns the live report."""
    spec = MatrixSpec("table2", losses=("ce",), samplers=("none", "eos"))
    plan = plan or compile_matrix(spec)
    results = {}
    cells = []
    for index, cell in enumerate(plan.cells):
        if cell.key in failing:
            failure = CellFailure("diverged",
                                  error_type="DivergenceError", attempts=2)
            results[cell.key] = failure
            status, payload = "failed", failure.to_payload()
        else:
            results[cell.key] = fake_metrics(index)
            status, payload = "done", results[cell.key]
        cells.append({"position": index, "cell_id": cell.cell_id,
                      "key": cell.key, "status": status, "payload": payload})
    report, _ = render_view(plan, results)
    store.record_run("table2", fingerprint="fp", spec=spec_to_payload(spec),
                     plan=plan_to_payload(plan), report=report, cells=cells)
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

    def test_seed_run_stored_without_the_seed_view_regenerates_as_is(
            self, tmp_path):
        plan = compile_matrix(MatrixSpec("table2", losses=("ce",),
                                         samplers=("none", "eos"),
                                         seeds=(0, 1)))
        older = dataclasses.replace(plan, summary={"kind": "none"})
        with ResultStore(tmp_path / "evals.sqlite") as store:
            live = synthetic_run(store, plan=older)
            regen = regenerate(store, "table2")
        assert regen == live
        assert "Mean ± std" not in regen

    def test_incomplete_run_refuses_to_regenerate(self, tmp_path):
        with ResultStore(tmp_path / "evals.sqlite") as store:
            spec = MatrixSpec("table2", losses=("ce",),
                              samplers=("none", "eos"))
            plan = compile_matrix(spec)
            cell = plan.cells[0]
            store.record_run("table2", plan=plan_to_payload(plan), cells=[
                {"position": 0, "cell_id": cell.cell_id, "key": cell.key,
                 "status": "done", "payload": fake_metrics(0)}])
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

    @pytest.mark.parametrize("names", [["missing.json"],
                                       ["good.json", "bad.json"]])
    def test_ingest_bench_fails_cleanly_on_a_bad_record(
            self, names, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "good.json").write_text(
            json.dumps(perfbench_record(20.0, 0.3, "aaa111")))
        (tmp_path / "bad.json").write_text('{"workloads": ')
        assert report_main(["ingest-bench", "--store", "S.sqlite",
                            *names]) == 2
        out, err = capsys.readouterr()
        assert "ingested" not in out
        assert err.startswith("repro-report: error: ")
        assert names[-1] in err
        assert not (tmp_path / "S.sqlite").exists()

    def test_options_may_follow_the_positional_arguments(self, tmp_path,
                                                         capsys):
        path = str(tmp_path / "evals.sqlite")
        record = tmp_path / "record.json"
        record.write_text(json.dumps(perfbench_record(20.0, 0.3, "aaa111")))
        assert report_main(["ingest-bench", "--store", path,
                            str(record)]) == 0
        assert "as 'embed-sweep'" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["ingest-bench", "record.json", "--run-id", "3"],
        ["runs", "--run-id", "3"],
        ["perf", "--run-id", "3"],
        ["trace", "trace.jsonl", "--run-id", "3"],
        ["t2", "--format", "json"],
        ["ingest-bench", "record.json", "--format", "json"],
        ["trace"],
        ["trace", "a.jsonl", "b.jsonl"],
    ])
    def test_options_outside_their_target_are_rejected(
            self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            report_main(argv)
        assert excinfo.value.code == 2
        assert os.listdir(tmp_path) == []  # no store was created

    def test_trace_needs_no_store(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        trace = tmp_path / "trace.jsonl"
        with telemetry.session(trace_out=str(trace)) as tracer:
            with tracer.span("phase1"):
                pass
        assert report_main(["trace", "--format", "json", str(trace)]) == 0
        assert json.loads(capsys.readouterr().out)["n_spans"] == 1
        assert os.listdir(tmp_path) == ["trace.jsonl"]

    def test_unknown_target_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            report_main(["table9", "--store", str(tmp_path / "s.sqlite")])


# ----------------------------------------------------------------------
# View keys: one table read by both CLIs
# ----------------------------------------------------------------------
class TestViewKeys:
    def test_every_key_names_a_view_once(self):
        assert sorted(VIEW_KEYS.values()) == sorted(ALL_VIEWS)

    def test_both_clis_accept_the_same_keys(self, tmp_path, monkeypatch):
        from repro.experiments import __main__ as experiments_cli

        assert list(experiments_cli.build_registry(MICRO, (), None)) \
            == list(VIEW_KEYS)
        path = tmp_path / "evals.sqlite"
        ResultStore(path).close()
        regenerated = []
        monkeypatch.setattr(
            "repro.evals.__main__.regenerate",
            lambda store, view, run_id=None: regenerated.append(view) or "",
        )
        for key in VIEW_KEYS:
            assert report_main([key, "--store", str(path)]) == 0
        assert regenerated == list(VIEW_KEYS.values())

    def test_experiments_cli_builds_the_same_specs(self, monkeypatch):
        from repro.experiments import __main__ as experiments_cli

        monkeypatch.setattr(experiments_cli, "run_matrix",
                            lambda spec, **kwargs: spec)
        datasets = ("svhn_like", "celeba_like")
        registry = experiments_cli.build_registry(MICRO, datasets, None)
        specs = {key: runner() for key, (_, runner) in registry.items()}
        read = {"t1", "t2", "t3", "t4", "f4"}
        assert specs == {
            key: MatrixSpec(view, config=MICRO,
                            datasets=datasets if key in read else None)
            for key, view in {
                "t1": "table1", "t2": "table2", "t3": "table3",
                "t4": "table4", "t5": "table5", "f3": "figure3",
                "f4": "figure4", "f5": "figure5", "f6": "figure6",
                "f7": "figure7", "rt": "runtime_comparison",
                "px": "eos_pixel_vs_embedding",
            }.items()
        }


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
