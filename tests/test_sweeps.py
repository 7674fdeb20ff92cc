"""Tests for config-field grid sweeps: the ``hyper`` axis of MatrixSpec."""

import itertools

import pytest

from repro.evals import MatrixSpec, compile_matrix, render_view, run_matrix
from repro.experiments import ExtractorCache, bench_config, evaluate_sampler

MICRO = dict(phase1_epochs=2, finetune_epochs=2, model_kwargs={"width": 4})


def grid_spec(config, hyper):
    return MatrixSpec("table2", config=config, losses=("ce",),
                      samplers=("eos",), hyper=hyper)


@pytest.fixture(scope="module")
def micro_cache():
    return ExtractorCache()


class TestGridSweep:
    def test_crosses_all_combinations(self):
        plan = compile_matrix(grid_spec(
            bench_config(),
            {"k_neighbors": [5, 10], "finetune_epochs": [3, 6, 9]},
        ))
        seen = [(cell.overrides["k_neighbors"],
                 cell.overrides["finetune_epochs"]) for cell in plan.cells]
        assert len(plan.cells) == 6
        assert sorted(seen) == sorted(itertools.product((5, 10), (3, 6, 9)))

    def test_records_params_and_metrics(self):
        plan = compile_matrix(grid_spec(bench_config(), {"k_neighbors": [7]}))
        (cell,) = plan.cells
        assert cell.overrides["k_neighbors"] == 7
        assert cell.key == ("cifar10_like", "ce", "eos", 7)
        report, _ = render_view(plan, {cell.key: {"bac": 0.5, "gm": 0.4,
                                                  "fm": 0.3}})
        assert "| k_neighbors |" in report
        assert "| eos     | 7           | .5000 | .4000 | .3000" in report

    def test_unknown_field_raises(self):
        with pytest.raises(KeyError):
            run_matrix(grid_spec(bench_config(), {"learning_rate": [0.1]}))

    def test_base_config_not_mutated(self, micro_cache):
        config = bench_config(**MICRO)
        out = run_matrix(grid_spec(config, {"k_neighbors": [99]}),
                         cache=micro_cache)
        assert config.k_neighbors == 10
        assert config == bench_config(**MICRO)
        assert list(out.cells) == [("cifar10_like", "ce", "eos", 99)]

    def test_parallel_matches_serial(self, micro_cache):
        spec = grid_spec(bench_config(**MICRO),
                         {"k_neighbors": [3, 5, 7, 9]})
        serial = run_matrix(spec, cache=micro_cache, workers=1)
        parallel = run_matrix(spec, cache=micro_cache, workers=2)
        assert parallel.cells == serial.cells
        assert parallel.report == serial.report


class TestSweepReport:
    def test_integration_with_real_evaluation(self):
        """A real micro-sweep: fine-tune length over a cached extractor."""
        cache = ExtractorCache()
        config = bench_config(phase1_epochs=3)
        out = run_matrix(grid_spec(config, {"finetune_epochs": [1, 5]}),
                         cache=cache)
        assert "finetune_epochs" in out.report
        assert len(out.cells) == 2
        artifacts = cache.get(config, "ce")
        for epochs in (1, 5):
            assert (out.cells[("cifar10_like", "ce", "eos", epochs)]
                    == evaluate_sampler(artifacts, "eos", seed=config.seed,
                                        finetune_epochs=epochs))
