"""Micro-scale smoke tests for the paper views not covered elsewhere.

The benchmark suite runs every view at the tiny scale with shape
assertions; these tests only verify each view's *mechanics* (payload
structure, report rendering, option handling) at the smallest possible
configuration so the unit suite stays fast.
"""

import pytest

from repro.evals import MatrixSpec, run_matrix
from repro.experiments import ExtractorCache, bench_config

MICRO = bench_config(phase1_epochs=3, finetune_epochs=3)


@pytest.fixture(scope="module")
def cache():
    return ExtractorCache()


class TestRunnerMechanics:
    def test_table1_payload(self, cache):
        out = run_matrix(MatrixSpec("table1", config=MICRO), cache=cache)
        assert ("cifar10_like", "pre", "smote") in out["results"]
        assert ("cifar10_like", "post", "smote") in out["results"]
        assert out["cells"] == 3
        assert "Table I" in out["report"]

    def test_table3_embedding_mode(self, cache):
        out = run_matrix(MatrixSpec("table3", config=MICRO,
                                    samplers=("bagan", "eos")), cache=cache)
        assert out["mode"] == "embedding"
        assert ("cifar10_like", "ce", "bagan") in out["timing"]

    def test_table5_custom_architectures(self, cache):
        out = run_matrix(
            MatrixSpec("table5", config=MICRO,
                       architectures=(("smallconvnet", {"width": 4}),)),
            cache=cache,
        )
        assert ("smallconvnet", "baseline") in out["results"]
        assert ("smallconvnet", "eos") in out["results"]

    def test_figure6_payload(self, cache):
        out = run_matrix(
            MatrixSpec("figure6", config=MICRO, samplers=("none", "eos"),
                       options={"majority_class": 0, "minority_class": 9,
                                "max_points": 60}),
            cache=cache,
        )
        coords, labels = out["embeddings"]["eos"]
        assert coords.shape[1] == 2
        assert set(labels) <= {0, 9}

    def test_runtime_payload(self):
        out = run_matrix(MatrixSpec("runtime_comparison", config=MICRO,
                                    samplers=("smote",)))
        assert out["speedup"] > 0
        assert len(out["pre_seconds"]) == 1

    def test_figure3_report_includes_chart(self, cache):
        out = run_matrix(MatrixSpec("figure3", config=MICRO, losses=("ce",),
                                    samplers=("none", "eos")), cache=cache)
        assert "legend:" in out["report"]

    def test_figure7_report_includes_chart(self, cache):
        out = run_matrix(MatrixSpec("figure7", config=MICRO,
                                    samplers=("eos",), options={"epochs": 2}),
                         cache=cache)
        assert "legend:" in out["report"]

    def test_eos_pixel_vs_embedding_payload(self, cache):
        out = run_matrix(MatrixSpec("eos_pixel_vs_embedding", config=MICRO),
                         cache=cache)
        assert "EOS in pixel space" in out.report
        assert "EOS in embedding space" in out.report
        assert out["delta_bac"] == (out["embedding"]["bac"]
                                    - out["pixel"]["bac"])
