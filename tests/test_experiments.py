"""Tests for the experiment harness (configs, pipeline, paper views).

View tests use a session-cached tiny extractor so the whole file stays
fast; they verify mechanics and the paper's robust *shape* claims, not
absolute numbers.
"""

import numpy as np
import pytest

from repro.evals import MatrixSpec, run_matrix
from repro.experiments import (
    ExperimentConfig,
    ExtractorCache,
    bench_config,
    build_sampler,
    evaluate_sampler,
)
from repro.experiments.pipeline import train_phase1


@pytest.fixture(scope="module")
def cache():
    return ExtractorCache()


@pytest.fixture(scope="module")
def config():
    return bench_config(phase1_epochs=12)


@pytest.fixture(scope="module")
def artifacts(cache, config):
    return cache.get(config, "ce")


class TestConfig:
    def test_with_overrides_copies(self):
        a = bench_config()
        b = a.with_overrides(dataset="svhn_like")
        assert a.dataset == "cifar10_like"
        assert b.dataset == "svhn_like"

    def test_defaults_sane(self):
        config = ExperimentConfig()
        assert config.k_neighbors == 10
        assert config.finetune_epochs == 10  # the paper's setting

    @pytest.mark.parametrize(
        "name",
        ["ros", "smote", "bsmote", "balsvm", "adasyn", "remix",
         "eos", "eos_away", "cgan", "bagan", "gamo"],
    )
    def test_build_sampler_all_names(self, name):
        sampler = build_sampler(name, k_neighbors=3, random_state=0)
        assert hasattr(sampler, "fit_resample")

    def test_build_sampler_none(self):
        assert build_sampler("none") is None

    def test_build_sampler_unknown(self):
        with pytest.raises(KeyError):
            build_sampler("mixup")

    def test_eos_away_direction(self):
        assert build_sampler("eos_away").direction == "away"


class TestPipeline:
    def test_artifacts_fields(self, artifacts):
        assert artifacts.train_embeddings.shape[0] == len(artifacts.train)
        assert artifacts.test_embeddings.shape[0] == len(artifacts.test)
        assert set(artifacts.baseline_metrics) == {"bac", "gm", "fm"}

    def test_cache_returns_same_object(self, cache, config):
        a = cache.get(config, "ce")
        b = cache.get(config, "ce")
        assert a is b

    def test_cache_distinguishes_losses(self, cache, config):
        a = cache.get(config, "ce")
        b = cache.get(config, "focal")
        assert a is not b

    def test_cache_mutation_refused_outside_owner_process(self, config):
        # Simulate the forked-child view: the pid recorded at
        # construction is not this process's pid.
        foreign = ExtractorCache()
        foreign._owner_pid += 1
        with pytest.raises(RuntimeError, match="owned by process"):
            foreign.get(config, "ce")
        with pytest.raises(RuntimeError, match="prewarm_extractors"):
            foreign.put(config, "ce", object())
        # Read-only probes stay legal from any process.
        assert foreign.contains(config, "ce") is False
        assert foreign.stats()["size"] == 0

    def test_restore_head_resets_weights(self, artifacts):
        original = artifacts.model.classifier.weight.data.copy()
        artifacts.model.classifier.weight.data[...] = 0.0
        artifacts.restore_head()
        np.testing.assert_array_equal(
            artifacts.model.classifier.weight.data, original
        )

    def test_evaluate_sampler_is_order_independent(self, artifacts):
        first = evaluate_sampler(artifacts, "smote")
        evaluate_sampler(artifacts, "eos")
        again = evaluate_sampler(artifacts, "smote")
        assert first == again

    def test_none_returns_baseline(self, artifacts):
        metrics = evaluate_sampler(artifacts, "none")
        assert metrics == artifacts.baseline_metrics

    def test_return_details(self, artifacts):
        details = evaluate_sampler(artifacts, "eos", return_details=True)
        emb, labels = details["resampled"]
        assert len(np.unique(np.bincount(labels))) == 1  # balanced
        assert details["head_weight"].shape[0] == 10

    def test_baseline_gap_rises_with_imbalance(self, artifacts):
        """The per-class gap should correlate with class index (classes
        are ordered by decreasing sample count)."""
        gap = artifacts.baseline_gap()["per_class"]
        classes = np.arange(len(gap))
        correlation = np.corrcoef(classes, gap)[0, 1]
        assert correlation > 0.3


class TestShapeClaims:
    """The paper's robust qualitative claims at tiny scale."""

    def test_resampling_beats_baseline(self, artifacts):
        base = evaluate_sampler(artifacts, "none")["bac"]
        for name in ("smote", "eos"):
            assert evaluate_sampler(artifacts, name)["bac"] > base

    def test_eos_competitive_with_smote(self, artifacts):
        eos = evaluate_sampler(artifacts, "eos")["bac"]
        smote = evaluate_sampler(artifacts, "smote")["bac"]
        assert eos >= smote - 0.08  # EOS must at least be in the same band

    def test_eos_shrinks_minority_gap(self, artifacts, config):
        """Figure-3 claim: EOS reduces the tail-class gap; SMOTE leaves
        the per-class gap curve untouched."""
        from repro.core.gap import generalization_gap

        base = artifacts.baseline_gap()["per_class"]
        tail = slice(len(base) // 2, None)

        smote = build_sampler("smote", k_neighbors=config.k_neighbors)
        emb, labels = smote.fit_resample(
            artifacts.train_embeddings, artifacts.train.labels
        )
        gap_smote = generalization_gap(
            emb, labels, artifacts.test_embeddings, artifacts.test.labels, 10
        )["per_class"]
        np.testing.assert_allclose(gap_smote, base, atol=1e-12)

        eos = build_sampler("eos", k_neighbors=config.k_neighbors)
        emb, labels = eos.fit_resample(
            artifacts.train_embeddings, artifacts.train.labels
        )
        gap_eos = generalization_gap(
            emb, labels, artifacts.test_embeddings, artifacts.test.labels, 10
        )["per_class"]
        assert np.nanmean(gap_eos[tail]) < np.nanmean(base[tail])

    def test_eos_cheaper_than_gan(self, artifacts):
        eos = evaluate_sampler(artifacts, "eos", return_details=True)
        cgan = evaluate_sampler(artifacts, "cgan", return_details=True)
        assert cgan["seconds"] > eos["seconds"]


class TestRunners:
    """Smoke tests: each view returns its structured payload + report."""

    def test_table4_k_sweep(self, config, cache):
        out = run_matrix(MatrixSpec("table4", config=config,
                                    k_values=(3, 8)), cache=cache)
        assert set(out["results"]) == {("cifar10_like", 3), ("cifar10_like", 8)}
        assert "Table IV" in out["report"]

    def test_figure4_tp_fp(self, config, cache):
        out = run_matrix(MatrixSpec("figure4", config=config), cache=cache)
        gaps = out["results"]["cifar10_like"]
        assert gaps["fp"] > gaps["tp"]  # the Figure-4 claim

    def test_figure5_norm_profiles(self, config, cache):
        out = run_matrix(MatrixSpec("figure5", config=config, losses=("ce",),
                                    samplers=("none", "eos")), cache=cache)
        assert ("ce", "eos") in out["profiles"]
        assert len(out["profiles"][("ce", "none")]) == 10

    def test_figure7_curves(self, config, cache):
        out = run_matrix(MatrixSpec("figure7", config=config,
                                    samplers=("eos",), options={"epochs": 3}),
                         cache=cache)
        history = out["curves"]["eos"]
        assert len(history) == 3
        assert "test_bac" in history[0]

    def test_table2_structure(self, config, cache):
        out = run_matrix(MatrixSpec("table2", config=config, losses=("ce",),
                                    samplers=("none", "eos")), cache=cache)
        assert ("cifar10_like", "ce", "eos") in out["results"]
        assert "BAC" in out["report"]
