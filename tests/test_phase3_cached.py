"""Phase 3 on what phase 1 cached.

Two mechanisms keep phase 3 cheap, and neither may change an output:

* every prediction is scored from the cached phase-1 embeddings through
  the current head, with no CNN pass over images.  That is valid only
  because the backbone stays frozen after phase 1;
* plain cross-entropy on a ``Linear`` head fine-tunes with a tape-free
  numpy step, which must match the taped step bit for bit.
"""

import numpy as np
import pytest

from repro.core import finetune_classifier, predict_logits
from repro.core.framework import _buffered_ce_step
from repro.evals import MatrixSpec, run_matrix
from repro.experiments import ExtractorCache, bench_config
from repro.experiments.pipeline import (
    evaluate_sampler,
    prewarm_extractors,
    train_phase1,
)
from repro.losses import (
    AsymmetricLoss,
    CrossEntropyLoss,
    FocalLoss,
    LDAMLoss,
)
from repro.metrics import evaluate_predictions
from repro.nn import ImageClassifier, Linear
from repro.optim import SGD
from repro.resilience import DivergenceError, RunRegistry
from repro.telemetry import profile_ops
from repro.tensor import (
    AnomalyError,
    Tensor,
    check_gradients,
    default_dtype,
    detect_anomaly,
    using_default_dtype,
)

TABLE2_SAMPLERS = ("none", "smote", "bsmote", "balsvm", "eos")


class HeadOnly(ImageClassifier):
    """An image classifier reduced to its ``Linear`` head."""

    def __init__(self, dim, num_classes, seed=0):
        super().__init__()
        self.feature_dim = dim
        self.classifier = Linear(
            dim, num_classes, rng=np.random.default_rng(seed)
        )


def _data(n, dim, num_classes, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim)), rng.integers(0, num_classes, n)


def taped_reference(model, embeddings, labels, epochs, batch_size,
                    weight_decay=0.0):
    """``finetune_classifier``'s loop, through the autograd tape."""
    rng = np.random.default_rng(0)
    loss = CrossEntropyLoss()
    optimizer = SGD(model.classifier.parameters(), lr=0.05, momentum=0.9,
                    weight_decay=weight_decay)
    embeddings = np.asarray(embeddings, dtype=default_dtype())
    losses = []
    for _ in range(epochs):
        order = rng.permutation(embeddings.shape[0])
        total, batches = 0.0, 0
        for start in range(0, embeddings.shape[0], batch_size):
            idx = order[start : start + batch_size]
            optimizer.zero_grad()
            value = loss(model.forward_head(Tensor(embeddings[idx])),
                         labels[idx])
            value.backward()
            total += float(value.data)
            batches += 1
            optimizer.step()
        losses.append(total / batches)
    return losses


# ----------------------------------------------------------------------
# The tape-free step
# ----------------------------------------------------------------------
class TestTapeFreeStep:
    # (n, D, C, batch_size); every n leaves a ragged last batch.
    SHAPES = [(50, 16, 3, 16), (129, 24, 10, 64), (7, 5, 2, 3),
              (200, 32, 7, 33), (97, 12, 5, 10)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_taped_reference_bitwise(self, dtype, shape):
        n, dim, num_classes, batch_size = shape
        embeddings, labels = _data(n, dim, num_classes, seed=n)
        with using_default_dtype(dtype):
            reference = HeadOnly(dim, num_classes)
            expected = taped_reference(reference, embeddings, labels,
                                       epochs=3, batch_size=batch_size,
                                       weight_decay=1e-4)
            model = HeadOnly(dim, num_classes)
            history = finetune_classifier(
                model, embeddings, labels, epochs=3, batch_size=batch_size,
                weight_decay=1e-4, rng=np.random.default_rng(0),
            )
        assert [record["loss"] for record in history] == expected
        for name in ("weight", "bias"):
            got = getattr(model.classifier, name).data
            want = getattr(reference.classifier, name).data
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want), name

    def test_head_without_bias_matches_taped_reference(self):
        embeddings, labels = _data(45, 8, 4)
        models = []
        for _ in range(2):
            model = HeadOnly(8, 4)
            model.classifier = Linear(8, 4, bias=False,
                                      rng=np.random.default_rng(1))
            models.append(model)
        expected = taped_reference(models[0], embeddings, labels, epochs=2,
                                   batch_size=16)
        history = finetune_classifier(models[1], embeddings, labels,
                                      epochs=2, batch_size=16,
                                      rng=np.random.default_rng(0))
        assert [record["loss"] for record in history] == expected
        assert np.array_equal(models[0].classifier.weight.data,
                              models[1].classifier.weight.data)

    def test_gradients_pass_gradcheck(self):
        """The step's gradients, fed to the tape as one op's backward,
        agree with central differences of the step's own loss."""
        with using_default_dtype(np.float64):
            embeddings, labels = _data(12, 5, 3)
            head = Linear(5, 3, rng=np.random.default_rng(2))
            weight = Tensor(head.weight.data.copy(), requires_grad=True)
            bias = Tensor(np.full(3, 0.1, dtype=np.float64),
                          requires_grad=True)

            step = _buffered_ce_step(head, embeddings.dtype)

            def tape_free_loss(w, b):
                head.weight.data[...] = w.data
                head.bias.data[...] = b.data
                loss = step(embeddings, labels)
                # The step overwrites its gradient buffers on every call.
                grad_w = head.weight.grad.copy()
                grad_b = head.bias.grad.copy()
                return Tensor._from_op(
                    np.asarray(loss), (w, b),
                    lambda g: (g * grad_w, g * grad_b),
                )

            assert check_gradients(tape_free_loss, [weight, bias])

    def test_runs_without_tape_under_profile_ops(self):
        embeddings, labels = _data(40, 6, 3)
        with profile_ops() as prof:
            finetune_classifier(HeadOnly(6, 3), embeddings, labels,
                                epochs=2, batch_size=16,
                                rng=np.random.default_rng(0))
            stats = prof.stats()
        assert stats["backward"] == {}
        assert stats["forward_ops"] == {}


# ----------------------------------------------------------------------
# Where the tape must stay
# ----------------------------------------------------------------------
class TestTapeStaysWhereNeeded:
    @pytest.mark.parametrize("make_loss", [
        lambda counts: FocalLoss(),
        lambda counts: LDAMLoss(counts),
        lambda counts: AsymmetricLoss(),
        lambda counts: CrossEntropyLoss(weight=1.0 / counts),
    ], ids=["focal", "ldam", "asl", "weighted_ce"])
    def test_other_losses_run_on_the_tape(self, make_loss):
        embeddings, labels = _data(40, 6, 3)
        counts = np.bincount(labels, minlength=3).astype(np.float64)
        with profile_ops() as prof:
            finetune_classifier(HeadOnly(6, 3), embeddings, labels,
                                epochs=1, batch_size=16,
                                loss=make_loss(counts),
                                rng=np.random.default_rng(0))
            stats = prof.stats()
        assert stats["backward"]["__matmul__"]["count"] == 3

    def test_nan_embedding_under_sanitizer_names_the_matmul(self):
        embeddings, labels = _data(16, 6, 3)
        embeddings[3, 2] = np.nan
        with detect_anomaly():
            with pytest.raises(AnomalyError, match="__matmul__"):
                finetune_classifier(HeadOnly(6, 3), embeddings, labels,
                                    epochs=1, batch_size=16,
                                    rng=np.random.default_rng(0))

    def test_nan_embedding_without_sanitizer_diverges(self):
        embeddings, labels = _data(16, 6, 3)
        embeddings[3, 2] = np.nan
        with pytest.raises(DivergenceError) as err:
            finetune_classifier(HeadOnly(6, 3), embeddings, labels,
                                epochs=1, batch_size=16,
                                rng=np.random.default_rng(0))
        assert err.value.phase == "finetune"
        assert err.value.epoch == 0 and err.value.batch == 0


# ----------------------------------------------------------------------
# Scoring from cached embeddings
# ----------------------------------------------------------------------
def _config(dataset):
    return bench_config(dataset=dataset, phase1_epochs=2, finetune_epochs=2)


def _assert_cached_scoring_matches_images(artifacts):
    model = artifacts.model
    for embeddings, images in (
        (artifacts.test_embeddings, artifacts.test.images),
        (artifacts.train_embeddings, artifacts.train.images),
    ):
        expected = predict_logits(model, images).argmax(axis=1)
        assert np.array_equal(artifacts.predict(embeddings), expected)


def _backbone_state(model):
    return {key: value for key, value in model.state_dict().items()
            if not key.split(":", 1)[1].startswith("classifier.")}


@pytest.fixture(scope="module")
def extractors():
    return {dataset: train_phase1(_config(dataset), "ce")
            for dataset in ("cifar10_like", "svhn_like")}


class TestCachedScoring:
    @pytest.mark.parametrize("dataset", ["cifar10_like", "svhn_like"])
    def test_baseline_equals_image_scoring(self, extractors, dataset):
        artifacts = extractors[dataset]
        artifacts.restore_head()
        preds = predict_logits(artifacts.model,
                               artifacts.test.images).argmax(axis=1)
        assert artifacts.baseline_metrics == evaluate_predictions(
            artifacts.test.labels, preds, artifacts.test.num_classes
        )

    @pytest.mark.parametrize("sampler", ["smote", "eos"])
    @pytest.mark.parametrize("dataset", ["cifar10_like", "svhn_like"])
    def test_finetuned_head_equals_image_scoring(self, extractors, dataset,
                                                 sampler):
        artifacts = extractors[dataset]
        metrics = evaluate_sampler(artifacts, sampler)
        _assert_cached_scoring_matches_images(artifacts)
        preds = predict_logits(artifacts.model,
                               artifacts.test.images).argmax(axis=1)
        assert metrics == evaluate_predictions(
            artifacts.test.labels, preds, artifacts.info["num_classes"]
        )

    def test_registry_reloaded_artifacts(self, tmp_path):
        config = _config("cifar10_like")
        trained = train_phase1(config, "ce",
                               registry=RunRegistry(tmp_path / "run"))
        reloaded = train_phase1(config, "ce",
                                registry=RunRegistry(tmp_path / "run"))
        assert reloaded is not trained
        assert np.array_equal(reloaded.test_embeddings,
                              trained.test_embeddings)
        for sampler in ("smote", "eos"):
            assert (evaluate_sampler(reloaded, sampler)
                    == evaluate_sampler(trained, sampler))
            _assert_cached_scoring_matches_images(reloaded)

    def test_prewarmed_artifacts(self):
        configs = [_config("cifar10_like"), _config("svhn_like")]
        cache = ExtractorCache()
        warmed = prewarm_extractors(
            cache, [(config, "ce") for config in configs], max_workers=2
        )
        assert warmed == 2
        for config in configs:
            artifacts = cache.get(config, "ce")
            for sampler in ("smote", "eos"):
                evaluate_sampler(artifacts, sampler)
                _assert_cached_scoring_matches_images(artifacts)
        assert cache.stats()["misses"] == 0


# ----------------------------------------------------------------------
# The frozen backbone cached scoring relies on
# ----------------------------------------------------------------------
class TestBackboneFrozen:
    def test_table2_samplers_and_figure7_leave_backbone_untouched(self):
        config = _config("cifar10_like")
        cache = ExtractorCache()
        artifacts = cache.get(config, "ce")
        phase1 = _backbone_state(artifacts.model)
        assert phase1  # the backbone has parameters and buffers
        for sampler in TABLE2_SAMPLERS:
            evaluate_sampler(artifacts, sampler)
        run_matrix(MatrixSpec("figure7", config=config,
                              options={"epochs": 2}), cache=cache)
        after = _backbone_state(artifacts.model)
        assert after.keys() == phase1.keys()
        for key, value in phase1.items():
            assert np.array_equal(after[key], value), key
