"""End-to-end integration tests across modules.

These exercise realistic full flows: ResNet training on synthetic
imbalanced data, checkpoint/resume in the middle of the three-phase
pipeline, every loss driving the same framework, and the CLI entry
point.
"""

import numpy as np
import pytest

from repro.core import EOS, ThreePhaseTrainer, extract_features
from repro.data import make_dataset
from repro.losses import build_loss
from repro.nn import build_model
from repro.optim import SGD, MultiStepLR


@pytest.fixture(scope="module")
def tiny():
    return make_dataset("cifar10_like", scale="tiny", seed=3)


class TestResNetEndToEnd:
    def test_resnet_three_phase_improves_gm(self, tiny):
        """A real (reduced) ResNet through all three phases."""
        train, test, info = tiny
        model = build_model(
            "resnet8",
            num_classes=info["num_classes"],
            width_multiplier=0.25,
            rng=np.random.default_rng(0),
        )
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=5e-4)
        scheduler = MultiStepLR(opt, milestones=[8], gamma=0.1)
        trainer = ThreePhaseTrainer(
            model,
            build_loss("ce"),
            opt,
            sampler=EOS(k_neighbors=10, random_state=0),
            scheduler=scheduler,
        )
        trainer.train_phase1(train, epochs=10, rng=np.random.default_rng(1))
        before = trainer.phase1.evaluate(test)
        trainer.extract_embeddings(train)
        trainer.resample_embeddings()
        trainer.finetune(epochs=10, rng=np.random.default_rng(2))
        after = trainer.evaluate(test)
        # The GM improvement is the framework's most robust effect: the
        # imbalanced baseline scores near zero on the extreme minority.
        assert after["gm"] > before["gm"]
        assert after["bac"] > before["bac"]

    @pytest.mark.parametrize("loss_name", ["ce", "asl", "focal", "ldam"])
    def test_every_loss_drives_the_framework(self, tiny, loss_name):
        train, test, info = tiny
        model = build_model(
            "smallconvnet",
            num_classes=info["num_classes"],
            width=4,
            rng=np.random.default_rng(4),
        )
        loss = build_loss(loss_name, class_counts=info["train_counts"])
        trainer = ThreePhaseTrainer(
            model,
            loss,
            SGD(model.parameters(), lr=0.05, momentum=0.9),
            sampler=EOS(k_neighbors=5, random_state=0),
        )
        trainer.run(train, phase1_epochs=5, rng=np.random.default_rng(5))
        metrics = trainer.evaluate(test)
        assert 0.0 <= metrics["bac"] <= 1.0
        assert metrics["bac"] > 1.0 / info["num_classes"]  # beats chance


class TestCheckpointResume:
    def test_resume_phase3_from_saved_artifacts(self, tiny, tmp_path):
        """Phase-1 weights + embeddings saved to disk, then a *fresh*
        process-equivalent (new model object) resumes phase 3 and gets
        identical predictions."""
        from repro.core import finetune_classifier
        from repro.utils import (
            load_embeddings,
            load_model,
            save_embeddings,
            save_model,
        )

        train, test, info = tiny
        model = build_model(
            "smallconvnet", num_classes=10, width=4, rng=np.random.default_rng(6)
        )
        trainer = ThreePhaseTrainer(
            model, build_loss("ce"), SGD(model.parameters(), lr=0.05, momentum=0.9)
        )
        trainer.train_phase1(train, epochs=4, rng=np.random.default_rng(7))
        emb = trainer.extract_embeddings(train)
        save_model(model, tmp_path / "phase1.npz")
        save_embeddings(tmp_path / "emb.npz", emb, train.labels)

        # Resume in a fresh model.
        fresh = build_model(
            "smallconvnet", num_classes=10, width=4, rng=np.random.default_rng(99)
        )
        load_model(fresh, tmp_path / "phase1.npz")
        emb2, labels2 = load_embeddings(tmp_path / "emb.npz")
        sampler = EOS(k_neighbors=5, random_state=0)
        balanced, balanced_labels = sampler.fit_resample(emb2, labels2)

        finetune_classifier(
            fresh, balanced, balanced_labels, epochs=5,
            rng=np.random.default_rng(8),
        )
        # Continue the original in-memory pipeline identically.
        balanced_b, labels_b = EOS(k_neighbors=5, random_state=0).fit_resample(
            emb, train.labels
        )
        finetune_classifier(
            model, balanced_b, labels_b, epochs=5, rng=np.random.default_rng(8)
        )
        from repro.core.training import predict_logits

        np.testing.assert_allclose(
            predict_logits(fresh, test.images),
            predict_logits(model, test.images),
            atol=1e-10,
        )


class TestTrainingHelpers:
    def test_predict_logits_batch_invariant(self, tiny):
        train, test, info = tiny
        from repro.core.training import predict_logits

        model = build_model(
            "smallconvnet", num_classes=10, width=4, rng=np.random.default_rng(9)
        )
        a = predict_logits(model, test.images[:40], batch_size=7)
        b = predict_logits(model, test.images[:40], batch_size=40)
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)

    def test_extract_features_empty_input(self):
        model = build_model(
            "smallconvnet", num_classes=3, width=4, rng=np.random.default_rng(10)
        )
        out = extract_features(model, np.empty((0, 3, 8, 8)))
        assert out.shape[0] == 0


class TestPreprocessedPipeline:
    def test_train_preprocessed_balances_then_trains(self):
        from repro.experiments import bench_config
        from repro.experiments.pipeline import train_preprocessed

        config = bench_config(phase1_epochs=3)
        metrics, seconds = train_preprocessed(config, "ce", "smote")
        assert 0.0 <= metrics["bac"] <= 1.0
        assert seconds > 0

    def test_train_preprocessed_none_baseline(self):
        from repro.experiments import bench_config
        from repro.experiments.pipeline import train_preprocessed

        config = bench_config(phase1_epochs=2)
        metrics, _ = train_preprocessed(config, "ce", "none")
        assert 0.0 <= metrics["bac"] <= 1.0


class TestCLI:
    def test_main_runs_selected_experiment(self, capsys):
        from repro.experiments.__main__ import main

        code = main(["t4", "--scale", "tiny"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table IV" in out

    def test_main_rejects_unknown_key(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["t99"])

    @pytest.mark.parametrize("seconds", ["0", "-2"])
    def test_main_rejects_non_positive_trial_timeout_before_any_work(
            self, seconds, monkeypatch, capsys):
        from repro.experiments import __main__ as cli

        def no_work(*args, **kwargs):
            raise AssertionError("the CLI started work")

        monkeypatch.setattr(cli, "run_matrix", no_work)
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["t2", "--scale", "tiny", "--trial-timeout", seconds])
        assert exit_info.value.code == 2
        assert "--trial-timeout must be positive" in capsys.readouterr().err


class TestRetryPolicySettings:
    @pytest.mark.parametrize("seconds", [0, -1.5])
    def test_non_positive_trial_timeout_is_rejected(self, seconds):
        # Trainer.fit would otherwise time out every trial before its
        # first batch, and every cell would degrade.
        from repro.resilience import RetryPolicy

        with pytest.raises(ValueError, match="trial_timeout must be positive"):
            RetryPolicy(trial_timeout=seconds)
