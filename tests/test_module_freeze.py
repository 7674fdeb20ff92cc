"""Tests for parameter freezing and the pixel-mode Table III view."""

import numpy as np
import pytest

from repro.evals import MatrixSpec, run_matrix
from repro.nn import SmallConvNet
from repro.tensor import Tensor


class TestRequiresGrad:
    def test_freeze_blocks_gradients(self):
        model = SmallConvNet(num_classes=3, width=4, rng=np.random.default_rng(0))
        model.requires_grad_(False)
        model.classifier.requires_grad_(True)
        out = model(Tensor(np.random.default_rng(1).normal(size=(2, 3, 8, 8))))
        out.sum().backward()
        assert model.conv1.weight.grad is None
        assert model.classifier.weight.grad is not None

    def test_unfreeze_restores(self):
        model = SmallConvNet(num_classes=3, width=4, rng=np.random.default_rng(0))
        model.requires_grad_(False).requires_grad_(True)
        assert all(p.requires_grad for p in model.parameters())

    def test_returns_self_for_chaining(self):
        model = SmallConvNet(num_classes=2, width=4, rng=np.random.default_rng(0))
        assert model.requires_grad_(False) is model


class TestTable3Modes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            run_matrix(MatrixSpec("table3", mode="latent"))

    def test_pixel_mode_runs_gan_as_preprocessing(self):
        from repro.experiments import ExtractorCache, bench_config

        config = bench_config(phase1_epochs=3)
        out = run_matrix(
            MatrixSpec("table3", config=config, samplers=("bagan", "eos"),
                       mode="pixel"),
            cache=ExtractorCache(),
        )
        assert out["mode"] == "pixel"
        # The GAN pre-processing row includes full retraining, so it must
        # cost much more than the EOS embedding pipeline's resample+tune.
        key_gan = ("cifar10_like", "ce", "bagan")
        key_eos = ("cifar10_like", "ce", "eos")
        assert out["timing"][key_gan] > out["timing"][key_eos]
