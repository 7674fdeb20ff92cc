"""Tests for the GAN-based over-sampling baselines."""

import numpy as np
import pytest

from repro.gans import (
    BAGAN,
    CGAN,
    GAMO,
    FeatureScaler,
    GanCore,
    MLP,
    bce_loss,
    fit_feature_scaler,
)
from repro.tensor import Tensor


@pytest.fixture
def rng():
    return np.random.default_rng(91)


@pytest.fixture
def blob_data(rng):
    x = np.concatenate(
        [rng.normal([0, 0], 0.6, (80, 2)), rng.normal([4, 4], 0.6, (10, 2))]
    )
    y = np.array([0] * 80 + [1] * 10)
    return x, y


FAST = dict(epochs=40, random_state=1)


class TestMLPAndBCE:
    def test_mlp_shapes(self, rng):
        net = MLP([4, 8, 2], rng=rng)
        out = net(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 2)

    def test_mlp_output_activations(self, rng):
        sig = MLP([3, 4, 1], out_activation="sigmoid", rng=rng)
        out = sig(Tensor(rng.normal(size=(10, 3)))).data
        assert np.all((out > 0) & (out < 1))
        tanh = MLP([3, 4, 2], out_activation="tanh", rng=rng)
        out = tanh(Tensor(rng.normal(size=(10, 3)))).data
        assert np.all(np.abs(out) < 1)

    def test_mlp_too_few_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_bce_matches_formula(self):
        probs = Tensor(np.array([[0.9], [0.1]]))
        targets = np.array([[1.0], [0.0]])
        expected = -(np.log(0.9) + np.log(0.9)) / 2
        assert float(bce_loss(probs, targets).data) == pytest.approx(expected)

    def test_bce_gradient_flows(self, rng):
        logits = Tensor(rng.normal(size=(4, 1)), requires_grad=True)
        bce_loss(logits.sigmoid(), np.ones((4, 1))).backward()
        assert logits.grad is not None


class TestFeatureScaler:
    def test_roundtrip(self, rng):
        x = rng.normal(3.0, 5.0, size=(50, 4))
        scaler = fit_feature_scaler(x)
        np.testing.assert_allclose(scaler.inverse(scaler.transform(x)), x)

    def test_range_is_unit(self, rng):
        x = rng.normal(size=(50, 3))
        t = fit_feature_scaler(x).transform(x)
        assert t.min() == pytest.approx(-1.0)
        assert t.max() == pytest.approx(1.0)

    def test_constant_feature_no_nan(self):
        x = np.ones((10, 2))
        scaler = fit_feature_scaler(x)
        assert np.all(np.isfinite(scaler.transform(x)))


class TestGanCore:
    def test_training_step_runs_and_records(self, rng):
        gen = MLP([4, 8, 2], out_activation="tanh", rng=rng)
        disc = MLP([2, 8, 1], out_activation="sigmoid", rng=rng)
        gan = GanCore(gen, disc, latent_dim=4, seed=0)
        d_loss, g_loss = gan.train_step(rng.normal(size=(16, 2)))
        assert np.isfinite(d_loss) and np.isfinite(g_loss)
        assert len(gan.d_losses) == 1

    def test_generate_shape(self, rng):
        gen = MLP([4, 8, 3], out_activation="tanh", rng=rng)
        disc = MLP([3, 8, 1], out_activation="sigmoid", rng=rng)
        gan = GanCore(gen, disc, latent_dim=4, seed=0)
        assert gan.generate(7).shape == (7, 3)

    def test_conditional_path(self, rng):
        """Label-conditioned generation: generator and discriminator both
        receive a one-hot condition appended to their inputs."""
        num_classes = 2
        gen = MLP([4 + num_classes, 16, 2], out_activation="tanh", rng=rng)
        disc = MLP([2 + num_classes, 16, 1], out_activation="sigmoid", rng=rng)
        gan = GanCore(gen, disc, latent_dim=4, seed=0)
        real = rng.normal(size=(8, 2)).clip(-1, 1)
        cond = np.eye(num_classes)[rng.integers(0, num_classes, 8)]
        d_loss, g_loss = gan.train_step(real, cond_real=cond, cond_fake=cond)
        assert np.isfinite(d_loss) and np.isfinite(g_loss)
        out = gan.generate(5, cond=np.eye(num_classes)[np.zeros(5, int)])
        assert out.shape == (5, 2)

    def test_learns_simple_distribution(self, rng):
        """After training on a shifted blob, generated samples should move
        toward the real mean."""
        real = rng.normal(0.5, 0.2, size=(200, 2)).clip(-1, 1)
        gen = MLP([4, 16, 2], out_activation="tanh", rng=rng)
        disc = MLP([2, 16, 1], out_activation="sigmoid", rng=rng)
        gan = GanCore(gen, disc, latent_dim=4, lr=5e-3, seed=0)
        before = np.abs(gan.generate(200).mean(axis=0) - 0.5).mean()
        for _ in range(150):
            idx = gan.rng.integers(0, 200, 32)
            gan.train_step(real[idx])
        after = np.abs(gan.generate(200).mean(axis=0) - 0.5).mean()
        assert after < before


class TestGanSamplers:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: CGAN(**FAST),
            lambda: BAGAN(ae_epochs=60, gan_epochs=30, random_state=1),
            lambda: GAMO(**FAST),
        ],
        ids=["cgan", "bagan", "gamo"],
    )
    def test_balances_and_preserves_originals(self, factory, blob_data):
        x, y = blob_data
        sampler = factory()
        xr, yr = sampler.fit_resample(x, y)
        np.testing.assert_array_equal(np.bincount(yr), [80, 80])
        np.testing.assert_array_equal(xr[: len(x)], x)
        assert sampler.fit_seconds > 0

    def test_cgan_trains_one_model_per_class(self, rng):
        x = np.concatenate(
            [rng.normal(0, 1, (30, 2)), rng.normal(3, 1, (6, 2)),
             rng.normal(-3, 1, (4, 2))]
        )
        y = np.array([0] * 30 + [1] * 6 + [2] * 4)
        sampler = CGAN(**FAST)
        sampler.fit_resample(x, y)
        assert sampler.models_trained == 2  # one per deficient class

    def test_cgan_synthetic_near_class(self, blob_data):
        x, y = blob_data
        xr, yr = CGAN(epochs=120, random_state=0).fit_resample(x, y)
        synth = xr[len(x):]
        # Synthetic minority samples nearer the minority centroid.
        d_min = np.linalg.norm(synth - [4, 4], axis=1).mean()
        d_maj = np.linalg.norm(synth - [0, 0], axis=1).mean()
        assert d_min < d_maj

    def test_gamo_stays_in_convex_hull(self, blob_data):
        """GAMO's defining constraint: synthetic points are convex
        combinations of real minority points, hence inside the bounding box
        (contrast with EOS which escapes it)."""
        x, y = blob_data
        xr, yr = GAMO(**FAST).fit_resample(x, y)
        synth = xr[len(x):]
        lo = x[y == 1].min(axis=0) - 1e-9
        hi = x[y == 1].max(axis=0) + 1e-9
        assert np.all(synth >= lo) and np.all(synth <= hi)

    def test_gamo_singleton_duplicates(self, rng):
        x = np.concatenate([rng.normal(size=(10, 2)), [[5.0, 5.0]]])
        y = np.array([0] * 10 + [1])
        xr, yr = GAMO(**FAST).fit_resample(x, y)
        np.testing.assert_allclose(xr[11:], [[5.0, 5.0]] * 9)

    def test_bagan_latent_gaussians_per_class(self, blob_data, rng):
        x, y = blob_data
        sampler = BAGAN(ae_epochs=60, gan_epochs=0, random_state=0)
        from repro.gans.base import fit_feature_scaler

        scaler = fit_feature_scaler(x)
        encoder, _ = sampler._pretrain_autoencoder(
            scaler.transform(x), np.random.default_rng(0)
        )
        gaussians = sampler._class_latent_gaussians(encoder, scaler.transform(x), y)
        assert set(gaussians) == {0, 1}
        mean0, std0 = gaussians[0]
        assert mean0.shape == (sampler.latent_dim,)
        assert np.all(std0 > 0)

    def test_balanced_input_noop(self, rng):
        x = rng.normal(size=(20, 2))
        y = np.array([0, 1] * 10)
        for sampler in (CGAN(**FAST), GAMO(**FAST)):
            xr, yr = sampler.fit_resample(x, y)
            assert len(xr) == 20

    def test_gans_cost_more_than_eos(self, blob_data):
        """The paper's efficiency argument: GAN resampling must cost
        meaningfully more wall-clock than EOS on the same data."""
        from repro.core import EOS
        from repro.telemetry import monotonic

        x, y = blob_data
        start = monotonic()
        EOS(k_neighbors=5, random_state=0).fit_resample(x, y)
        eos_time = monotonic() - start
        sampler = CGAN(epochs=150, random_state=0)
        sampler.fit_resample(x, y)
        assert sampler.fit_seconds > 2 * eos_time
