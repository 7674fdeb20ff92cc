"""Numerical-stability stress tests: extreme inputs must stay finite."""

import numpy as np
import pytest

from repro.losses import AsymmetricLoss, CrossEntropyLoss, FocalLoss, LDAMLoss
from repro.tensor import Tensor, log_softmax, softmax

EXTREME_LOGITS = [
    np.array([[1e3, -1e3, 0.0], [5e2, 5e2, 5e2]]),
    np.array([[-1e3, -1e3, -1e3], [1e-30, 0.0, -1e-30]]),
]


class TestSoftmaxStability:
    @pytest.mark.parametrize("logits", EXTREME_LOGITS)
    def test_softmax_finite(self, logits):
        out = softmax(Tensor(logits)).data
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    @pytest.mark.parametrize("logits", EXTREME_LOGITS)
    def test_log_softmax_finite_gradient(self, logits):
        t = Tensor(logits, requires_grad=True)
        log_softmax(t).sum().backward()
        assert np.all(np.isfinite(t.grad))


class TestLossStability:
    @pytest.mark.parametrize("logits", EXTREME_LOGITS)
    @pytest.mark.parametrize(
        "loss_factory",
        [
            lambda: CrossEntropyLoss(),
            lambda: FocalLoss(gamma=2.0),
            lambda: LDAMLoss([30, 20, 10]),
            lambda: AsymmetricLoss(),
        ],
        ids=["ce", "focal", "ldam", "asl"],
    )
    def test_loss_and_gradient_finite(self, logits, loss_factory):
        t = Tensor(logits, requires_grad=True)
        targets = np.array([0, 2])
        value = loss_factory()(t, targets)
        assert np.isfinite(float(value.data))
        value.backward()
        assert np.all(np.isfinite(t.grad))


class TestTrainingWithExtremeInputs:
    def test_batchnorm_constant_input_finite(self):
        """A constant-channel batch (zero variance) must not blow up."""
        from repro.nn import BatchNorm2d

        bn = BatchNorm2d(2)
        x = Tensor(np.full((4, 2, 3, 3), 7.0, dtype=np.float64), requires_grad=True)
        out = bn(x)
        assert np.all(np.isfinite(out.data))
        out.sum().backward()
        assert np.all(np.isfinite(x.grad))

    def test_sgd_survives_huge_gradient_with_clipping(self):
        from repro.nn import Parameter
        from repro.optim import SGD, clip_grad_norm

        p = Parameter(np.array([1.0]))
        p.grad = np.array([1e12])
        clip_grad_norm([p], max_norm=1.0)
        SGD([p], lr=0.1).step()
        assert np.isfinite(p.data[0])
        assert abs(p.data[0] - 0.9) < 1e-9

    def test_knn_with_identical_points(self):
        from repro.neighbors import KNeighbors

        data = np.zeros((10, 3))
        index = KNeighbors(k=3).fit(data)
        dists, idx = index.query(data, exclude_self=True)
        assert np.all(np.isfinite(dists))

    def test_eos_with_degenerate_features(self):
        """All-identical minority features (zero variance) stay finite."""
        from repro.core import EOS

        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(size=(20, 4)), np.ones((3, 4))])
        y = np.array([0] * 20 + [1] * 3)
        xr, yr = EOS(k_neighbors=5, random_state=0).fit_resample(x, y)
        assert np.all(np.isfinite(xr))

    def test_tsne_with_duplicate_points(self):
        from repro.manifold import TSNE

        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(size=(10, 3)), np.zeros((5, 3))])
        out = TSNE(n_iter=40, perplexity=4, seed=0).fit_transform(x)
        assert np.all(np.isfinite(out))
