"""Tests for tensor.functional helpers (one_hot, nll_loss, dropout, linear)."""

import numpy as np
import pytest

from repro.tensor import Tensor, dropout, linear, log_softmax, nll_loss, one_hot


@pytest.fixture
def rng():
    return np.random.default_rng(171)


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(
            out.data, [[1, 0, 0], [0, 0, 1], [0, 1, 0]]
        )

    def test_accepts_tensor_labels(self):
        out = one_hot(Tensor(np.array([1, 0])), 2)
        np.testing.assert_array_equal(out.data, [[0, 1], [1, 0]])

    def test_detached(self):
        assert not one_hot(np.array([0]), 2).requires_grad

    def test_dtype(self):
        out = one_hot(np.array([0]), 2, dtype=np.float32)
        assert out.dtype == np.float32


class TestNllLoss:
    def _log_probs(self, rng, n=4, c=3, grad=True):
        return log_softmax(Tensor(rng.normal(size=(n, c)), requires_grad=grad))

    def test_mean_reduction_matches_manual(self, rng):
        lp = self._log_probs(rng)
        t = np.array([0, 1, 2, 0])
        loss = nll_loss(lp, t)
        manual = -lp.data[np.arange(4), t].mean()
        assert float(loss.data) == pytest.approx(manual)

    def test_sum_reduction(self, rng):
        lp = self._log_probs(rng)
        t = np.array([0, 1, 2, 0])
        loss = nll_loss(lp, t, reduction="sum")
        manual = -lp.data[np.arange(4), t].sum()
        assert float(loss.data) == pytest.approx(manual)

    def test_none_reduction_shape(self, rng):
        lp = self._log_probs(rng)
        t = np.array([0, 1, 2, 0])
        assert nll_loss(lp, t, reduction="none").shape == (4,)

    def test_weighted_mean_is_weighted(self, rng):
        """PyTorch semantics: mean divides by the summed sample weights."""
        lp = self._log_probs(rng)
        t = np.array([0, 1, 2, 0])
        w = np.array([2.0, 1.0, 1.0])
        loss = nll_loss(lp, t, weight=w)
        sample_w = w[t]
        manual = -(lp.data[np.arange(4), t] * sample_w).sum() / sample_w.sum()
        assert float(loss.data) == pytest.approx(manual)

    def test_unknown_reduction(self, rng):
        lp = self._log_probs(rng)
        with pytest.raises(ValueError):
            nll_loss(lp, np.array([0, 0, 0, 0]), reduction="avg")

    def test_gradient_for_each_reduction(self, rng):
        for reduction in ("mean", "sum"):
            lp = self._log_probs(rng)
            t = np.array([0, 1, 2, 0])
            nll_loss(lp, t, reduction=reduction).backward()

    def test_no_grad_input_returns_plain_tensor(self, rng):
        lp = self._log_probs(rng, grad=False)
        loss = nll_loss(lp, np.array([0, 1, 2, 0]))
        assert not loss.requires_grad


class TestDropout:
    def test_eval_is_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        out = dropout(x, p=0.9, training=False)
        assert out is x

    def test_p_zero_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        assert dropout(x, p=0.0) is x

    def test_mask_reused_in_backward(self, rng):
        x = Tensor(np.ones((200, 10), dtype=np.float64), requires_grad=True)
        out = dropout(x, p=0.5, rng=np.random.default_rng(0))
        out.sum().backward()
        # Gradient is exactly the mask: zero where dropped, 2 where kept.
        np.testing.assert_array_equal((x.grad == 0), (out.data == 0))

    def test_seeded_rng_reproducible(self, rng):
        x = Tensor(np.ones((50, 4), dtype=np.float64))
        a = dropout(x, 0.5, rng=np.random.default_rng(3)).data
        b = dropout(x, 0.5, rng=np.random.default_rng(3)).data
        np.testing.assert_array_equal(a, b)


class TestLinearFunctional:
    def test_matches_manual(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(2, 3)))
        b = Tensor(rng.normal(size=(2,)))
        out = linear(x, w, b)
        np.testing.assert_allclose(out.data, x.data @ w.data.T + b.data)

    def test_no_bias(self, rng):
        x = Tensor(rng.normal(size=(4, 3)))
        w = Tensor(rng.normal(size=(2, 3)))
        np.testing.assert_allclose(linear(x, w).data, x.data @ w.data.T)
