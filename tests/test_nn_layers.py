"""Unit tests for nn layers, module mechanics, and initializers."""

import numpy as np
import pytest

from repro.nn import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    init,
)
from repro.tensor import Tensor, check_gradients, using_default_dtype


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestModuleMechanics:
    def test_parameter_registration(self, rng):
        layer = Linear(4, 2, rng=rng)
        names = [n for n, _ in layer.named_parameters()]
        assert names == ["weight", "bias"]

    def test_nested_module_discovery(self, rng):
        class Net(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(4, 8, rng=rng)
                self.fc2 = Linear(8, 2, rng=rng)

            def forward(self, x):
                return self.fc2(self.fc1(x).relu())

        net = Net()
        names = [n for n, _ in net.named_parameters()]
        assert "fc1.weight" in names and "fc2.bias" in names
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_train_eval_propagates(self, rng):
        net = Sequential(Linear(2, 2, rng=rng), BatchNorm1d(2))
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears_all(self, rng):
        net = Linear(3, 2, rng=rng)
        out = net(Tensor(rng.normal(size=(4, 3))))
        out.sum().backward()
        assert net.weight.grad is not None
        net.zero_grad()
        assert net.weight.grad is None

    def test_state_dict_roundtrip(self, rng):
        a = Sequential(Linear(3, 4, rng=rng), BatchNorm1d(4))
        b = Sequential(Linear(3, 4, rng=np.random.default_rng(99)), BatchNorm1d(4))
        a[1].running_mean[...] = 5.0
        state = a.state_dict()
        b.load_state_dict(state)
        np.testing.assert_allclose(b[0].weight.data, a[0].weight.data)
        np.testing.assert_allclose(b[1].running_mean, 5.0)

    def test_load_state_dict_shape_mismatch_raises(self, rng):
        a = Linear(3, 4, rng=rng)
        b = Linear(3, 5, rng=rng)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict())

    def test_load_state_dict_unknown_param_raises(self, rng):
        a = Linear(3, 4, rng=rng)
        with pytest.raises(KeyError):
            a.load_state_dict({"param:nope": np.zeros(2)})

    def test_sequential_indexing_iteration(self, rng):
        net = Sequential(Linear(2, 3, rng=rng), ReLU(), Linear(3, 1, rng=rng))
        assert len(net) == 3
        assert isinstance(net[1], ReLU)
        assert len(list(iter(net))) == 3

    def test_repr_contains_children(self, rng):
        net = Sequential(Linear(2, 3, rng=rng), ReLU())
        text = repr(net)
        assert "Linear" in text and "ReLU" in text


class TestLinear:
    def test_forward_shape(self, rng):
        layer = Linear(5, 3, rng=rng)
        out = layer(Tensor(rng.normal(size=(7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias(self, rng):
        layer = Linear(5, 3, bias=False, rng=rng)
        assert layer.bias is None
        out = layer(Tensor(np.zeros((2, 5), dtype=np.float64)))
        np.testing.assert_allclose(out.data, 0.0)

    def test_gradcheck(self, rng):
        # float64 default: finite differences drown in float32 rounding.
        with using_default_dtype(np.float64):
            layer = Linear(3, 2, rng=rng)
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            check_gradients(
                lambda x, w, b: ((x @ w.transpose() + b) ** 2).sum(),
                [x, layer.weight, layer.bias],
            )

    def test_gradcheck_fused_linear_relu(self, rng):
        from repro.nn import LinearReLU

        with using_default_dtype(np.float64):
            layer = LinearReLU(3, 2, rng=rng)
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            check_gradients(
                lambda x, w, b: (layer(x) ** 2).sum(),
                [x, layer.weight, layer.bias],
            )


class TestConvLayer:
    def test_forward_shape(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        out = layer(Tensor(rng.normal(size=(2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_bias_optional(self, rng):
        layer = Conv2d(1, 1, 3, bias=False, rng=rng)
        assert layer.bias is None

    def test_training_reduces_loss(self, rng):
        from repro.optim import SGD

        layer = Conv2d(1, 2, 3, padding=1, rng=rng)
        x = Tensor(rng.normal(size=(4, 1, 5, 5)))
        target = Tensor(rng.normal(size=(4, 2, 5, 5)))
        opt = SGD(layer.parameters(), lr=0.01)
        losses = []
        for _ in range(20):
            opt.zero_grad()
            loss = ((layer(x) - target) ** 2).mean()
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        assert losses[-1] < losses[0] * 0.9


class TestBatchNorm:
    def test_train_output_standardized(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(2.0, 3.0, size=(8, 3, 4, 4)))
        out = bn(x).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)

    def test_running_stats_updated(self, rng):
        bn = BatchNorm2d(2, momentum=1.0)  # copy batch stats directly
        x = Tensor(rng.normal(5.0, 1.0, size=(16, 2, 3, 3)))
        bn(x)
        np.testing.assert_allclose(
            bn.running_mean, x.data.mean(axis=(0, 2, 3)), atol=1e-8
        )

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.normal(size=(8, 2, 3, 3)))
        bn(x)
        bn.eval()
        x2 = Tensor(rng.normal(10.0, 1.0, size=(4, 2, 3, 3)))
        out = bn(x2).data
        # With running stats near N(0,1), an N(10,1) input stays ~10.
        assert out.mean() > 5.0

    def test_eval_is_deterministic(self, rng):
        bn = BatchNorm1d(4)
        bn(Tensor(rng.normal(size=(32, 4))))
        bn.eval()
        x = Tensor(rng.normal(size=(5, 4)))
        np.testing.assert_array_equal(bn(x).data, bn(x).data)

    def test_gradcheck_through_batch_stats(self, rng):
        with using_default_dtype(np.float64):
            bn = BatchNorm1d(3)
            x = Tensor(rng.normal(size=(6, 3)), requires_grad=True)

            def fn(x, w, b):
                bn.weight, bn.bias = w, b
                return (bn(x) ** 2).sum()

            check_gradients(fn, [x, bn.weight, bn.bias])

    def test_wrong_dims_raise(self, rng):
        with pytest.raises(ValueError):
            BatchNorm2d(2)(Tensor(np.zeros((2, 2), dtype=np.float64)))
        with pytest.raises(ValueError):
            BatchNorm1d(2)(Tensor(np.zeros((2, 2, 2, 2), dtype=np.float64)))


class TestMiscLayers:
    def test_flatten(self, rng):
        out = Flatten()(Tensor(np.zeros((2, 3, 4), dtype=np.float64)))
        assert out.shape == (2, 12)

    def test_identity(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        assert Identity()(x) is x

    def test_global_avg_pool_layer(self, rng):
        out = GlobalAvgPool2d()(Tensor(np.ones((2, 3, 4, 4), dtype=np.float64)))
        np.testing.assert_allclose(out.data, 1.0)
        assert out.shape == (2, 3)

    def test_dropout_train_vs_eval(self, rng):
        drop = Dropout(0.5, rng=rng)
        x = Tensor(np.ones((100, 10), dtype=np.float64))
        out_train = drop(x).data
        assert (out_train == 0).any()
        # Inverted dropout preserves expectation.
        assert out_train.mean() == pytest.approx(1.0, abs=0.15)
        drop.eval()
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_dropout_invalid_p(self):
        from repro.tensor import dropout

        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3, dtype=np.float64)), p=1.0)


class TestInit:
    def test_kaiming_normal_std(self, rng):
        w = init.kaiming_normal((256, 128), rng)
        expected = np.sqrt(2.0 / 128)
        assert w.std() == pytest.approx(expected, rel=0.1)

    def test_kaiming_conv_fan(self, rng):
        w = init.kaiming_normal((64, 32, 3, 3), rng)
        expected = np.sqrt(2.0 / (32 * 9))
        assert w.std() == pytest.approx(expected, rel=0.1)

    def test_xavier_uniform_bound(self, rng):
        w = init.xavier_uniform((100, 50), rng)
        bound = np.sqrt(6.0 / 150)
        assert np.abs(w).max() <= bound + 1e-12

    def test_unsupported_shape_raises(self, rng):
        with pytest.raises(ValueError):
            init.kaiming_normal((3,), rng)
