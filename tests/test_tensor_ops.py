"""Unit tests for the autograd engine's elementary operations."""

import numpy as np
import pytest

from repro.tensor import Tensor, concatenate, no_grad, stack, where


class TestConstruction:
    def test_wraps_array(self):
        from repro.tensor import default_dtype

        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        # Python lists/scalars land on the substrate default (float32);
        # numpy arrays keep their explicit dtype.
        assert t.dtype == default_dtype()
        assert Tensor(np.ones(2, dtype=np.float64)).dtype == np.float64

    def test_requires_grad_flag(self):
        t = Tensor([1.0], requires_grad=True)
        assert t.requires_grad
        assert t.grad is None

    def test_integer_tensor_cannot_require_grad(self):
        with pytest.raises(TypeError):
            Tensor(np.array([1, 2, 3]), requires_grad=True)

    def test_nested_tensor_rejected(self):
        with pytest.raises(TypeError):
            Tensor(Tensor([1.0]))

    def test_detach_shares_data_but_cuts_graph(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert d.data is t.data

    def test_copy_is_deep(self):
        t = Tensor([1.0, 2.0])
        c = t.copy()
        c.data[0] = 99.0
        assert t.data[0] == 1.0

    def test_item_and_len(self):
        assert Tensor([[3.5]]).item() == 3.5
        assert len(Tensor(np.zeros((4, 2), dtype=np.float64))) == 4


class TestArithmetic:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_add_broadcast_backward(self):
        a = Tensor(np.ones((3, 4), dtype=np.float64), requires_grad=True)
        b = Tensor(np.ones(4, dtype=np.float64), requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(b.grad, [3.0] * 4)

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [5.0, 7.0])
        np.testing.assert_allclose(b.grad, [2.0, 3.0])

    def test_sub_and_neg(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).backward()
        assert a.grad[0] == 1.0
        assert b.grad[0] == -1.0
        a.zero_grad()
        (-a).backward()
        assert a.grad[0] == -1.0

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        assert a.grad[0] == pytest.approx(0.5)
        assert b.grad[0] == pytest.approx(-6.0 / 4.0)

    def test_scalar_coercion(self):
        a = Tensor([2.0], requires_grad=True)
        out = 3.0 * a + 1.0 - a / 2.0
        out.backward()
        assert a.grad[0] == pytest.approx(2.5)

    def test_rsub_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        (10.0 - a).backward()
        assert a.grad[0] == -1.0
        a.zero_grad()
        (10.0 / a).backward()
        assert a.grad[0] == pytest.approx(-10.0 / 4.0)

    def test_pow_scalar_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward()
        assert a.grad[0] == pytest.approx(6.0)

    def test_pow_negative_exponent(self):
        a = Tensor([4.0], requires_grad=True)
        (a ** -0.5).backward()
        assert a.grad[0] == pytest.approx(-0.5 * 4.0 ** -1.5)

    def test_matmul_2d_backward(self):
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]])
        np.testing.assert_allclose(b.grad, [[1.0], [2.0]])

    def test_matmul_vector_cases(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        m = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]), requires_grad=True)
        (a @ m).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        a.zero_grad()
        (m @ a).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])


class TestElementwise:
    def test_exp_log_roundtrip_grad(self):
        a = Tensor([1.5], requires_grad=True)
        a.exp().log().backward()
        assert a.grad[0] == pytest.approx(1.0)

    def test_relu_masks_gradient(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])

    def test_sigmoid_range_and_grad(self):
        a = Tensor([0.0], requires_grad=True)
        s = a.sigmoid()
        assert s.data[0] == pytest.approx(0.5)
        s.backward()
        assert a.grad[0] == pytest.approx(0.25)

    def test_sigmoid_extreme_values_stable(self):
        a = Tensor([1000.0, -1000.0])
        s = a.sigmoid().data
        assert np.all(np.isfinite(s))
        assert s[0] == pytest.approx(1.0)
        assert s[1] == pytest.approx(0.0)

    def test_tanh_grad(self):
        a = Tensor([0.5], requires_grad=True)
        a.tanh().backward()
        assert a.grad[0] == pytest.approx(1.0 - np.tanh(0.5) ** 2)

    def test_leaky_relu(self):
        a = Tensor([-2.0, 2.0], requires_grad=True)
        a.leaky_relu(0.1).sum().backward()
        np.testing.assert_allclose(a.grad, [0.1, 1.0])

    def test_sqrt_grad(self):
        a = Tensor([4.0], requires_grad=True)
        a.sqrt().backward()
        assert a.grad[0] == pytest.approx(0.25)

    def test_abs_grad(self):
        a = Tensor([-3.0, 2.0], requires_grad=True)
        a.abs().sum().backward()
        np.testing.assert_allclose(a.grad, [-1.0, 1.0])

    def test_clip_gradient_mask(self):
        a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        a.clip(0.0, 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])

    def test_maximum_routes_gradient(self):
        a = Tensor([1.0, 5.0], requires_grad=True)
        b = Tensor([3.0, 2.0], requires_grad=True)
        a.maximum(b).sum().backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 0.0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))

    def test_mean_grad_scaled(self):
        a = Tensor(np.ones((2, 4), dtype=np.float64), requires_grad=True)
        a.mean().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 4), 1 / 8))

    def test_mean_axis_tuple(self):
        a = Tensor(np.ones((2, 3, 4), dtype=np.float64), requires_grad=True)
        out = a.mean(axis=(1, 2))
        assert out.shape == (2,)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3, 4), 1 / 12))

    def test_var_matches_numpy(self):
        data = np.random.default_rng(0).normal(size=(5, 7))
        t = Tensor(data)
        np.testing.assert_allclose(t.var(axis=0).data, data.var(axis=0))

    def test_max_gradient_splits_ties(self):
        a = Tensor([2.0, 2.0, 1.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5, 0.0])

    def test_max_axis(self):
        a = Tensor(np.array([[1.0, 3.0], [5.0, 2.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.0, 1.0], [1.0, 0.0]])

    def test_min_is_negated_max(self):
        a = Tensor([3.0, 1.0, 2.0], requires_grad=True)
        m = a.min()
        assert m.item() == 1.0
        m.backward()
        np.testing.assert_allclose(a.grad, [0.0, 1.0, 0.0])


class TestShapes:
    def test_reshape_roundtrip(self):
        a = Tensor(np.arange(12.0), requires_grad=True)
        a.reshape(3, 4).sum().backward()
        assert a.grad.shape == (12,)

    def test_flatten(self):
        a = Tensor(np.zeros((2, 3, 4), dtype=np.float64))
        assert a.flatten().shape == (2, 12)
        assert a.flatten(start_dim=0).shape == (24,)

    def test_transpose_grad(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.transpose()
        assert out.shape == (3, 2)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)

    def test_transpose_with_axes(self):
        a = Tensor(np.zeros((2, 3, 4), dtype=np.float64), requires_grad=True)
        out = a.transpose(2, 0, 1)
        assert out.shape == (4, 2, 3)
        out.sum().backward()
        assert a.grad.shape == (2, 3, 4)

    def test_getitem_accumulates_on_duplicate_indices(self):
        a = Tensor(np.arange(4.0), requires_grad=True)
        idx = np.array([0, 0, 2])
        a[idx].sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 0.0, 1.0, 0.0])

    def test_pad2d(self):
        a = Tensor(np.ones((1, 1, 2, 2), dtype=np.float64), requires_grad=True)
        out = a.pad2d(1)
        assert out.shape == (1, 1, 4, 4)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((1, 1, 2, 2)))

    def test_pad2d_rejects_non_4d(self):
        with pytest.raises(ValueError):
            Tensor(np.ones((2, 2), dtype=np.float64)).pad2d(1)

    def test_concatenate_grad_routing(self):
        a = Tensor(np.ones((2, 2), dtype=np.float64), requires_grad=True)
        b = Tensor(np.ones((3, 2), dtype=np.float64), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 2).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((3, 2), 2.0))

    def test_stack_grad_routing(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])

    def test_where_routes_by_condition(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([10.0, 20.0], requires_grad=True)
        where(np.array([True, False]), a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0])


class TestBackwardSemantics:
    def test_backward_on_non_grad_tensor_raises(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_shape_mismatch_raises(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            a.backward(np.ones(3))

    def test_gradient_accumulates_across_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).backward()
        (a * 2).backward()
        assert a.grad[0] == 4.0

    def test_diamond_graph_accumulates_once_per_path(self):
        a = Tensor([3.0], requires_grad=True)
        b = a * 2
        c = a * 5
        (b + c).backward()
        assert a.grad[0] == 7.0

    def test_reused_node_in_graph(self):
        a = Tensor([2.0], requires_grad=True)
        b = a * a  # a used twice
        b.backward()
        assert a.grad[0] == 4.0

    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad
        assert out._backward is None

    def test_no_grad_restores_on_exception(self):
        from repro.tensor import is_grad_enabled

        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_comparisons_are_detached(self):
        a = Tensor([1.0], requires_grad=True)
        assert not (a > 0).requires_grad
        assert not (a < 0).requires_grad
        assert not (a >= 1).requires_grad
        assert not (a <= 1).requires_grad

    def test_deep_chain_does_not_overflow(self):
        # Iterative topological sort: thousands of nodes must work.
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(3000):
            out = out + 1.0
        out.backward()
        assert a.grad[0] == 1.0
