"""Tests for the fast tensor substrate: the switchable default dtype,
the no_grad fast path (bit-identical to the taped path), the scratch
pool, the differentiable astype cast, the float16 promotion telemetry,
and float32-vs-float64 equivalence of the tiny Table-II metrics."""

import numpy as np
import pytest

from repro import telemetry
from repro.tensor import (
    Tensor,
    clear_pool,
    default_dtype,
    no_grad,
    pool_stats,
    set_default_dtype,
    using_default_dtype,
)
from repro.tensor.pool import scratch


# ----------------------------------------------------------------------
# Default dtype switch
# ----------------------------------------------------------------------
class TestDefaultDtype:
    def test_default_is_float32(self):
        assert default_dtype() == np.float32

    def test_set_returns_previous_and_validates(self):
        prev = set_default_dtype(np.float64)
        try:
            assert prev == np.float32
            assert default_dtype() == np.float64
        finally:
            set_default_dtype(prev)
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)
        with pytest.raises(ValueError):
            set_default_dtype(np.float16)

    def test_context_manager_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with using_default_dtype(np.float64):
                assert default_dtype() == np.float64
                raise RuntimeError("boom")
        assert default_dtype() == np.float32

    def test_python_data_lands_on_default(self):
        assert Tensor([1.0, 2.0]).dtype == default_dtype()
        assert Tensor(3.5).dtype == default_dtype()
        with using_default_dtype(np.float64):
            assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_numpy_data_keeps_its_dtype(self):
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float64
        assert Tensor(np.zeros(2, dtype=np.float32)).dtype == np.float32
        # numpy scalars too: a float64 reduction must not silently narrow.
        assert Tensor(np.float64(1.0)).dtype == np.float64

    def test_reductions_keep_tensor_dtype(self):
        t = Tensor(np.linspace(0.0, 1.0, 5, dtype=np.float64))
        assert t.sum().dtype == np.float64
        assert t.max().dtype == np.float64
        t32 = Tensor([1.0, 2.0])
        assert t32.sum().dtype == np.float32


# ----------------------------------------------------------------------
# float16 silent upcast telemetry
# ----------------------------------------------------------------------
class TestFloat16Promotion:
    def test_float16_widens_to_float32_with_one_event(self):
        from repro.tensor import tensor as tensor_mod

        flag = tensor_mod._FLOAT16_PROMOTED
        try:
            tensor_mod._FLOAT16_PROMOTED = False
            with telemetry.session() as sess:
                t = Tensor(np.zeros((2, 3), dtype=np.float16))
                assert t.dtype == np.float32
                # Second construction must not emit again.
                Tensor(np.zeros(4, dtype=np.float16))
            events = [
                r for r in sess.records
                if r.get("type") == "event"
                and r.get("name") == "dtype.float16_promoted"
            ]
            assert len(events) == 1
            assert events[0]["attrs"]["to"] == "float32"
            assert events[0]["attrs"]["shape"] == [2, 3]
        finally:
            tensor_mod._FLOAT16_PROMOTED = flag


# ----------------------------------------------------------------------
# no_grad fast path
# ----------------------------------------------------------------------
class TestNoGradFastPath:
    def _model(self):
        from repro.nn import SmallConvNet

        model = SmallConvNet(num_classes=5, in_channels=3, width=4,
                             rng=np.random.default_rng(0))
        # Warm the BN running stats, then freeze in eval mode.
        rng = np.random.default_rng(1)
        model(Tensor(rng.normal(size=(8, 3, 12, 12)), dtype=default_dtype()))
        model.eval()
        return model

    def test_no_grad_records_no_tape(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        with no_grad():
            out = ((x * 2.0).relu() + 1.0).sum()
        assert out._backward is None
        assert out._prev == ()
        assert not out.requires_grad

    def test_no_grad_forward_is_bit_identical(self):
        model = self._model()
        rng = np.random.default_rng(2)
        batch = np.asarray(rng.normal(size=(6, 3, 12, 12)),
                           dtype=default_dtype())
        with no_grad():
            fast = model(Tensor(batch)).data
        taped = model(Tensor(batch, requires_grad=True)).data
        assert np.array_equal(fast, taped)

    def test_no_grad_conv_ops_bit_identical(self):
        from repro.tensor import (
            avg_pool2d,
            conv2d,
            conv_transpose2d,
            global_avg_pool2d,
            max_pool2d,
        )

        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 8, 8)), dtype=default_dtype())
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), dtype=default_dtype())
        wt = Tensor(rng.normal(size=(3, 4, 2, 2)), dtype=default_dtype())
        b = Tensor(rng.normal(size=4), dtype=default_dtype())
        xg = Tensor(x.data.copy(), requires_grad=True)
        wg = Tensor(w.data.copy(), requires_grad=True)
        wtg = Tensor(wt.data.copy(), requires_grad=True)
        bg = Tensor(b.data.copy(), requires_grad=True)

        for fast, taped in [
            (lambda: conv2d(x, w, b, stride=2, padding=1),
             lambda: conv2d(xg, wg, bg, stride=2, padding=1)),
            (lambda: conv_transpose2d(x, wt, stride=2),
             lambda: conv_transpose2d(xg, wtg, stride=2)),
            (lambda: max_pool2d(x, 2), lambda: max_pool2d(xg, 2)),
            (lambda: avg_pool2d(x, 2), lambda: avg_pool2d(xg, 2)),
            (lambda: global_avg_pool2d(x), lambda: global_avg_pool2d(xg)),
        ]:
            with no_grad():
                out_fast = fast().data
            out_taped = taped().data
            assert np.array_equal(out_fast, out_taped)

    def test_fused_sequential_matches_unfused(self):
        from repro.nn import Linear, ReLU, Sequential
        from repro.tensor import linear_relu

        rng = np.random.default_rng(4)
        model = Sequential(Linear(6, 4, rng=rng), ReLU())
        x = Tensor(rng.normal(size=(5, 6)), dtype=default_dtype())
        fused = model(x).data
        unfused = model[1](model[0](x)).data
        assert np.array_equal(fused, unfused)
        direct = linear_relu(x, model[0].weight, model[0].bias).data
        assert np.array_equal(fused, direct)


# ----------------------------------------------------------------------
# Differentiable astype
# ----------------------------------------------------------------------
class TestAstypeCast:
    def test_cast_propagates_requires_grad(self):
        x = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        y = x.astype(np.float32)
        assert y.requires_grad
        assert y.dtype == np.float32

    def test_cast_backward_restores_source_dtype(self):
        x = Tensor(np.arange(4, dtype=np.float64), requires_grad=True)
        x.astype(np.float32).sum().backward()
        assert x.grad is not None
        assert x.grad.dtype == np.float64
        np.testing.assert_array_equal(x.grad, np.ones(4))

    def test_cast_to_integer_detaches(self):
        x = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        y = x.astype(np.int64)
        assert not y.requires_grad

    def test_cast_under_no_grad_detaches(self):
        x = Tensor(np.ones(3, dtype=np.float64), requires_grad=True)
        with no_grad():
            y = x.astype(np.float32)
        assert not y.requires_grad
        assert y._prev == ()


# ----------------------------------------------------------------------
# Scratch pool
# ----------------------------------------------------------------------
class TestScratchPool:
    def setup_method(self):
        clear_pool()

    def teardown_method(self):
        clear_pool()

    def test_same_key_reuses_buffer(self):
        a = scratch("t.site", (4, 4), np.float32)
        b = scratch("t.site", (4, 4), np.float32)
        assert np.shares_memory(a, b)
        stats = pool_stats()
        assert stats["misses"] >= 1 and stats["hits"] >= 1

    def test_distinct_sites_never_share_memory(self):
        a = scratch("t.site", (4, 4), np.float32)
        b = scratch("t.other", (4, 4), np.float32)
        c = scratch("t.site", (4, 4), np.float64)
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, c)
        assert not np.shares_memory(b, c)

    def test_smaller_request_reuses_the_site_buffer(self):
        a = scratch("t.site", (4, 5), np.float32)
        misses = pool_stats()["misses"]
        b = scratch("t.site", (3, 2), np.float32)
        assert np.shares_memory(a, b)
        assert b.shape == (3, 2) and b.flags.c_contiguous
        assert pool_stats()["misses"] == misses

    def test_larger_request_grows_the_site_buffer(self):
        scratch("t.site", (4, 4), np.float32)
        scratch("t.other", (2, 3), np.float64)
        misses = pool_stats()["misses"]
        big = scratch("t.site", (4, 5), np.float32)
        assert big.shape == (4, 5) and big.flags.c_contiguous
        assert pool_stats()["misses"] == misses + 1
        scratch("t.site", (2, 2), np.float32)
        # Each site holds its largest request so far, and no more.
        assert pool_stats()["bytes"] == 4 * 5 * 4 + 2 * 3 * 8

    def test_clear_pool_resets_entries(self):
        scratch("t.site", (2, 2), np.float32)
        assert pool_stats()["entries"] >= 1
        clear_pool()
        assert pool_stats()["entries"] == 0

    def test_entries_are_bounded_by_site_and_dtype(self):
        for i in range(80):
            scratch("t.grow", (1, i + 1), np.float32)
            scratch("t.grow", (i + 1, 2), np.float64)
            scratch("t.other", (i % 7 + 1,), np.float32)
        stats = pool_stats()
        assert stats["entries"] == 3
        assert stats["bytes"] == 80 * 4 + 80 * 2 * 8 + 7 * 4

    def test_training_never_leaks_pooled_buffers_into_grads(self):
        """Two training steps whose scratch is clobbered in between must
        produce identical gradients: nothing on the tape may alias pool
        memory."""
        from repro.tensor import conv2d, max_pool2d

        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 2, 6, 6)), dtype=default_dtype(),
                   requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), dtype=default_dtype(),
                   requires_grad=True)

        def step():
            x.zero_grad()
            w.zero_grad()
            out = max_pool2d(conv2d(x, w, stride=1, padding=1), 2)
            out.sum().backward()
            return x.grad.copy(), w.grad.copy()

        gx1, gw1 = step()
        # Between the steps, run the same sites over a different batch
        # size, then clobber every pooled buffer with garbage.
        with no_grad():
            for batch in (1, 3):
                other = Tensor(rng.normal(size=(batch, 2, 6, 6)),
                               dtype=default_dtype())
                max_pool2d(conv2d(other, w.detach(), stride=1, padding=1), 2)
        from repro.tensor.pool import _POOL

        for buf in _POOL.values():
            buf.fill(np.nan)
        gx2, gw2 = step()
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gw1, gw2)


# ----------------------------------------------------------------------
# float32 vs float64 end-to-end equivalence
# ----------------------------------------------------------------------
class TestPrecisionEquivalence:
    def test_tiny_table2_metrics_match_across_dtypes(self):
        """The float32 switch must not change the science: tiny Table-II
        BAC per cell matches the float64 run within 1e-3."""
        from repro.evals import MatrixSpec, run_matrix
        from repro.experiments import ExperimentConfig

        def run():
            config = ExperimentConfig(scale="tiny", seed=0)
            result = run_matrix(MatrixSpec(
                "table2", config=config, losses=("ce",),
            ))
            return {
                key: float(metrics["bac"])
                for key, metrics in result.cells.items()
            }

        f32 = run()
        with using_default_dtype(np.float64):
            f64 = run()
        assert set(f32) == set(f64)
        for key, bac in f32.items():
            assert abs(bac - f64[key]) <= 1e-3, (
                "BAC drifted across dtypes for %s: %s vs %s"
                % (key, bac, f64[key])
            )
