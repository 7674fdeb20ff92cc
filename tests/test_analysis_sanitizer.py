"""Tests for the runtime tape sanitizer (detect_anomaly) and the
hardened validate_xy boundary."""

import numpy as np
import pytest

from repro._validation import validate_xy
from repro.tensor.anomaly import array_version
from repro.tensor import (
    AnomalyError,
    Tensor,
    check_inplace_mutation_detected,
    detect_anomaly,
    is_anomaly_enabled,
    run_extended_checks,
)


class TestContextManager:
    def test_off_by_default(self):
        assert not is_anomaly_enabled()

    def test_enabled_inside_block(self):
        with detect_anomaly():
            assert is_anomaly_enabled()
        assert not is_anomaly_enabled()

    def test_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with detect_anomaly():
                raise RuntimeError("boom")
        assert not is_anomaly_enabled()

    def test_nesting_restores_outer_config(self):
        with detect_anomaly(check_mutation=False):
            with detect_anomaly(check_mutation=True):
                assert is_anomaly_enabled()
            assert is_anomaly_enabled()
        assert not is_anomaly_enabled()


class TestForwardNaN:
    def test_pinpoints_producing_op(self):
        with detect_anomaly():
            a = Tensor(np.array([1.0, -1.0]), requires_grad=True)
            with np.errstate(invalid="ignore"):
                with pytest.raises(AnomalyError) as exc:
                    a.log()  # log(-1) -> NaN at this op
        assert exc.value.op == "log"
        assert exc.value.site is not None

    def test_inf_also_trapped(self):
        with detect_anomaly():
            a = Tensor(np.array([0.0, 1.0]), requires_grad=True)
            with np.errstate(divide="ignore"):
                with pytest.raises(AnomalyError) as exc:
                    1.0 / a
        assert exc.value.op == "__truediv__"

    def test_nan_not_trapped_when_disabled(self):
        with detect_anomaly(check_nan=False):
            a = Tensor(np.array([1.0, -1.0]), requires_grad=True)
            with np.errstate(invalid="ignore"):
                out = a.log()
        assert np.isnan(out.data).any()

    def test_clean_forward_passes(self):
        with detect_anomaly():
            a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            out = (a * 3.0 + 1.0).sum()
        assert out.item() == pytest.approx(11.0)


class TestBackwardNaN:
    def test_pinpoints_producing_op(self):
        with detect_anomaly():
            a = Tensor(np.array([0.0, 4.0]), requires_grad=True)
            out = a.sqrt().sum()  # forward finite; d sqrt/dx at 0 -> inf
            with np.errstate(divide="ignore"):
                with pytest.raises(AnomalyError) as exc:
                    out.backward()
        assert exc.value.op == "sqrt"

    def test_non_finite_seed_grad_trapped(self):
        with detect_anomaly():
            a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            out = a * 2.0
            with pytest.raises(AnomalyError) as exc:
                out.backward(np.array([np.nan, 1.0]))
        assert exc.value.op == "backward"

    def test_clean_backward_passes(self):
        with detect_anomaly():
            a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
            (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 4.0])


class TestMutationDetection:
    def test_taped_array_mutation_raises(self):
        with detect_anomaly():
            a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
            out = (a * 2.0).sum()
            a.data[1] = 99.0
            with pytest.raises(AnomalyError) as exc:
                out.backward()
        assert "in-place mutation" in str(exc.value)
        assert exc.value.op == "__mul__"

    def test_mutation_check_can_be_disabled(self):
        with detect_anomaly(check_mutation=False):
            a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
            out = (a * 2.0).sum()
            a.data[1] = 99.0
            out.backward()  # silently wrong, but permitted when disabled
        assert a.grad is not None

    def test_untouched_graph_is_clean(self):
        with detect_anomaly():
            a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
            out = (a * 2.0).sum()
            out.backward()
        np.testing.assert_allclose(a.grad, [2.0, 2.0, 2.0])

    def test_array_version_tracks_buffer(self):
        arr = np.array([1.0, 2.0])
        v1 = array_version(arr)
        arr[0] = 5.0
        assert array_version(arr) != v1


class TestDtypeShapeInvariants:
    def test_float64_grad_into_float32_leaf(self):
        with detect_anomaly():
            small = Tensor(np.array([1.0, 2.0], dtype=np.float32),
                           requires_grad=True)
            wide = Tensor(np.array([3.0, 4.0]), requires_grad=True)  # float64
            out = (small * wide).sum()  # result upcasts to float64
            with pytest.raises(AnomalyError) as exc:
                out.backward()
        assert "precision widening" in str(exc.value)

    def test_uniform_float32_graph_is_clean(self):
        with detect_anomaly():
            a = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
            b = Tensor(np.array([3.0, 4.0], dtype=np.float32), requires_grad=True)
            (a * b).sum().backward()
        assert a.grad.dtype == np.float32

    def test_dtype_check_can_be_disabled(self):
        with detect_anomaly(check_dtype=False):
            small = Tensor(np.array([1.0, 2.0], dtype=np.float32),
                           requires_grad=True)
            wide = Tensor(np.array([3.0, 4.0]), requires_grad=True)
            (small * wide).sum().backward()
        assert small.grad is not None


class TestSanitizerOffByDefault:
    def test_no_provenance_recorded_when_off(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        out = a * 2.0
        assert out._anomaly is None

    def test_nan_flows_silently_when_off(self):
        a = Tensor(np.array([-1.0]), requires_grad=True)
        with np.errstate(invalid="ignore"):
            out = a.log()
        assert np.isnan(out.data).all()


class TestExtendedGradchecks:
    def test_inplace_mutation_check_fires(self):
        assert check_inplace_mutation_detected()

    def test_run_extended_checks_reports_all(self):
        names = run_extended_checks()
        assert len(names) == 5


class TestModelIntegration:
    def test_injected_nan_in_network_forward_is_attributed(self):
        from repro.nn import Linear, Sequential, ReLU

        rng = np.random.default_rng(3)
        model = Sequential(Linear(4, 8, rng=rng), ReLU(), Linear(8, 2, rng=rng))
        x = Tensor(rng.standard_normal((5, 4)))
        # Poison one weight with Inf: the first op that touches the
        # poisoned leaf is blamed (the fused linear_relu kernel when
        # Sequential fuses the Linear+ReLU pair).
        model[0].weight.data[0, 0] = np.inf
        with detect_anomaly():
            with pytest.raises(AnomalyError) as exc:
                model(x)
        assert exc.value.op in (
            "transpose", "__matmul__", "linear", "__add__", "linear_relu"
        )
        assert "layers.py" in exc.value.site

    def test_clean_training_step_under_sanitizer(self):
        from repro.losses import CrossEntropyLoss
        from repro.nn import Linear

        from repro.tensor import default_dtype

        rng = np.random.default_rng(4)
        layer = Linear(6, 3, rng=rng)
        # Inputs must match the parameter dtype, or the sanitizer
        # rightly flags float64 gradients widening into float32 params.
        x = Tensor(rng.standard_normal((8, 6)), dtype=default_dtype())
        y = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        loss_fn = CrossEntropyLoss()
        with detect_anomaly():
            loss = loss_fn(layer(x), y)
            loss.backward()
        assert layer.weight.grad is not None
        assert np.isfinite(layer.weight.grad).all()


class TestValidateXYNonFinite:
    def test_rejects_nan(self):
        x = np.ones((4, 2))
        x[2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            validate_xy(x, np.zeros(4, dtype=int))

    def test_rejects_inf(self):
        x = np.ones((4, 2))
        x[0, 0] = np.inf
        with pytest.raises(ValueError, match="row 0"):
            validate_xy(x, np.zeros(4, dtype=int))

    def test_accepts_finite(self):
        x, y = validate_xy(np.ones((4, 2)), np.zeros(4, dtype=int))
        assert x.dtype == np.float64 and y.dtype == np.int64

    @pytest.mark.parametrize(
        "sampler_name",
        ["SMOTE", "ADASYN", "RandomOverSampler", "CCR", "SWIM"],
    )
    def test_samplers_reject_nan_embeddings(self, sampler_name, blob_data):
        import repro.sampling as sampling

        x, y = blob_data
        x = x.copy()
        x[0, 0] = np.nan
        sampler = getattr(sampling, sampler_name)(random_state=0)
        with pytest.raises(ValueError, match="non-finite"):
            sampler.fit_resample(x, y)

    def test_eos_rejects_nan_embeddings(self, blob_data):
        from repro import EOS

        x, y = blob_data
        x = x.copy()
        x[3, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            EOS(k_neighbors=3).fit_resample(x, y)


class TestValidateXYLabels:
    @pytest.mark.parametrize("labels,row", [
        ([0, 1.9], 1), ([0, -1], 1), ([-0.5, 1.0], 0),
        ([0.0, np.nan], 1), ([np.inf, 0.0], 0),
    ])
    def test_rejects_labels_that_are_not_whole_and_non_negative(
            self, labels, row):
        with pytest.raises(ValueError, match="first at row %d" % row):
            validate_xy(np.ones((2, 2)), labels)

    def test_accepts_whole_float_labels(self):
        _, y = validate_xy(np.ones((2, 2)), [0.0, 1.0])
        assert y.dtype == np.int64 and y.tolist() == [0, 1]

    def test_int64_labels_are_not_copied(self):
        labels = np.array([0, 1, 1], dtype=np.int64)
        assert validate_xy(np.ones((3, 2)), labels)[1] is labels
