"""Numerical gradient checking for the autograd engine.

Used by the test-suite to verify every primitive op against central
finite differences.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "numeric_grad",
    "check_gradients",
    "gradcheck_conv2d_nonsquare",
    "gradcheck_batchnorm_eval",
    "gradcheck_linear_relu",
    "gradcheck_astype_cast",
    "check_inplace_mutation_detected",
    "run_extended_checks",
]


def numeric_grad(fn, inputs, wrt, eps=1e-5):
    """Central-difference gradient of scalar ``fn(*inputs)`` w.r.t. ``inputs[wrt]``.

    ``fn`` must accept the raw Tensors and return a scalar Tensor.
    """
    x = inputs[wrt]
    grad = np.zeros_like(x.data, dtype=np.float64)
    flat = x.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(fn(*inputs).data)
        flat[i] = orig - eps
        lo = float(fn(*inputs).data)
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradients(fn, inputs, eps=1e-5, atol=1e-4, rtol=1e-3):
    """Compare analytic vs numeric gradients for all grad-requiring inputs.

    Returns True on success; raises AssertionError with diagnostics on
    mismatch.
    """
    for t in inputs:
        t.zero_grad()
    out = fn(*inputs)
    if out.size != 1:
        raise ValueError("check_gradients requires a scalar output")
    out.backward()
    for idx, t in enumerate(inputs):
        if not t.requires_grad:
            continue
        num = numeric_grad(fn, inputs, idx, eps=eps)
        ana = t.grad
        if ana is None:
            raise AssertionError("input %d received no gradient" % idx)
        if not np.allclose(ana, num, atol=atol, rtol=rtol):
            worst = np.abs(ana - num).max()
            raise AssertionError(
                "gradient mismatch on input %d (max abs err %.3g)" % (idx, worst)
            )
    return True


# ----------------------------------------------------------------------
# Sanitizer-aware extended checks
# ----------------------------------------------------------------------
# These run the numeric comparison *inside* detect_anomaly(), so besides
# validating the analytic gradients they also exercise the tape
# sanitizer's NaN / mutation / dtype instrumentation on realistic ops.


def gradcheck_conv2d_nonsquare(seed=0):
    """conv2d with a non-square (2x3) kernel, stride 2, padding 1."""
    from .anomaly import detect_anomaly
    from .conv import conv2d
    from .tensor import Tensor

    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 2, 5, 4)), requires_grad=True)
    w = Tensor(0.5 * rng.standard_normal((3, 2, 2, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(3), requires_grad=True)

    def fn(x, w, b):
        return conv2d(x, w, b, stride=2, padding=1).sum()

    with detect_anomaly():
        return check_gradients(fn, [x, w, b])


def gradcheck_batchnorm_eval(seed=0):
    """BatchNorm2d in eval mode (folded running-stats path) under the sanitizer.

    Eval-mode batchnorm runs the fused folded-affine kernel: ``out =
    x * scale + shift`` with scale/shift cached from running stats, so
    d out / d x must be exactly gamma / sqrt(running_var + eps).  The
    affine parameters are perturbed in place by the numeric check,
    which also exercises the folded cache's snapshot invalidation.

    Runs under a float64 default dtype: float32 parameters round the
    1e-5 central-difference perturbations into the noise floor.
    """
    from .anomaly import detect_anomaly
    from ..nn.layers import BatchNorm2d
    from ._dtype import using_default_dtype
    from .tensor import Tensor

    rng = np.random.default_rng(seed)
    with using_default_dtype(np.float64):
        bn = BatchNorm2d(3)
        # Warm up the running statistics with a couple of training batches.
        for _ in range(2):
            bn(Tensor(rng.standard_normal((4, 3, 2, 2)) * 2.0 + 1.0))
        bn.eval()
        x = Tensor(rng.standard_normal((2, 3, 2, 2)), requires_grad=True)

        def fn(x, w, b):
            return (bn(x) * bn(x)).sum()

        with detect_anomaly():
            return check_gradients(fn, [x, bn.weight, bn.bias])


def gradcheck_linear_relu(seed=0):
    """Fused ``linear_relu`` against central differences, for all inputs.

    The fused kernel writes its own backward (mask-gated matmuls); this
    validates it against finite differences of the scalar loss
    ``sum(linear_relu(x, w, b)^2)`` for x, w and b, under the sanitizer.
    """
    from .anomaly import detect_anomaly
    from ._dtype import using_default_dtype
    from .functional import linear_relu
    from .tensor import Tensor

    rng = np.random.default_rng(seed)
    with using_default_dtype(np.float64):
        x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        w = Tensor(0.5 * rng.standard_normal((3, 5)), requires_grad=True)
        b = Tensor(0.3 * rng.standard_normal(3), requires_grad=True)

        def fn(x, w, b):
            out = linear_relu(x, w, b)
            return (out * out).sum()

        with detect_anomaly():
            return check_gradients(fn, [x, w, b])


def gradcheck_astype_cast(seed=0):
    """Differentiable dtype cast: gradient flows through a float32 cast.

    ``astype`` used to return a detached tensor, silently cutting the
    tape; this asserts the cast node backpropagates (with the gradient
    cast back to the source dtype) and produces the analytic value.
    """
    from .anomaly import detect_anomaly
    from .tensor import Tensor

    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    with detect_anomaly():
        y = x.astype(np.float32)
        (y * y).sum().backward()
    if x.grad is None:
        raise AssertionError("astype detached the tape: no gradient reached x")
    if x.grad.dtype != np.float64:
        raise AssertionError(
            "astype backward did not cast the gradient back to float64"
        )
    expected = (2.0 * x.data.astype(np.float32)).astype(np.float64)
    if not np.allclose(x.grad, expected, atol=1e-6):
        raise AssertionError("astype gradient mismatch")
    return True


def check_inplace_mutation_detected(seed=0):
    """Assert the version-counter check fires on in-place mutation.

    An array is recorded on the tape, then mutated through numpy before
    ``backward`` runs; the sanitizer must raise ``AnomalyError`` rather
    than silently differentiate against the mutated buffer.
    """
    from .anomaly import AnomalyError, detect_anomaly
    from .tensor import Tensor

    rng = np.random.default_rng(seed)
    with detect_anomaly():
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        b = a * 3.0
        loss = b.sum()
        a.data[0] = 42.0  # deliberate corruption of a taped buffer
        try:
            loss.backward()
        except AnomalyError:
            return True
    raise AssertionError(
        "in-place mutation of a taped array was not detected by the sanitizer"
    )


def run_extended_checks(seed=0):
    """Run every extended check; returns the list of check names run."""
    gradcheck_conv2d_nonsquare(seed)
    gradcheck_batchnorm_eval(seed)
    gradcheck_linear_relu(seed)
    gradcheck_astype_cast(seed)
    check_inplace_mutation_detected(seed)
    return [
        "gradcheck_conv2d_nonsquare",
        "gradcheck_batchnorm_eval",
        "gradcheck_linear_relu",
        "gradcheck_astype_cast",
        "check_inplace_mutation_detected",
    ]
