"""Composite differentiable functions: softmax family, one-hot, dropout.

These are implemented either as numerically-stable primitives with
hand-written backward passes (softmax, log_softmax) or as graph
compositions of `Tensor` primitives.  The fused kernels at the bottom
(:func:`linear_relu`, :func:`folded_batchnorm`) collapse multi-op
graph fragments from the training hot path into single tape nodes.
"""

from __future__ import annotations

import numpy as np

from .._rng import fresh_generator
from ._dtype import default_dtype
from .tensor import Tensor, _row_major, _tape1, _tape_many

__all__ = [
    "softmax",
    "log_softmax",
    "one_hot",
    "dropout",
    "linear",
    "linear_relu",
    "folded_batchnorm",
    "batchnorm_train",
    "nll_loss",
]


def softmax(x, axis=-1):
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)
    if not _tape1(x):
        return Tensor(out)

    def backward(g):
        # dL/dx = s * (g - sum(g * s))
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return Tensor._from_op(out, (x,), backward)


def log_softmax(x, axis=-1):
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - log_norm
    if not _tape1(x):
        return Tensor(out)
    soft = np.exp(out)

    def backward(g):
        return (g - soft * g.sum(axis=axis, keepdims=True),)

    return Tensor._from_op(out, (x,), backward)


def one_hot(labels, num_classes, dtype=None):
    """Return a detached one-hot (N, num_classes) Tensor for integer labels.

    ``dtype`` defaults to the substrate :func:`default_dtype` — a fixed
    float64 default here used to silently promote every loss computation.
    """
    labels = labels.data if isinstance(labels, Tensor) else np.asarray(labels)
    labels = labels.astype(np.int64)
    out = np.zeros(
        (labels.shape[0], num_classes),
        dtype=default_dtype() if dtype is None else dtype,
    )
    out[np.arange(labels.shape[0]), labels] = 1.0
    return Tensor(out)


def dropout(x, p=0.5, training=True, rng=None):
    """Inverted dropout: scales surviving activations by 1/(1-p)."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng if rng is not None else fresh_generator()
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype)
    mask *= 1.0 / (1.0 - p)
    out = x.data * mask
    if not _tape1(x):
        return Tensor(out)

    def backward(g):
        return (g * mask,)

    return Tensor._from_op(out, (x,), backward)


def linear(x, weight, bias=None):
    """Affine map ``x @ weight.T + bias`` matching torch.nn.functional.linear."""
    out = x @ weight.transpose()
    if bias is not None:
        out = out + bias
    return out


def linear_relu(x, weight, bias=None):
    """Fused ``relu(x @ weight.T + bias)`` as a single tape node.

    Numerically identical to the unfused composition (same kernels in
    the same order) but allocates one output and one backward closure
    instead of three of each.  ``x`` must be 2D (N, in_features);
    higher-rank inputs fall back to the unfused composition.
    """
    if x.ndim != 2:
        return linear(x, weight, bias).relu()
    pre = x.data @ weight.data.T
    if bias is not None:
        pre += bias.data
    mask = pre > 0
    out = pre * mask
    parents = (x, weight) if bias is None else (x, weight, bias)
    if not _tape_many(parents):
        return Tensor(out)

    def backward(g):
        gh = g * mask
        grad_x = gh @ weight.data if x.requires_grad else None
        grad_w = gh.T @ x.data if weight.requires_grad else None
        if bias is None:
            return (grad_x, grad_w)
        grad_b = gh.sum(axis=0) if bias.requires_grad else None
        return (grad_x, grad_w, grad_b)

    return Tensor._from_op(out, parents, backward)


def folded_batchnorm(x, weight, bias, scale, shift, mean, inv_var_sqrt, axes):
    """Eval-mode batch norm with the affine transform pre-folded.

    Computes ``x * scale + shift`` in two kernels, where ``scale = w /
    sqrt(running_var + eps)`` and ``shift = b - running_mean * scale``
    are precomputed (and cached by the layer).  ``mean``/``inv_var_sqrt``
    are the broadcast-shaped running statistics, needed only for the
    weight gradient; ``axes`` are the reduction axes for the affine
    parameter gradients.

    Gradients match the unfused eval path exactly:
    ``dx = g * scale``, ``dw = sum(g * (x - mean) * inv_std)``,
    ``db = sum(g)``.
    """
    out = x.data * scale
    out += shift
    parents = (x, weight, bias)
    if not _tape_many(parents):
        return Tensor(out)

    def backward(g):
        grad_x = g * scale if x.requires_grad else None
        grad_w = (
            (g * (x.data - mean) * inv_var_sqrt).sum(axis=axes)
            if weight.requires_grad else None
        )
        grad_b = g.sum(axis=axes) if bias.requires_grad else None
        return (grad_x, grad_w, grad_b)

    return Tensor._from_op(out, parents, backward)


def batchnorm_train(x, weight, bias, axes, shape, eps):
    """Training-mode batch norm fused into one tape node.

    Normalizes with the batch statistics and differentiates *through*
    them — the hand-written backward is the classic three-term
    batch-norm gradient — replacing the ~10-node graph the unfused
    formulation records per call.  Returns ``(out, mean, var)`` where
    ``mean``/``var`` are the keepdims-shaped batch statistics as plain
    arrays (biased variance), so the layer can update its running
    buffers without recomputing the reductions.
    """
    xd = x.data
    mean = xd.mean(axis=axes, keepdims=True)
    centered = xd - mean
    var = np.mean(centered * centered, axis=axes, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    w = weight.data.reshape(shape)
    out = x_hat * w
    out += bias.data.reshape(shape)
    parents = (x, weight, bias)
    if not _tape_many(parents):
        return Tensor(out), mean, var

    m = xd.size // weight.data.size  # elements reduced per channel

    def backward(g):
        # Layout rule: a row-major g makes each product C-contiguous
        # whatever x_hat's layout, so no sum reads a different array.
        xh = np.ascontiguousarray(x_hat) if _row_major(g) else x_hat
        if x.requires_grad:
            dxhat = g * w
            grad_x = (inv_std / m) * (
                m * dxhat
                - dxhat.sum(axis=axes, keepdims=True)
                - xh * (dxhat * xh).sum(axis=axes, keepdims=True)
            )
        else:
            grad_x = None
        grad_w = (
            (g * xh).sum(axis=axes) if weight.requires_grad else None
        )
        grad_b = g.sum(axis=axes) if bias.requires_grad else None
        return (grad_x, grad_w, grad_b)

    return Tensor._from_op(out, parents, backward), mean, var


def nll_loss(log_probs, targets, weight=None, reduction="mean"):
    """Negative log-likelihood over log-probabilities.

    Parameters
    ----------
    log_probs:
        (N, C) tensor of log-probabilities.
    targets:
        integer array / Tensor of shape (N,).
    weight:
        optional per-class weights (C,), numpy array or Tensor.
    reduction:
        "mean" (weighted mean as in PyTorch), "sum", or "none".
    """
    t = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
    t = t.astype(np.int64)
    n = log_probs.shape[0]
    w = None
    if weight is not None:
        w = weight.data if isinstance(weight, Tensor) else np.asarray(weight)
        sample_w = w[t]
    else:
        sample_w = np.ones(n, dtype=log_probs.dtype)

    picked = log_probs.data[np.arange(n), t]
    losses = -picked * sample_w

    if reduction == "none":
        denom = None
        out_data = losses
    elif reduction == "sum":
        denom = 1.0
        out_data = losses.sum()
    elif reduction == "mean":
        denom = sample_w.sum()
        out_data = losses.sum() / denom
    else:
        raise ValueError("unknown reduction %r" % reduction)

    def backward(g):
        grad = np.zeros_like(log_probs.data)
        if reduction == "none":
            grad[np.arange(n), t] = -sample_w * g
        elif reduction == "sum":
            grad[np.arange(n), t] = -sample_w * g
        else:
            grad[np.arange(n), t] = -sample_w * (g / denom)
        return (grad,)

    if _tape1(log_probs):
        return Tensor._from_op(out_data, (log_probs,), backward)
    return Tensor(out_data)
