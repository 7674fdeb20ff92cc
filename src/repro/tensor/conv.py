"""Convolution and pooling primitives built on the autograd engine.

Convolutions are implemented with the classic im2col/col2im lowering:
the input is unfolded into a matrix of receptive-field columns so that
the convolution becomes a single matrix multiply.  On CPU with numpy this
is by far the fastest formulation, and its backward pass (col2im) is an
exact transpose of the unfolding.

im2col is one gather: ``np.take`` of each sample's flat (C, HP, WP)
values at a per-sample (OH*OW, C*KH*KW) window index.  The index depends
only on (C, HP, WP, KH, KW, stride) and the sample's element strides,
never on the batch size, and lives read-only in a bounded LRU cache (64
geometries).  A sample stored as one contiguous block in another axis
order (an NHWC-ordered input) is read in place through its strides
rather than copied into C order first.
col2im reorders the columns once so that each kernel offset's
block is contiguous, accumulates the KH*KW window adds in (i, j) order
from +0.0 in an (HP, WP, N, C) buffer, where each add runs over long
rows, and copies the sums once into the padded-then-sliced NCHW array.
Every output element receives the same additions in the same order as
in a direct strided accumulation, so the sums are exact.

Layout rule: a kernel may compute in any layout, but it returns exactly
the array the plain formulation returns — bytes, dtype and strides.
numpy's float32 sums depend on the order in which they read memory, so
the layouts of the arrays that reductions (the gemms, batch-norm's sums)
read fix the float32 bits: a change that keeps every value but changes
a layout a reduction reads can still change the results.  That is why
``conv2d`` still returns an NCHW-ordered view of NHWC memory.

Hot-path buffer reuse: the per-batch intermediates (padded inputs,
column matrices, backward gradient columns) are views of the per-site
scratch workspace in :mod:`repro.tensor.pool`, valid until the next
request at the same site.  Only buffers whose lifetime provably ends
inside the op call come from it — training-mode forward columns escape
into backward closures and stay heap-allocated, while the no-grad
forward path and the (serially executed) backward closures reuse
scratch freely.  Backward passes also skip whole gradient
computations for parents that don't require grad: the first conv layer
of a network never pays for col2im, since image batches are constants.
"""

from __future__ import annotations

import functools

import numpy as np

from .pool import scratch
from .tensor import Tensor, _tape1, _tape_many

__all__ = [
    "im2col",
    "col2im",
    "conv2d",
    "conv_transpose2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
]


def _out_size(size, kernel, stride, padding):
    return (size + 2 * padding - kernel) // stride + 1


@functools.lru_cache(maxsize=64)
def _window_index(c, hp, wp, kh, kw, stride, strides):
    """Offsets of every receptive field inside one (C, HP, WP) sample.

    ``strides`` are the sample's (C, HP, WP) element strides.  Row ``r``
    of the (OH*OW, C*KH*KW) result lists, in (c, i, j) order, the flat
    offsets read by output position ``r``.  Pure in its arguments and
    independent of the batch size, so it is cached read-only; forked
    workers inherit the cache harmlessly.
    """
    sc, sh, sw = strides
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    corner = (np.arange(oh)[:, None] * (stride * sh)
              + np.arange(ow) * (stride * sw))
    offset = (
        np.arange(c)[:, None, None] * sc
        + np.arange(kh)[:, None] * sh
        + np.arange(kw) * sw
    )
    idx = corner.reshape(-1, 1) + offset.reshape(1, -1)
    idx.flags.writeable = False
    return idx


def _sample_rows(x):
    """``x``'s samples as the rows of an (N, C*H*W) array, and the
    (C, H, W) element strides inside a row.

    When every sample is one contiguous block in some axis order (a
    C-ordered or an NHWC-ordered input), the rows are a view of that
    memory; otherwise ``reshape`` copies the samples into C order.
    """
    n, c, h, w = x.shape
    if not x.flags.c_contiguous and min(x.strides[1:]) > 0:
        by_stride = sorted((1, 2, 3), key=lambda axis: -x.strides[axis])
        block = x.transpose(0, *by_stride)
        if block[:1].flags.c_contiguous:
            return (block.reshape(n, -1),
                    tuple(stride // x.itemsize for stride in x.strides[1:]))
    return x.reshape(n, -1), (h * w, w, 1)


def im2col(x, kernel, stride=1, padding=0, out=None):
    """Unfold an (N, C, H, W) array into (N*OH*OW, C*KH*KW) columns.

    Pure numpy helper; used by both the forward and (via its transpose,
    :func:`col2im`) the backward pass of :func:`conv2d`.  ``out``, when
    given, must be a C-contiguous (N*OH*OW, C*KH*KW) buffer the columns
    are written into (callers pass pool scratch on paths where the
    columns don't outlive the op).  Padding always goes to the
    ``im2col.pad`` scratch, on the taped paths too: the gather below
    reads it before this function returns, so it never escapes.
    """
    n, c, h, w = x.shape
    kh, kw = kernel
    oh = _out_size(h, kh, stride, padding)
    ow = _out_size(w, kw, stride, padding)
    if padding > 0:
        hp, wp = h + 2 * padding, w + 2 * padding
        padded = scratch("im2col.pad", (n, c, hp, wp), x.dtype)
        padded.fill(0.0)
        padded[:, :, padding:padding + h, padding:padding + w] = x
        x = padded

    # An unpadded NHWC-ordered input (ResNet's 1x1 stride-2 shortcut) is
    # gathered in place, with offsets built from its strides.  The
    # offsets are in range by construction; mode="clip" lets take write
    # straight into ``out`` where the default mode would buffer a copy.
    samples, strides = _sample_rows(x)
    idx = _window_index(c, x.shape[2], x.shape[3], kh, kw, stride, strides)
    if out is None:
        cols = np.take(samples, idx, axis=1, mode="clip").reshape(
            n * oh * ow, c * kh * kw
        )
    else:
        np.take(samples, idx, axis=1, mode="clip",
                out=out.reshape(n, oh * ow, c * kh * kw))
        cols = out
    return cols, oh, ow


def col2im(cols, x_shape, kernel, stride=1, padding=0):
    """Fold gradient columns back to an (N, C, H, W) array.

    Exact adjoint of :func:`im2col`: overlapping windows accumulate.
    The result is freshly allocated (it escapes to the caller).
    """
    n, c, h, w = x_shape
    kh, kw = kernel
    oh = _out_size(h, kh, stride, padding)
    ow = _out_size(w, kw, stride, padding)
    # One reordering copy puts each kernel offset's (OH, OW, N, C) block
    # in contiguous memory, so every window add below runs over rows of
    # N*C (or longer) instead of over the C entries of one window.
    windows = np.ascontiguousarray(
        cols.reshape(n, oh, ow, c, kh, kw).transpose(4, 5, 1, 2, 0, 3)
    )
    hp, wp = h + 2 * padding, w + 2 * padding
    acc = np.zeros((hp, wp, n, c), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            acc[i:i_end:stride, j:j_end:stride] += windows[i, j]
    # copy(), not ascontiguousarray(): a view whose only non-unit axes
    # are in C order would come back as is, with non-C size-1 strides.
    out = acc.transpose(2, 3, 0, 1).copy()
    if padding > 0:
        out = out[:, :, padding:-padding, padding:-padding]
    return out


def conv2d(x, weight, bias=None, stride=1, padding=0):
    """2D convolution (cross-correlation) over an NCHW tensor.

    Parameters
    ----------
    x:
        Input ``Tensor`` of shape (N, C_in, H, W).
    weight:
        Kernel ``Tensor`` of shape (C_out, C_in, KH, KW).
    bias:
        Optional ``Tensor`` of shape (C_out,).
    """
    n, c_in, h, w = x.shape
    c_out, c_in_w, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(
            "input channels %d do not match weight channels %d" % (c_in, c_in_w)
        )
    parents = (x, weight) if bias is None else (x, weight, bias)
    tape = _tape_many(parents)
    oh = _out_size(h, kh, stride, padding)
    ow = _out_size(w, kw, stride, padding)
    cols_shape = (n * oh * ow, c_in * kh * kw)
    if tape:
        # Columns are captured by the backward closure (grad_w needs them).
        cols, _, _ = im2col(x.data, (kh, kw), stride, padding)
    else:
        cols, _, _ = im2col(
            x.data, (kh, kw), stride, padding,
            out=scratch("conv2d.fwd.cols", cols_shape, x.data.dtype),
        )
    w_mat = weight.data.reshape(c_out, -1)
    out = cols @ w_mat.T  # (N*OH*OW, C_out)
    if bias is not None:
        out += bias.data
    out = out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)
    if not tape:
        return Tensor(out)

    def backward(g):
        # g: (N, C_out, OH, OW) -> (N*OH*OW, C_out); backward closures run
        # serially, so per-site scratch cannot alias a live buffer.
        g_mat = scratch("conv2d.bwd.gmat", (n * oh * ow, c_out), g.dtype)
        np.copyto(g_mat.reshape(n, oh, ow, c_out), g.transpose(0, 2, 3, 1))
        grad_w = (
            (g_mat.T @ cols).reshape(weight.shape)
            if weight.requires_grad else None
        )
        if x.requires_grad:
            grad_cols = np.matmul(
                g_mat, w_mat,
                out=scratch("conv2d.bwd.gcols", cols_shape, g.dtype),
            )
            grad_x = col2im(grad_cols, x.shape, (kh, kw), stride, padding)
        else:
            grad_x = None
        if bias is None:
            return (grad_x, grad_w)
        grad_b = g_mat.sum(axis=0) if bias.requires_grad else None
        return (grad_x, grad_w, grad_b)

    return Tensor._from_op(out, parents, backward)


def conv_transpose2d(x, weight, bias=None, stride=1, padding=0):
    """2D transposed convolution (the adjoint of :func:`conv2d`).

    Upsamples an (N, C_in, H, W) tensor; the output spatial size is
    ``(H - 1) * stride - 2 * padding + KH``.  The weight layout follows
    the PyTorch convention for transposed convs: (C_in, C_out, KH, KW).

    Implementation note: forward is exactly conv2d's input-gradient
    (col2im of the weight-projected columns), and the backward pass is
    conv2d's forward machinery — the two ops are adjoint by
    construction, which the test-suite verifies with an inner-product
    identity.
    """
    n, c_in, h, w = x.shape
    c_in_w, c_out, kh, kw = weight.shape
    if c_in != c_in_w:
        raise ValueError(
            "input channels %d do not match weight channels %d" % (c_in, c_in_w)
        )
    oh = (h - 1) * stride - 2 * padding + kh
    ow = (w - 1) * stride - 2 * padding + kw
    if oh <= 0 or ow <= 0:
        raise ValueError("output size would be non-positive")

    parents = (x, weight) if bias is None else (x, weight, bias)
    tape = _tape_many(parents)

    # Treat x as the "gradient" flowing into a conv2d with the transposed
    # weight: cols = x @ w, then fold back to the (larger) output.
    w_mat = weight.data.reshape(c_in, -1)  # (C_in, C_out*KH*KW)
    if tape:
        # x_mat is captured by the backward closure (grad_w needs it).
        x_mat = np.ascontiguousarray(
            x.data.transpose(0, 2, 3, 1)
        ).reshape(-1, c_in)  # (N*H*W, C_in)
        cols = x_mat @ w_mat  # (N*H*W, C_out*KH*KW)
    else:
        x_mat = scratch("convT.fwd.xmat", (n * h * w, c_in), x.data.dtype)
        np.copyto(x_mat.reshape(n, h, w, c_in), x.data.transpose(0, 2, 3, 1))
        cols = np.matmul(
            x_mat, w_mat,
            out=scratch(
                "convT.fwd.cols", (n * h * w, c_out * kh * kw), x.data.dtype
            ),
        )
    out = col2im(cols, (n, c_out, oh, ow), (kh, kw), stride, padding)
    if bias is not None:
        out += bias.data[None, :, None, None]
    if not tape:
        return Tensor(out)

    def backward(g):
        # dL/dx: run the adjoint (a plain convolution) over g.
        g_cols, _, _ = im2col(g, (kh, kw), stride, padding)
        if x.requires_grad:
            grad_x_mat = g_cols @ w_mat.T  # (N*H*W, C_in)
            grad_x = grad_x_mat.reshape(n, h, w, c_in).transpose(0, 3, 1, 2)
        else:
            grad_x = None
        grad_w = (
            (x_mat.T @ g_cols).reshape(weight.shape)
            if weight.requires_grad else None
        )
        if bias is None:
            return (grad_x, grad_w)
        grad_b = g.sum(axis=(0, 2, 3)) if bias.requires_grad else None
        return (grad_x, grad_w, grad_b)

    return Tensor._from_op(out, parents, backward)


def max_pool2d(x, kernel=2, stride=None):
    """Max pooling over non-overlapping (or strided) windows."""
    if stride is None:
        stride = kernel
    n, c, h, w = x.shape
    tape = _tape1(x)
    oh = _out_size(h, kernel, stride, 0)
    ow = _out_size(w, kernel, stride, 0)
    rows = n * c * oh * ow
    # Columns are consumed inside this call (argmax + gather); the
    # backward closure only needs the argmax indices, so scratch is safe
    # on both paths.
    cols, _, _ = im2col(
        x.data.reshape(n * c, 1, h, w), (kernel, kernel), stride, 0,
        out=scratch("pool.fwd.cols", (rows, kernel * kernel), x.data.dtype),
    )
    arg = cols.argmax(axis=1)
    out = cols[np.arange(rows), arg]
    out = out.reshape(n, c, oh, ow)
    if not tape:
        return Tensor(out)

    def backward(g):
        grad_cols = scratch(
            "pool.bwd.gcols", (rows, kernel * kernel), g.dtype
        )
        grad_cols.fill(0.0)
        grad_cols[np.arange(rows), arg] = g.reshape(-1)
        grad_x = col2im(
            grad_cols, (n * c, 1, h, w), (kernel, kernel), stride, 0
        )
        return (grad_x.reshape(x.shape),)

    return Tensor._from_op(out, (x,), backward)


def avg_pool2d(x, kernel=2, stride=None):
    """Average pooling over spatial windows."""
    if stride is None:
        stride = kernel
    n, c, h, w = x.shape
    tape = _tape1(x)
    oh = _out_size(h, kernel, stride, 0)
    ow = _out_size(w, kernel, stride, 0)
    rows = n * c * oh * ow
    k2 = kernel * kernel
    cols, _, _ = im2col(
        x.data.reshape(n * c, 1, h, w), (kernel, kernel), stride, 0,
        out=scratch("pool.fwd.cols", (rows, k2), x.data.dtype),
    )
    out = cols.mean(axis=1).reshape(n, c, oh, ow)
    if not tape:
        return Tensor(out)

    def backward(g):
        g_flat = g.reshape(-1, 1)
        grad_cols = scratch("pool.bwd.gcols", (rows, k2), g.dtype)
        np.copyto(grad_cols, g_flat / k2)
        grad_x = col2im(
            grad_cols, (n * c, 1, h, w), (kernel, kernel), stride, 0
        )
        return (grad_x.reshape(x.shape),)

    return Tensor._from_op(out, (x,), backward)


def global_avg_pool2d(x):
    """Average over all spatial positions: (N, C, H, W) -> (N, C).

    This is the pooling that produces the paper's *feature embeddings*
    (the output of the CNN's penultimate layer).
    """
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))
    if not _tape1(x):
        return Tensor(out)
    scale = 1.0 / (h * w)

    def backward(g):
        # Read-only broadcast view: downstream closures never mutate
        # upstream gradients in place, so skipping the copy is safe.
        return (np.broadcast_to(g[:, :, None, None] * scale, x.shape),)

    return Tensor._from_op(out, (x,), backward)
