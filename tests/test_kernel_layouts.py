"""The conv, ReLU and batch-norm kernels against their earlier forms.

``im2col``, ``col2im``, ``Tensor.relu``'s backward and
``batchnorm_train``'s backward move data in whatever order suits their
inputs, but each must return exactly the array the straightforward
version below returns: the same bytes, dtype and strides.  Downstream
reductions then read arrays of unchanged layout, so float32 training
stays bitwise equal.  The references are kept verbatim, in the way
``tests/test_eos.py::ReferenceEOS`` keeps the per-row EOS loop.
"""

import numpy as np
import pytest

from repro.losses import CrossEntropyLoss
from repro.nn import AvgPool2d, Conv2d, ConvTranspose2d, MaxPool2d, build_model
from repro.optim import SGD
from repro.tensor import Tensor, using_default_dtype
from repro.tensor import conv as conv_mod
from repro.tensor import functional as functional_mod
from repro.tensor.conv import col2im, im2col
from repro.tensor.functional import batchnorm_train
from repro.tensor.pool import scratch
from repro.tensor.tensor import _tape1, _tape_many


# ----------------------------------------------------------------------
# References: the kernels as they were written before the layout work
# ----------------------------------------------------------------------
def _out_size(size, kernel, stride, padding):
    return (size + 2 * padding - kernel) // stride + 1


def ref_im2col(x, kernel, stride=1, padding=0, out=None):
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

    strides = x.strides
    shape = (n, c, oh, ow, kh, kw)
    new_strides = (
        strides[0],
        strides[1],
        strides[2] * stride,
        strides[3] * stride,
        strides[2],
        strides[3],
    )
    windows = np.lib.stride_tricks.as_strided(x, shape=shape, strides=new_strides)
    # (N, OH, OW, C, KH, KW) -> (N*OH*OW, C*KH*KW)
    transposed = windows.transpose(0, 2, 3, 1, 4, 5)
    if out is None:
        cols = np.ascontiguousarray(transposed).reshape(
            n * oh * ow, c * kh * kw
        )
    else:
        np.copyto(out.reshape(n, oh, ow, c, kh, kw), transposed)
        cols = out
    return cols, oh, ow


def ref_col2im(cols, x_shape, kernel, stride=1, padding=0):
    n, c, h, w = x_shape
    kh, kw = kernel
    oh = _out_size(h, kh, stride, padding)
    ow = _out_size(w, kw, stride, padding)
    cols = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 1, 2, 4, 5)

    hp, wp = h + 2 * padding, w + 2 * padding
    out = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + stride * oh
        for j in range(kw):
            j_end = j + stride * ow
            out[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, :, :, i, j]
    if padding > 0:
        out = out[:, :, padding:-padding, padding:-padding]
    return out


def ref_relu(self):
    if not _tape1(self):
        return Tensor(self.data * (self.data > 0))
    mask = self.data > 0
    out_data = self.data * mask

    def backward(g):
        return (g * mask,)

    return Tensor._from_op(out_data, (self,), backward)


def ref_batchnorm_train(x, weight, bias, axes, shape, eps):
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
        if x.requires_grad:
            dxhat = g * w
            grad_x = (inv_std / m) * (
                m * dxhat
                - dxhat.sum(axis=axes, keepdims=True)
                - x_hat * (dxhat * x_hat).sum(axis=axes, keepdims=True)
            )
        else:
            grad_x = None
        grad_w = (
            (g * x_hat).sum(axis=axes) if weight.requires_grad else None
        )
        grad_b = g.sum(axis=axes) if bias.requires_grad else None
        return (grad_x, grad_w, grad_b)

    return Tensor._from_op(out, parents, backward), mean, var


@pytest.fixture
def reference_kernels(monkeypatch):
    """Run every conv, ReLU and batch-norm op on the reference kernels."""
    monkeypatch.setattr(conv_mod, "im2col", ref_im2col)
    monkeypatch.setattr(conv_mod, "col2im", ref_col2im)
    monkeypatch.setattr(functional_mod, "batchnorm_train", ref_batchnorm_train)
    monkeypatch.setattr(Tensor, "relu", ref_relu)


# ----------------------------------------------------------------------
# The grid
# ----------------------------------------------------------------------
def _geometries():
    """(C, H, W, kernel, stride, padding) of the convs and pools in use."""
    out = []
    for width in (6, 8):
        out += [
            (3, 12, 12, 3, 1, 1),              # SmallConvNet conv1
            (width, 12, 12, 3, 2, 1),          # conv2
            (2 * width, 6, 6, 3, 2, 1),        # conv3
            (2 * width, 12, 12, 1, 2, 0),      # ResNet's 1x1 shortcut
        ]
    out.append((1, 12, 12, 2, 2, 0))           # MaxPool2d / AvgPool2d rows
    return out


BATCHES = (32, 17, 1)
DTYPES = (np.float32, np.float64)


def _values(rng, shape, dtype):
    """Normals with -0.0, +0.0 and repeated values mixed in."""
    v = rng.standard_normal(shape).astype(dtype)
    pick = rng.random(shape)
    v[pick < 0.1] = -0.0
    v[(pick >= 0.1) & (pick < 0.15)] = 0.0
    v[(pick >= 0.15) & (pick < 0.25)] = 0.375
    v[(pick >= 0.25) & (pick < 0.3)] = -0.375
    return v


def _layouts(a):
    """``a``'s values as a contiguous array, an NHWC-ordered view, a
    view into a zero-padded array, and a broadcast view (the gradient
    global average pooling hands back)."""
    n, c, h, w = a.shape
    padded = np.zeros((n, c, h + 2, w + 2), dtype=a.dtype)
    padded[:, :, 1:-1, 1:-1] = a
    return {
        "contiguous": a.copy(),
        "nhwc": np.ascontiguousarray(a.transpose(0, 2, 3, 1)).transpose(
            0, 3, 1, 2
        ),
        "padded": padded[:, :, 1:-1, 1:-1],
        "broadcast": np.broadcast_to(a[:, :, :1, :1], a.shape),
    }


def assert_same_array(actual, expected, where=""):
    assert actual.dtype == expected.dtype, where
    assert actual.shape == expected.shape, where
    assert actual.strides == expected.strides, where
    assert actual.tobytes() == expected.tobytes(), where


# ----------------------------------------------------------------------
# Kernel by kernel
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", BATCHES)
def test_im2col_matches_reference(batch, dtype):
    rng = np.random.default_rng(batch)
    for c, h, w, k, stride, padding in _geometries():
        for name, x in _layouts(_values(rng, (batch, c, h, w), dtype)).items():
            where = "%s %r" % (name, (c, h, w, k, stride, padding))
            expected = ref_im2col(x, (k, k), stride, padding)
            actual = im2col(x, (k, k), stride, padding)
            assert actual[1:] == expected[1:], where
            assert_same_array(actual[0], expected[0], where)
            # The pooled path writes into the caller's buffer.
            out = np.empty_like(expected[0])
            cols = im2col(x, (k, k), stride, padding, out=out)[0]
            assert cols is out, where
            assert_same_array(cols, expected[0], where)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", BATCHES)
def test_col2im_matches_reference(batch, dtype):
    rng = np.random.default_rng(batch)
    for c, h, w, k, stride, padding in _geometries():
        oh = _out_size(h, k, stride, padding)
        ow = _out_size(w, k, stride, padding)
        shape = (batch * oh * ow, c * k * k)
        cols = _values(rng, shape, dtype)
        wide = np.zeros((shape[0], shape[1] + 3), dtype=dtype)
        wide[:, :shape[1]] = cols
        for name, g in {
            "contiguous": cols,
            "fortran": np.asfortranarray(cols),
            "sliced": wide[:, :shape[1]],
            "broadcast": np.broadcast_to(cols[:1], shape),
        }.items():
            where = "%s %r" % (name, (c, h, w, k, stride, padding))
            args = ((batch, c, h, w), (k, k), stride, padding)
            assert_same_array(col2im(g, *args), ref_col2im(g, *args), where)


def _leaf(data):
    return Tensor(data, requires_grad=True)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", BATCHES)
def test_relu_backward_matches_reference(batch, dtype):
    rng = np.random.default_rng(batch)
    for c, h, w in ((6, 12, 12), (12, 6, 6), (24, 3, 3), (32, 3, 3)):
        inputs = _layouts(_values(rng, (batch, c, h, w), dtype))
        grads = _layouts(_values(rng, (batch, c, h, w), dtype))
        for x_name in ("contiguous", "nhwc", "padded"):
            x = _leaf(inputs[x_name])
            actual, expected = x.relu(), ref_relu(x)
            assert_same_array(actual.data, expected.data, x_name)
            for g_name, g in grads.items():
                where = "x %s, g %s, %r" % (x_name, g_name, (c, h, w))
                assert_same_array(
                    actual._backward(g)[0], expected._backward(g)[0], where
                )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", BATCHES)
def test_batchnorm_backward_matches_reference(batch, dtype):
    rng = np.random.default_rng(batch)
    for c, h, w in ((6, 12, 12), (12, 6, 6), (24, 3, 3), (16, 1, 1)):
        inputs = _layouts(_values(rng, (batch, c, h, w), dtype))
        grads = _layouts(_values(rng, (batch, c, h, w), dtype))
        weight = _leaf(rng.standard_normal(c).astype(dtype))
        bias = _leaf(rng.standard_normal(c).astype(dtype))
        args = ((0, 2, 3), (1, c, 1, 1), 1e-5)
        for x_name in ("nhwc", "contiguous", "padded"):
            x = _leaf(inputs[x_name])
            actual = batchnorm_train(x, weight, bias, *args)
            expected = ref_batchnorm_train(x, weight, bias, *args)
            for a, e in zip((actual[0].data,) + actual[1:],
                            (expected[0].data,) + expected[1:]):
                assert_same_array(a, e, x_name)
            for g_name, g in grads.items():
                where = "x %s, g %s, %r" % (x_name, g_name, (c, h, w))
                for a, e in zip(actual[0]._backward(g),
                                expected[0]._backward(g)):
                    assert_same_array(a, e, where)


def test_batchnorm1d_backward_matches_reference():
    rng = np.random.default_rng(3)
    for dtype in DTYPES:
        x = _leaf(_values(rng, (17, 10), dtype))
        weight = _leaf(rng.standard_normal(10).astype(dtype))
        bias = _leaf(rng.standard_normal(10).astype(dtype))
        args = (x, weight, bias, (0,), (1, 10), 1e-5)
        g0 = _values(rng, (17, 10), dtype)
        for g in (g0, np.asfortranarray(g0), np.broadcast_to(g0[:1], g0.shape)):
            actual = batchnorm_train(*args)[0]._backward(g)
            expected = ref_batchnorm_train(*args)[0]._backward(g)
            for a, e in zip(actual, expected):
                assert_same_array(a, e)


# ----------------------------------------------------------------------
# Layers and whole models
# ----------------------------------------------------------------------
def _layer_outputs(layer, x_data):
    """Output, input gradient and parameter gradients for a seeded g."""
    x = _leaf(x_data)
    out = layer(x)
    out.backward(_values(np.random.default_rng(9), out.shape, out.dtype))
    grads = [p.grad for p in layer.parameters()]
    return [out.data, x.grad] + grads


@pytest.mark.parametrize("dtype", DTYPES)
def test_layers_on_nhwc_inputs_match_reference(dtype, monkeypatch):
    rng = np.random.default_rng(5)
    layers = [
        lambda: ConvTranspose2d(8, 4, 3, stride=2, padding=1,
                                rng=np.random.default_rng(0)),
        lambda: MaxPool2d(2),
        lambda: AvgPool2d(2),
        lambda: Conv2d(8, 16, 1, stride=2, bias=False,
                       rng=np.random.default_rng(0)),
    ]
    for batch in BATCHES:
        x = _layouts(_values(rng, (batch, 8, 12, 12), dtype))["nhwc"]
        for make in layers:
            with using_default_dtype(dtype):
                actual = _layer_outputs(make(), x)
                with monkeypatch.context() as patch:
                    patch.setattr(conv_mod, "im2col", ref_im2col)
                    patch.setattr(conv_mod, "col2im", ref_col2im)
                    expected = _layer_outputs(make(), x)
            for a, e in zip(actual, expected):
                assert_same_array(a, e, repr(make()))


ARCHITECTURES = [
    ("resnet8", {"width_multiplier": 0.25}),
    ("resnet14", {"width_multiplier": 0.25}),
    ("resnet20", {"width_multiplier": 0.25}),
    ("resnet32", {"width_multiplier": 0.25}),
    ("resnet56", {"width_multiplier": 0.25}),
    ("wideresnet", {"depth": 10, "width_multiplier": 0.25}),
    ("densenet", {"growth_rate": 4, "block_layers": (1, 1, 1)}),
    ("smallconvnet", {"width": 6}),
]


def _three_sgd_steps(name, kwargs, dtype):
    """Parameter and buffer bytes after 3 SGD steps on ragged batches."""
    rng = np.random.default_rng(7)
    with using_default_dtype(dtype):
        model = build_model(name, num_classes=3,
                            rng=np.random.default_rng(1), **kwargs)
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9,
                  weight_decay=5e-4)
        loss = CrossEntropyLoss()
        for batch in (9, 1, 4):
            x = rng.standard_normal((batch, 3, 12, 12)).astype(dtype)
            y = rng.integers(0, 3, size=batch)
            opt.zero_grad()
            loss(model(Tensor(x)), y).backward()
            opt.step()
    return {key: value.tobytes() for key, value in model.state_dict().items()}


def test_registry_is_covered():
    from repro.nn.models import _MODEL_REGISTRY

    assert sorted(_MODEL_REGISTRY) == sorted(n for n, _ in ARCHITECTURES)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name,kwargs", ARCHITECTURES)
def test_sgd_steps_match_reference_kernels(name, kwargs, dtype, request):
    actual = _three_sgd_steps(name, kwargs, dtype)
    request.getfixturevalue("reference_kernels")
    assert _three_sgd_steps(name, kwargs, dtype) == actual
