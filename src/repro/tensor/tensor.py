"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction: a
tape-based autograd engine in the style of PyTorch's eager mode.  Every
``Tensor`` wraps a numpy array; operations build a DAG of tensors, and
``Tensor.backward`` runs reverse-mode differentiation over a topological
ordering of that DAG.

The engine supports full numpy broadcasting.  Gradients flowing into a
broadcast operand are reduced back to the operand's shape by
:func:`_unbroadcast`.

Only float64/float32 data participates in differentiation; integer tensors
(labels, indices) can be wrapped but must not require gradients.

Dtype policy
------------
Tensors are float32-by-default (see :mod:`repro.tensor._dtype`):

* Python scalars and lists become :func:`default_dtype` arrays.
* numpy floating arrays keep their dtype — a float64 array wrapped on
  purpose stays float64.
* float16 arrays are promoted to float32 (no half-precision kernels);
  the first promotion in a process emits a ``dtype.float16_promoted``
  telemetry event so traced runs record that it happened.
* an explicit ``dtype=`` argument always wins.

Fast path
---------
When no gradient can flow — ``no_grad()``, or no operand requires grad —
ops skip the tape entirely: no backward closure is allocated and no
graph edges are recorded.  The numerical result is byte-identical to the
taped path (same kernels, same order).  The fast path is disabled while
``detect_anomaly()`` or the tape profiler is active, since both hook op
creation.
"""

from __future__ import annotations

import numpy as np

from . import anomaly as _sanitizer
from .anomaly import _STATE as _ANOMALY
from ..telemetry import profiler as _profiler
from ..telemetry.clock import monotonic as _monotonic
from ..telemetry.profiler import _STATE as _PROFILE
from ._dtype import default_dtype, set_default_dtype, using_default_dtype

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "where",
    "default_dtype",
    "set_default_dtype",
    "using_default_dtype",
]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables gradient tracking.

    Mirrors ``torch.no_grad``: inside the block, newly created tensors do
    not record backward functions, which makes inference cheap.  Ops take
    the no-tape fast path — no backward closures, no graph edges — and
    produce byte-identical values to the taped path.
    """

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def is_grad_enabled():
    """Return True when operations should record backward functions."""
    return _GRAD_ENABLED


def _tape1(a):
    """Should a one-operand op record itself on the tape?"""
    if _ANOMALY.enabled or _PROFILE.enabled:
        return True
    return _GRAD_ENABLED and a.requires_grad


def _tape2(a, b):
    """Should a two-operand op record itself on the tape?"""
    if _ANOMALY.enabled or _PROFILE.enabled:
        return True
    return _GRAD_ENABLED and (a.requires_grad or b.requires_grad)


def _tape_many(tensors):
    """Should an n-ary op record itself on the tape?"""
    if _ANOMALY.enabled or _PROFILE.enabled:
        return True
    return _GRAD_ENABLED and any(t.requires_grad for t in tensors)


def _row_major(a):
    """Is ``a`` laid out in C order, possibly with gaps (a sliced view)?

    An elementwise product with such an operand comes out C-contiguous
    whatever the other operand's layout (numpy breaks layout conflicts
    in favour of C order), so a backward pass may swap that other
    operand for a C-contiguous copy and return the same array.
    """
    steps = [s for s, n in zip(a.strides, a.shape) if n > 1]
    return all(s > 0 for s in steps) and steps == sorted(steps, reverse=True)


def _unbroadcast(grad, shape):
    """Reduce ``grad`` so that it matches ``shape``.

    numpy broadcasting may have expanded an operand along leading axes or
    along axes of size one; the corresponding gradient must be summed over
    those axes to produce the gradient with respect to the original
    operand.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_FLOAT16_PROMOTED = False


def _note_float16_promotion(arr):
    """Record (once per process) that a float16 input was widened."""
    global _FLOAT16_PROMOTED
    if _FLOAT16_PROMOTED:
        return
    _FLOAT16_PROMOTED = True
    from ..telemetry import get_tracer

    get_tracer().event(
        "dtype.float16_promoted",
        to=str(np.dtype(np.float32)),
        shape=list(arr.shape),
    )


def _as_array(data, dtype=None):
    if isinstance(data, Tensor):
        raise TypeError("cannot build a Tensor from a Tensor; use .detach()")
    if dtype is not None:
        return np.asarray(data, dtype=dtype)
    if isinstance(data, (np.ndarray, np.generic)):
        # ndarrays and numpy scalars carry a dtype: honor it (a float64
        # reduction of a float64 tensor must stay float64), except for
        # float16, which the substrate silently widens.
        arr = np.asarray(data)
        if arr.dtype == np.float16:
            _note_float16_promotion(arr)
            return arr.astype(np.float32)
        return arr
    arr = np.asarray(data)
    if arr.dtype == np.float64:
        # Python floats / lists land here; honor the substrate default.
        return arr.astype(default_dtype(), copy=False)
    if arr.dtype == np.float16:
        _note_float16_promotion(arr)
        return arr.astype(np.float32)
    return arr


class Tensor:
    """A numpy-backed tensor that records operations for autograd.

    Parameters
    ----------
    data:
        Anything ``np.asarray`` accepts.
    requires_grad:
        When True (and grad mode is enabled), operations on this tensor
        are recorded so that ``backward`` can compute ``self.grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name",
                 "_anomaly")
    __array_priority__ = 100  # ensure ndarray + Tensor dispatches to Tensor

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = _as_array(data, dtype)
        if requires_grad and not np.issubdtype(self.data.dtype, np.floating):
            raise TypeError(
                "only floating-point tensors can require gradients, got %s"
                % self.data.dtype
            )
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._backward = None
        self._prev = ()
        self.name = None
        self._anomaly = None  # provenance record set by detect_anomaly()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self):
        return self.transpose()

    def __len__(self):
        return len(self.data)

    def __repr__(self):
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return "Tensor(%s%s)" % (np.array2string(self.data, precision=4), grad_flag)

    def numpy(self):
        """Return the underlying numpy array (shared memory, no copy)."""
        return self.data

    def item(self):
        return self.data.item()

    def detach(self):
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self):
        """Return a graph-detached deep copy."""
        return Tensor(self.data.copy(), requires_grad=False)

    def astype(self, dtype):
        """Differentiable dtype cast.

        Casts to a floating dtype stay on the tape: backward casts the
        gradient back to the source dtype, so a mid-graph float64 ↔
        float32 cast no longer silently detaches everything upstream.
        Casts to non-float dtypes (ints, bool) cannot carry gradients
        and return a detached tensor.
        """
        dtype = np.dtype(dtype)
        out_data = self.data.astype(dtype)
        if dtype.kind != "f" or not _tape1(self):
            return Tensor(out_data)
        src_dtype = self.data.dtype

        def backward(g):
            return (g.astype(src_dtype, copy=False),)

        return Tensor._from_op(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @classmethod
    def _from_op(cls, data, parents, backward):
        """Build a result tensor for an op with the given backward closure.

        ``backward`` receives the upstream gradient (numpy array) and must
        return one numpy gradient (or None) per parent, in order.
        """
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=requires)
        if requires:
            out._backward = backward
            out._prev = tuple(parents)
        if _ANOMALY.enabled:
            _sanitizer._on_op(out, parents, backward)
        if _PROFILE.enabled:
            _profiler._on_forward_op(backward)
        return out

    def backward(self, grad=None):
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (appropriate for scalar losses).
        Gradients accumulate into ``.grad`` of every tensor that requires
        them, matching PyTorch semantics.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    "gradient shape %s does not match tensor shape %s"
                    % (grad.shape, self.data.shape)
                )
        if _ANOMALY.enabled:
            _sanitizer._on_seed(self, grad)

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        grads = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is not None:
                if _ANOMALY.enabled:
                    _sanitizer._before_node_backward(node)
                if _PROFILE.enabled:
                    t0 = _monotonic()
                    parent_grads = node._backward(node_grad)
                    _profiler._on_backward_op(node._backward, _monotonic() - t0)
                else:
                    parent_grads = node._backward(node_grad)
                if _ANOMALY.enabled:
                    _sanitizer._after_node_backward(node, parent_grads)
                for parent, pgrad in zip(node._prev, parent_grads):
                    if pgrad is None or not parent.requires_grad:
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pgrad
                    else:
                        grads[key] = pgrad
            # Leaf (or intermediate explicitly retaining grad): accumulate.
            if node._backward is None:
                if _ANOMALY.enabled:
                    _sanitizer._on_accumulate(node, node_grad)
                if node.grad is None:
                    node.grad = node_grad.copy()
                else:
                    node.grad = node.grad + node_grad

    def zero_grad(self):
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other):
        other = self._coerce(other)
        out_data = self.data + other.data
        if not _tape2(self, other):
            return Tensor(out_data)

        def backward(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        out_data = self.data * other.data
        if not _tape2(self, other):
            return Tensor(out_data)

        def backward(g):
            return (
                _unbroadcast(g * other.data, self.shape)
                if self.requires_grad else None,
                _unbroadcast(g * self.data, other.shape)
                if other.requires_grad else None,
            )

        return Tensor._from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __sub__(self, other):
        other = self._coerce(other)
        out_data = self.data - other.data
        if not _tape2(self, other):
            return Tensor(out_data)

        def backward(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(-g, other.shape))

        return Tensor._from_op(out_data, (self, other), backward)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        out_data = -self.data
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            return (-g,)

        return Tensor._from_op(out_data, (self,), backward)

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data
        if not _tape2(self, other):
            return Tensor(out_data)

        def backward(g):
            return (
                _unbroadcast(g / other.data, self.shape)
                if self.requires_grad else None,
                _unbroadcast(-g * self.data / (other.data ** 2), other.shape)
                if other.requires_grad else None,
            )

        return Tensor._from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent):
        if isinstance(exponent, Tensor):
            base, expo = self, exponent
            out_data = base.data ** expo.data
            if not _tape2(base, expo):
                return Tensor(out_data)

            def backward(g):
                grad_base = g * expo.data * base.data ** (expo.data - 1)
                # d/de (b**e) = b**e * ln b; guard against log of <= 0.
                safe = np.where(base.data > 0, base.data, 1.0)
                grad_expo = g * out_data * np.log(safe)
                return (
                    _unbroadcast(grad_base, base.shape),
                    _unbroadcast(grad_expo, expo.shape),
                )

            return Tensor._from_op(out_data, (base, expo), backward)

        out_data = self.data ** exponent
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            return (g * exponent * self.data ** (exponent - 1),)

        return Tensor._from_op(out_data, (self,), backward)

    def __matmul__(self, other):
        other = self._coerce(other)
        out_data = self.data @ other.data
        if not _tape2(self, other):
            return Tensor(out_data)

        def backward(g):
            need_a = self.requires_grad
            need_b = other.requires_grad
            if self.ndim == 1 and other.ndim == 1:
                return (g * other.data if need_a else None,
                        g * self.data if need_b else None)
            if self.ndim == 1:
                # (k,) @ (k, n) -> (n,)
                return (g @ other.data.T if need_a else None,
                        np.outer(self.data, g) if need_b else None)
            if other.ndim == 1:
                # (m, k) @ (k,) -> (m,)
                return (np.outer(g, other.data) if need_a else None,
                        self.data.T @ g if need_b else None)
            ga = gb = None
            if need_a:
                ga = _unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.shape)
            if need_b:
                gb = _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.shape)
            return (ga, gb)

        return Tensor._from_op(out_data, (self, other), backward)

    # Comparison operators return detached boolean/float arrays.
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data > other)

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data < other)

    def __ge__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data >= other)

    def __le__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return Tensor(self.data <= other)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self):
        out_data = np.exp(self.data)
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            return (g * out_data,)

        return Tensor._from_op(out_data, (self,), backward)

    def log(self):
        out_data = np.log(self.data)
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            return (g / self.data,)

        return Tensor._from_op(out_data, (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            return (g * 0.5 / out_data,)

        return Tensor._from_op(out_data, (self,), backward)

    def abs(self):
        out_data = np.abs(self.data)
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            return (g * np.sign(self.data),)

        return Tensor._from_op(out_data, (self,), backward)

    def relu(self):
        if not _tape1(self):
            return Tensor(self.data * (self.data > 0))
        mask = self.data > 0
        out_data = self.data * mask
        mask_c = np.ascontiguousarray(mask)

        def backward(g):
            # Layout rule: return what ``g * mask`` returns; a row-major
            # g fixes C order, so it may read the C-ordered mask.
            return (g * (mask_c if _row_major(g) else mask),)

        return Tensor._from_op(out_data, (self,), backward)

    def sigmoid(self):
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            return (g * out_data * (1.0 - out_data),)

        return Tensor._from_op(out_data, (self,), backward)

    def tanh(self):
        out_data = np.tanh(self.data)
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            return (g * (1.0 - out_data ** 2),)

        return Tensor._from_op(out_data, (self,), backward)

    def leaky_relu(self, negative_slope=0.01):
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)
        out_data = self.data * scale
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            return (g * scale,)

        return Tensor._from_op(out_data, (self,), backward)

    def clip(self, low, high):
        """Clamp values; gradient is passed only where values were inside."""
        out_data = np.clip(self.data, low, high)
        if not _tape1(self):
            return Tensor(out_data)
        mask = (self.data >= low) & (self.data <= high)

        def backward(g):
            return (g * mask,)

        return Tensor._from_op(out_data, (self,), backward)

    def maximum(self, other):
        other = self._coerce(other)
        out_data = np.maximum(self.data, other.data)
        if not _tape2(self, other):
            return Tensor(out_data)
        pick_self = self.data >= other.data

        def backward(g):
            return (
                _unbroadcast(g * pick_self, self.shape),
                _unbroadcast(g * ~pick_self, other.shape),
            )

        return Tensor._from_op(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            if axis is None:
                grad = np.broadcast_to(g, self.shape)
                if grad.dtype != self.data.dtype:
                    grad = grad.astype(self.data.dtype)
                return (grad,)
            g_exp = g
            if not keepdims:
                g_exp = np.expand_dims(g, axis)
            return (np.broadcast_to(g_exp, self.shape),)

        return Tensor._from_op(out_data, (self,), backward)

    def mean(self, axis=None, keepdims=False):
        if axis is None:
            count = self.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis=None, keepdims=False):
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        out = (centered * centered).mean(axis=axis, keepdims=keepdims)
        return out

    def max(self, axis=None, keepdims=False):
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            if axis is None:
                mask = self.data == out_data
                denom = mask.sum()
                return (mask * (g / denom),)
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = self.data == expanded
            denom = mask.sum(axis=axis, keepdims=True)
            g_exp = g if keepdims else np.expand_dims(g, axis)
            return (mask * (g_exp / denom),)

        return Tensor._from_op(out_data, (self,), backward)

    def min(self, axis=None, keepdims=False):
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        if not _tape1(self):
            return Tensor(out_data)
        orig_shape = self.shape

        def backward(g):
            return (g.reshape(orig_shape),)

        return Tensor._from_op(out_data, (self,), backward)

    def flatten(self, start_dim=1):
        lead = self.shape[:start_dim]
        return self.reshape(lead + (-1,))

    def transpose(self, *axes):
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        out_data = self.data.transpose(axes)
        if not _tape1(self):
            return Tensor(out_data)
        inverse = np.argsort(axes)

        def backward(g):
            return (g.transpose(inverse),)

        return Tensor._from_op(out_data, (self,), backward)

    def __getitem__(self, idx):
        if isinstance(idx, Tensor):
            idx = idx.data
        out_data = self.data[idx]
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            grad = np.zeros_like(self.data)
            np.add.at(grad, idx, g)
            return (grad,)

        return Tensor._from_op(out_data, (self,), backward)

    def pad2d(self, padding):
        """Zero-pad the last two (spatial) axes of an NCHW tensor."""
        if self.ndim != 4:
            raise ValueError("pad2d expects an NCHW tensor")
        p = padding
        out_data = np.pad(self.data, ((0, 0), (0, 0), (p, p), (p, p)))
        if not _tape1(self):
            return Tensor(out_data)

        def backward(g):
            return (g[:, :, p:-p or None, p:-p or None],)

        return Tensor._from_op(out_data, (self,), backward)


def concatenate(tensors, axis=0):
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    if not _tape_many(tensors):
        return Tensor(out_data)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        grads = []
        for i in range(len(tensors)):
            slicer = [slice(None)] * g.ndim
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            grads.append(g[tuple(slicer)])
        return tuple(grads)

    return Tensor._from_op(out_data, tuple(tensors), backward)


def stack(tensors, axis=0):
    """Stack tensors along a new axis with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)
    if not _tape_many(tensors):
        return Tensor(out_data)

    def backward(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(moved[i] for i in range(len(tensors)))

    return Tensor._from_op(out_data, tuple(tensors), backward)


def where(condition, a, b):
    """Differentiable ``np.where``; condition is treated as constant."""
    cond = condition.data if isinstance(condition, Tensor) else np.asarray(condition)
    a = a if isinstance(a, Tensor) else Tensor(np.asarray(a))
    b = b if isinstance(b, Tensor) else Tensor(np.asarray(b))
    out_data = np.where(cond, a.data, b.data)
    if not _tape2(a, b):
        return Tensor(out_data)

    def backward(g):
        return (
            _unbroadcast(g * cond, a.shape),
            _unbroadcast(g * ~cond if cond.dtype == bool else g * (1 - cond), b.shape),
        )

    return Tensor._from_op(out_data, (a, b), backward)
