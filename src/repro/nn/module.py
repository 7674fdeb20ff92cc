"""Module/Parameter abstractions in the style of torch.nn.

A :class:`Module` owns named :class:`Parameter` tensors and child
modules, discovered automatically through attribute assignment.  It
provides parameter iteration, train/eval mode switching, and a simple
state-dict mechanism used by the experiment harness for checkpointing.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..telemetry import profiler as _profiler
from ..telemetry.clock import monotonic as _monotonic
from ..telemetry.profiler import _STATE as _PROFILE
from ..tensor import Tensor, default_dtype

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter(Tensor):
    """A Tensor that is registered as a trainable parameter.

    Parameters are stored in the substrate's default dtype (float32
    unless :func:`repro.tensor.set_default_dtype` says otherwise), so
    the whole optimizer/autograd hot path runs at one precision.
    """

    def __init__(self, data, requires_grad=True):
        super().__init__(
            np.asarray(data, dtype=default_dtype()), requires_grad=requires_grad
        )


class Module:
    """Base class for all neural network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # Registration via attribute assignment
    # ------------------------------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array):
        """Register a non-trainable numpy array (e.g. BN running stats)."""
        self._buffers[name] = np.asarray(array, dtype=default_dtype())
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def parameters(self):
        """Yield every trainable Parameter in this module tree."""
        for _, p in self.named_parameters():
            yield p

    def named_parameters(self, prefix=""):
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def named_buffers(self, prefix=""):
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix + name + ".")

    def modules(self):
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def children(self):
        return iter(self._modules.values())

    def num_parameters(self):
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Modes
    # ------------------------------------------------------------------
    def train(self, mode=True):
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def requires_grad_(self, flag=True):
        """Freeze (False) or unfreeze (True) every parameter in the tree.

        Frozen parameters are skipped by autograd, so freezing the
        extraction layers makes classifier-only fine-tuning cheaper.
        """
        for p in self.parameters():
            p.requires_grad = bool(flag)
        return self

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self):
        """Return a flat dict of parameter and buffer arrays (copies)."""
        state = {}
        for name, p in self.named_parameters():
            state["param:" + name] = p.data.copy()
        for name, b in self.named_buffers():
            state["buffer:" + name] = b.copy()
        return state

    def load_state_dict(self, state):
        """Load arrays saved by :meth:`state_dict` (shapes must match)."""
        params = dict(self.named_parameters())
        for key, value in state.items():
            kind, name = key.split(":", 1)
            if kind == "param":
                if name not in params:
                    raise KeyError("unexpected parameter %r" % name)
                if params[name].shape != value.shape:
                    raise ValueError(
                        "shape mismatch for %r: %s vs %s"
                        % (name, params[name].shape, value.shape)
                    )
                params[name].data[...] = value
            elif kind == "buffer":
                module, _, leaf = name.rpartition(".")
                target = self
                if module:
                    for part in module.split("."):
                        target = target._modules[part]
                target._buffers[leaf][...] = value
                object.__setattr__(target, leaf, target._buffers[leaf])
            else:
                raise KeyError("unknown state key kind %r" % kind)

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        if _PROFILE.enabled:
            t0 = _monotonic()
            out = self.forward(*args, **kwargs)
            _profiler._on_layer_forward(type(self).__name__, _monotonic() - t0)
            return out
        return self.forward(*args, **kwargs)

    def __repr__(self):
        lines = [type(self).__name__ + "("]
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append("  (%s): %s" % (name, child_repr))
        lines.append(")")
        return "\n".join(lines)


class Sequential(Module):
    """Chain modules in order; supports indexing and iteration.

    Adjacent ``(Linear, ReLU)`` pairs are executed through the fused
    ``linear_relu`` kernel (one tape node instead of three); both
    modules stay registered, so state dicts, repr and indexing are
    unchanged.  A layer advertises fusability via ``_fuses_into_relu``
    and an activation marks itself consumable via ``_is_relu``.
    """

    def __init__(self, *layers):
        super().__init__()
        self._layers = []
        for i, layer in enumerate(layers):
            setattr(self, "layer%d" % i, layer)
            self._layers.append(layer)

    def forward(self, x):
        layers = self._layers
        n = len(layers)
        i = 0
        while i < n:
            layer = layers[i]
            if (
                i + 1 < n
                and getattr(layer, "_fuses_into_relu", False)
                and getattr(layers[i + 1], "_is_relu", False)
            ):
                x = layer.forward_relu(x)
                i += 2
                continue
            x = layer(x)
            i += 1
        return x

    def __len__(self):
        return len(self._layers)

    def __getitem__(self, idx):
        return self._layers[idx]

    def __iter__(self):
        return iter(self._layers)
