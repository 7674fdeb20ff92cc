"""Runtime autograd-tape sanitizer (``detect_anomaly``).

The numpy autograd engine in :mod:`repro.tensor` has none of PyTorch's
safety nets, so this module supplies them as an *opt-in* instrument:

* **Forward NaN/Inf tracing** — every op result is checked as it is
  recorded; the error names the *producing* op and its creation site,
  not the downstream op where the NaN finally surfaced.
* **Backward NaN/Inf tracing** — each backward closure's output
  gradients are checked before they propagate.
* **In-place mutation detection** — when an array goes on the tape, a
  version stamp (CRC32 of its buffer) is recorded; the stamp is
  re-verified when the tape node is consumed during ``backward``, so
  external ``arr[...] = v`` writes between forward and backward raise
  instead of silently corrupting gradients.
* **Dtype/shape invariants** — gradients must match their tensor's
  shape, and reduced-precision leaves must not receive higher-precision
  gradients (e.g. float64 grads flowing into float32 leaves).

Everything is gated behind one boolean so the hot path pays a single
attribute read when the sanitizer is off::

    from repro.tensor import Tensor, detect_anomaly

    with detect_anomaly():
        loss = model(x).sum()
        loss.backward()        # raises AnomalyError at the culprit op
"""

from __future__ import annotations

import traceback
import zlib

import numpy as np

__all__ = [
    "AnomalyError",
    "detect_anomaly",
    "is_anomaly_enabled",
    "array_version",
]


class AnomalyError(RuntimeError):
    """Raised when the tape sanitizer traps a numeric or aliasing defect.

    Attributes
    ----------
    op:
        Name of the producing op (e.g. ``"__mul__"``, ``"conv2d"``).
    site:
        ``file:line`` of the op's creation site in user code, when known.
    """

    def __init__(self, message, op=None, site=None):
        self.op = op
        self.site = site
        detail = message
        if op is not None:
            detail += " [op: %s" % op
            if site:
                detail += " @ %s" % site
            detail += "]"
        super().__init__(detail)


class _State:
    __slots__ = ("enabled", "check_nan", "check_mutation", "check_dtype")

    def __init__(self):
        self.enabled = False
        self.check_nan = True
        self.check_mutation = True
        self.check_dtype = True


_STATE = _State()


def is_anomaly_enabled():
    """True inside an active :class:`detect_anomaly` block."""
    return _STATE.enabled


class detect_anomaly:
    """Context manager enabling the tape sanitizer.

    Parameters
    ----------
    check_nan:
        Trap NaN/Inf in forward values and backward gradients.
    check_mutation:
        Trap in-place mutation of arrays already recorded on the tape
        (version-counter check at backward time).
    check_dtype:
        Trap gradient shape mismatches and precision-widening gradients
        flowing into reduced-precision tensors.
    """

    def __init__(self, check_nan=True, check_mutation=True, check_dtype=True):
        self.check_nan = check_nan
        self.check_mutation = check_mutation
        self.check_dtype = check_dtype
        self._prev = None

    def __enter__(self):
        self._prev = (
            _STATE.enabled,
            _STATE.check_nan,
            _STATE.check_mutation,
            _STATE.check_dtype,
        )
        _STATE.enabled = True
        _STATE.check_nan = self.check_nan
        _STATE.check_mutation = self.check_mutation
        _STATE.check_dtype = self.check_dtype
        return self

    def __exit__(self, exc_type, exc, tb):
        (
            _STATE.enabled,
            _STATE.check_nan,
            _STATE.check_mutation,
            _STATE.check_dtype,
        ) = self._prev
        return False


# ----------------------------------------------------------------------
# Provenance helpers
# ----------------------------------------------------------------------
def array_version(arr):
    """Version stamp of an array's buffer (CRC32 over raw bytes)."""
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


def _op_name(backward):
    """Derive the op name from a backward closure's qualname.

    ``Tensor.__add__.<locals>.backward`` -> ``__add__``;
    ``conv2d.<locals>.backward`` -> ``conv2d``.
    """
    if backward is None:
        return "<leaf>"
    qual = getattr(backward, "__qualname__", "")
    parts = qual.split(".")
    for i, part in enumerate(parts):
        if part == "<locals>" and i > 0:
            return parts[i - 1]
    return qual or "<op>"


def _creation_site():
    """``file:line`` of the innermost stack frame outside the engine."""
    for frame in reversed(traceback.extract_stack()):
        fname = frame.filename.replace("\\", "/")
        if "/repro/tensor/" in fname:
            continue
        return "%s:%d" % (frame.filename, frame.lineno)
    return None


class _OpRecord:
    __slots__ = ("op", "site", "parent_versions")

    def __init__(self, op, site, parent_versions):
        self.op = op
        self.site = site
        self.parent_versions = parent_versions


# ----------------------------------------------------------------------
# Hooks — called from repro.tensor.tensor when _STATE.enabled is True
# ----------------------------------------------------------------------
def _is_float(arr):
    return arr.dtype.kind == "f"


def _on_op(out, parents, backward):
    """Record provenance for a freshly created op result and check it."""
    op = _op_name(backward)
    site = _creation_site()
    if _STATE.check_nan and _is_float(out.data) and not np.all(np.isfinite(out.data)):
        raise AnomalyError(
            "non-finite value produced in forward pass", op=op, site=site
        )
    if out._backward is not None:
        versions = None
        if _STATE.check_mutation:
            versions = tuple(array_version(p.data) for p in parents)
        out._anomaly = _OpRecord(op, site, versions)


def _on_seed(tensor, grad):
    """Check the user-supplied (or default) seed gradient of backward()."""
    if _STATE.check_nan and _is_float(grad) and not np.all(np.isfinite(grad)):
        raise AnomalyError(
            "non-finite seed gradient passed to backward()",
            op="backward",
            site=_creation_site(),
        )


def _before_node_backward(node):
    """Verify parents were not mutated since the op was recorded."""
    rec = node._anomaly
    if rec is None or rec.parent_versions is None or not _STATE.check_mutation:
        return
    for i, (parent, stamp) in enumerate(zip(node._prev, rec.parent_versions)):
        if array_version(parent.data) != stamp:
            raise AnomalyError(
                "in-place mutation of a taped array detected (input %d "
                "changed between forward record and backward)" % i,
                op=rec.op,
                site=rec.site,
            )


def _after_node_backward(node, parent_grads):
    """Check gradients a backward closure just produced."""
    rec = node._anomaly
    op = rec.op if rec is not None else "<op>"
    site = rec.site if rec is not None else None
    for parent, grad in zip(node._prev, parent_grads):
        if grad is None or not parent.requires_grad:
            continue
        grad = np.asarray(grad)
        if _STATE.check_nan and _is_float(grad) and not np.all(np.isfinite(grad)):
            raise AnomalyError(
                "non-finite gradient produced in backward pass", op=op, site=site
            )
        if _STATE.check_dtype:
            if grad.shape != parent.data.shape:
                raise AnomalyError(
                    "gradient shape %s does not match input shape %s"
                    % (grad.shape, parent.data.shape),
                    op=op,
                    site=site,
                )
            if (
                _is_float(grad)
                and _is_float(parent.data)
                and grad.dtype.itemsize > parent.data.dtype.itemsize
            ):
                raise AnomalyError(
                    "%s gradient flowing into %s tensor (precision widening)"
                    % (grad.dtype, parent.data.dtype),
                    op=op,
                    site=site,
                )


def _on_accumulate(leaf, grad):
    """Check a gradient about to accumulate into a leaf's ``.grad``."""
    if not _STATE.check_dtype:
        return
    grad = np.asarray(grad)
    if grad.shape != leaf.data.shape:
        raise AnomalyError(
            "accumulated gradient shape %s does not match leaf shape %s"
            % (grad.shape, leaf.data.shape),
            op="<accumulate>",
        )
    if (
        _is_float(grad)
        and _is_float(leaf.data)
        and grad.dtype.itemsize > leaf.data.dtype.itemsize
    ):
        raise AnomalyError(
            "%s gradient accumulating into %s leaf (precision widening)"
            % (grad.dtype, leaf.data.dtype),
            op="<accumulate>",
        )
