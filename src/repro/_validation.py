"""Shared input validation helpers."""

from __future__ import annotations

import numpy as np

__all__ = ["validate_xy"]


def validate_xy(x, y):
    """Validate and canonicalize a (features, labels) pair.

    Returns float64 features (n, d) and int64 labels (n,).  Rejects
    non-finite features: a single NaN/Inf embedding silently poisons
    every distance computation downstream (k-NN, EOS enemy search,
    SMOTE interpolation), so it must fail loudly at the boundary.
    Rejects labels that are not non-negative whole numbers (``1.0`` is
    one): a cast would truncate ``1.9`` to class 1, and a negative
    label fails only later, inside ``np.bincount``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2:
        raise ValueError("X must be 2D (n_samples, n_features), got %s" % (x.shape,))
    if y.ndim != 1 or y.shape[0] != x.shape[0]:
        raise ValueError("y must be 1D and aligned with X")
    if y.dtype.kind == "f":
        bad = ~(np.isfinite(y) & (y >= 0) & (y == np.floor(y)))
    else:
        y = np.asarray(y, dtype=np.int64)
        bad = y < 0
    if bad.any():
        rows = np.flatnonzero(bad)
        raise ValueError(
            "y must hold non-negative whole-number labels; %d row(s) do "
            "not, first at row %d (%r)" % (rows.size, rows[0], y[rows[0]].item())
        )
    if x.shape[0] == 0:
        raise ValueError("cannot resample an empty dataset")
    if not np.isfinite(x).all():
        bad = np.nonzero(~np.isfinite(x).all(axis=1))[0]
        raise ValueError(
            "X contains non-finite values (NaN/Inf) in %d row(s), first at "
            "row %d; clean or impute before resampling" % (bad.size, bad[0])
        )
    return x, np.asarray(y, dtype=np.int64)
