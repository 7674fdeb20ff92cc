"""Per-site scratch workspace for hot-path kernels.

The conv/pool kernels need the same large intermediates (padded inputs,
im2col column matrices, backward gradient columns) on every batch.
Fresh allocations of a few hundred KB are pure overhead: glibc hands
the freed blocks back to the OS, and every call faults them in again.
So this module keeps one flat, grow-only buffer per (site, dtype), as
large as that site's largest request so far, and hands out views at
its front.

Lifetime contract
-----------------
A scratch array is only valid until the *next* ``scratch`` call at the
same site, whatever its shape: callers must consume it (or copy out of
it) inside the op invocation that requested it, and must never let it
escape into the autograd tape or a backward closure's captured state.
The kernels honour this on the taped paths as well as under
``no_grad``: ``im2col`` gathers out of ``im2col.pad`` before it
returns, no-grad columns are consumed by their gemm, and each backward
closure consumes its ``gmat``/``gcols`` before it returns (backward
closures run one at a time).  ``max_pool2d`` and ``avg_pool2d`` share
``pool.fwd.cols`` for the same reason.

The pool is per-process: forked workers inherit the parent's buffers
copy-on-write and then diverge, so parallel runs stay byte-identical to
serial ones.  It is not thread-safe — the substrate is single-threaded
by design.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["scratch", "clear_pool", "pool_stats"]

_POOL = {}
_STATS = {"hits": 0, "misses": 0}


def scratch(site, shape, dtype):
    """Return an uninitialized C-contiguous ``shape`` array for ``site``.

    ``site`` names the call site (e.g. ``"conv2d.bwd.gcols"``) so two ops
    alive at the same time never share memory.  The array is a view at
    the front of the site's buffer, which grows (never shrinks) when a
    request needs more elements.  Contents are garbage — callers must
    overwrite (or ``fill``) before reading.
    """
    dtype = np.dtype(dtype)
    key = (site, dtype.str)
    size = math.prod(shape)
    buf = _POOL.get(key)
    if buf is None or buf.size < size:
        _STATS["misses"] += 1
        buf = _POOL[key] = np.empty(size, dtype=dtype)
    else:
        _STATS["hits"] += 1
    return buf[:size].reshape(shape)


def clear_pool():
    """Drop every pooled buffer (tests; or to release memory after a sweep)."""
    _POOL.clear()


def pool_stats():
    """Return {hits, misses, entries, bytes} for introspection."""
    return {
        "hits": _STATS["hits"],
        "misses": _STATS["misses"],
        "entries": len(_POOL),
        "bytes": int(sum(b.nbytes for b in _POOL.values())),
    }
