"""Job routing: kind -> handler, with derived-seed determinism.

A handler is ``fn(payload, seed) -> JSON-safe result``.  The seed is a
pure function of the job id (:func:`job_seed`, same sha256 discipline
as :func:`repro.parallel.derive_seed`), so a job re-executed after a
crash — or on a different worker count — produces byte-identical
results.  That determinism is what lets journal replay settle recovered
jobs by *re-running* them instead of needing distributed consensus.

Built-in kinds:

``resample``
    The paper's workload: EOS (or any registered sampler) over an
    embedding matrix that arrives packed from the shipped client, or as
    nested lists, and is returned packed.  The
    embeddings arrive in the payload, so no job retrains phase 1, which
    is precisely the economic case for embedding-space over-sampling
    made in PAPER.md.
``echo`` / ``sleep`` / ``fail``
    Diagnostics and chaos-harness primitives: ``sleep`` gives the kill
    window a place to land, ``fail`` feeds the per-family circuit
    breaker deterministically.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from .protocol import pack_array, unpack_array

__all__ = ["Router", "default_router", "job_seed"]


def job_seed(job_id):
    """Deterministic 32-bit seed for one job (stable across restarts)."""
    digest = hashlib.sha256(b"repro.serve:" + str(job_id).encode("utf-8"))
    return int.from_bytes(digest.digest()[:4], "big")


class Router:
    """Registry mapping job kinds to handlers."""

    def __init__(self):
        self._handlers = {}

    def register(self, kind, handler):
        """Register ``handler(payload, seed)`` for ``kind``."""
        self._handlers[str(kind)] = handler
        return handler

    def kinds(self):
        return sorted(self._handlers)

    def dispatch(self, job):
        """Execute one job dict; returns its JSON-safe result.

        Unknown kinds raise ``LookupError`` — a *failed* settlement,
        not a daemon crash.
        """
        kind = job.get("kind")
        handler = self._handlers.get(kind)
        if handler is None:
            raise LookupError(
                "unknown job kind %r (registered: %s)"
                % (kind, ", ".join(self.kinds()) or "none")
            )
        return handler(job.get("payload") or {}, job_seed(job["job_id"]))


# ----------------------------------------------------------------------
# Built-in handlers


def _handle_echo(payload, seed):
    return {"echo": payload, "seed": seed}


def _handle_sleep(payload, seed):
    seconds = float(payload.get("seconds", 0.01))
    time.sleep(seconds)
    return {"slept": seconds}


def _handle_fail(payload, seed):
    raise RuntimeError(payload.get("message", "injected failure"))


def _handle_resample(payload, seed):
    """Embedding-space resampling of the embeddings in the payload.

    Payload: ``{"x": [[...], ...], "y": [...], "sampler": "eos",
    "sampler_kwargs": {...}}``; ``x`` packed
    (:func:`~repro.serve.protocol.pack_array`) or nested lists, which
    give the sampler the same float64 bytes, and labels reach the
    sampler's check as sent; ``k_neighbors`` must be an int or a float
    with a whole value.  The result's ``x`` is packed, its other
    arrays lists.  The handler seeds the sampler from the job id so
    repeat executions are byte-identical.
    """
    from ..experiments.config import build_sampler

    x = payload["x"]
    if isinstance(x, dict):
        x = unpack_array(x)
    else:
        x = np.asarray(x, dtype=np.float64)
    y = payload["y"]
    # A cast would run 2.9 as K=2 and true as K=1.
    k = payload.get("k_neighbors", 5)
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError("k_neighbors must be a whole number, got %r" % (k,))
    sampler = build_sampler(
        payload.get("sampler", "eos"),
        k_neighbors=k,
        random_state=seed,
        **(payload.get("sampler_kwargs") or {}),
    )
    x_res, y_res = sampler.fit_resample(x, y)
    counts = np.bincount(np.asarray(y_res, dtype=np.int64))
    return {
        "x": pack_array(x_res),
        "y": np.asarray(y_res).tolist(),
        "class_counts": counts.tolist(),
        "n_synthetic": int(len(y_res) - len(y)),
        "sampler": payload.get("sampler", "eos"),
    }


def default_router():
    """A router with every built-in handler registered."""
    router = Router()
    router.register("echo", _handle_echo)
    router.register("sleep", _handle_sleep)
    router.register("fail", _handle_fail)
    router.register("resample", _handle_resample)
    return router
