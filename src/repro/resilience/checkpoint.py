"""Run registry: durable checkpoint/resume state for experiment sweeps.

A :class:`RunRegistry` owns one checkpoint directory::

    <root>/
      manifest.json            # atomic JSON manifest (the source of truth)
      phase1/<fingerprint>/    # phase-1 artifacts, one dir per extractor
        model.npz              #   full model state dict
        head.npz               #   phase-1 classifier-head snapshot
        train_emb.npz          #   training embeddings + labels
        test_emb.npz           #   test embeddings + labels

The manifest records, per sweep cell, either the finished metrics
(``status: "done"``) or the failure reason (``status: "failed"``), plus
one entry per persisted phase-1 extractor.  Every write goes through the
atomic writer in :mod:`repro.utils.serialization`, and the manifest is
re-flushed after each cell, so a killed process loses at most the cell
it was computing.  Failed cells are *not* treated as complete — a
resumed run re-attempts them (their failure may have been transient).
The manifest is the only record of a run in progress: the sqlite
result store (:class:`repro.evals.ResultStore`) sees a run only once
it has finished, whole.

Resume never trusts an artifact blindly: :meth:`RunRegistry.has_phase1`
verifies every file against its sha256 sidecar
(:func:`repro.guard.verify_artifact`) and, on mismatch or truncation,
moves the whole artifact set to ``<root>/quarantine/`` with a
structured reason and reports the set as absent — the cell recomputes
transparently.  Constructing the registry with ``strict=True`` (the
CLI's ``--strict-resume``) raises
:class:`repro.resilience.CheckpointCorruptError` instead, for contexts
where silent recomputation would mask an infrastructure problem.  The
manifest also persists :class:`repro.guard.CircuitBreaker` state under
``"breakers"``, so breakers tripped by one process bind its resumed
successors.

The registry stores only plain arrays and JSON — it knows nothing about
models or datasets.  Rebuilding live objects from these artifacts is the
caller's job (see ``repro.experiments.pipeline.train_phase1``), which
keeps the dependency arrow pointing from experiments to resilience.
"""

from __future__ import annotations

import hashlib
import json
import os

from ..guard.integrity import quarantine, verify_artifact
from ..utils.serialization import atomic_write_json, load_arrays, save_arrays
from .errors import CheckpointCorruptError, CheckpointMismatchError

__all__ = ["RunRegistry", "fingerprint_of"]

_MANIFEST = "manifest.json"
_VERSION = 1


def fingerprint_of(*parts):
    """Stable short hash of a tuple of repr-able configuration parts."""
    blob = "␟".join(repr(part) for part in parts)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class RunRegistry:
    """Durable record of one sweep run (cells + phase-1 artifacts)."""

    def __init__(self, root, strict=False):
        self.root = os.fspath(root)
        self.strict = bool(strict)
        os.makedirs(self.root, exist_ok=True)
        self.manifest_path = os.path.join(self.root, _MANIFEST)
        if os.path.exists(self.manifest_path):
            with open(self.manifest_path, encoding="utf-8") as handle:
                self.manifest = json.load(handle)
            if self.manifest.get("version") != _VERSION:
                raise CheckpointMismatchError(
                    "manifest %s has version %r; this code writes version %r"
                    % (self.manifest_path, self.manifest.get("version"),
                       _VERSION)
                )
        else:
            self.manifest = {
                "version": _VERSION,
                "fingerprint": None,
                "cells": {},
                "phase1": {},
                "breakers": {},
            }

    # ------------------------------------------------------------------
    # Manifest plumbing
    # ------------------------------------------------------------------
    def flush(self):
        """Atomically persist the manifest."""
        atomic_write_json(self.manifest_path, self.manifest)

    def ensure_fingerprint(self, fingerprint):
        """Bind the registry to one run configuration (or verify it).

        The first call stamps ``fingerprint`` into the manifest; later
        calls (e.g. on resume) must present the same value, otherwise a
        :class:`CheckpointMismatchError` is raised — resuming a sweep
        under a different configuration would silently mix metrics.
        """
        stamped = self.manifest.get("fingerprint")
        if stamped is None:
            self.manifest["fingerprint"] = fingerprint
            self.flush()
        elif stamped != fingerprint:
            raise CheckpointMismatchError(
                "checkpoint dir %s belongs to run %s, not %s; use a fresh "
                "--checkpoint-dir or the original configuration"
                % (self.root, stamped, fingerprint)
            )
        return self

    # ------------------------------------------------------------------
    # Sweep cells
    # ------------------------------------------------------------------
    def has_cell(self, cell_id):
        """True when ``cell_id`` finished successfully in a prior run."""
        entry = self.manifest["cells"].get(cell_id)
        return entry is not None and entry.get("status") == "done"

    def load_cell(self, cell_id):
        """Payload recorded for a completed cell."""
        entry = self.manifest["cells"][cell_id]
        if entry.get("status") != "done":
            raise KeyError("cell %r did not complete (status=%r)"
                           % (cell_id, entry.get("status")))
        return entry["payload"]

    def record_cell(self, cell_id, payload, status="done"):
        """Record a cell outcome (JSON-serializable payload) and flush."""
        self.manifest["cells"][cell_id] = {"status": status,
                                           "payload": payload}
        self.flush()

    def cell_statuses(self):
        """Mapping of cell id -> status string."""
        return {cid: entry.get("status")
                for cid, entry in self.manifest["cells"].items()}

    # ------------------------------------------------------------------
    # Phase-1 artifacts
    # ------------------------------------------------------------------
    def _phase1_dir(self, fingerprint):
        return os.path.join(self.root, "phase1", fingerprint)

    def has_phase1(self, fingerprint):
        """True when a *verified* phase-1 artifact set exists on disk.

        Every file is checked against its sha256 sidecar.  A mismatched
        or truncated set is moved to ``<root>/quarantine/`` with a
        structured reason and dropped from the manifest so the caller
        recomputes it; with ``strict=True`` a
        :class:`~repro.resilience.CheckpointCorruptError` is raised
        instead, naming the first offending artifact.
        """
        entry = self.manifest["phase1"].get(fingerprint)
        if entry is None:
            return False
        directory = self._phase1_dir(fingerprint)
        failures = []
        for name in entry["files"].values():
            failure = verify_artifact(os.path.join(directory, name))
            if failure is not None:
                failures.append(failure)
        if not failures:
            return True
        if self.strict:
            worst = failures[0]
            raise CheckpointCorruptError(
                "phase-1 artifact set %s failed verification on resume "
                "(%s: %s); rerun without --strict-resume to quarantine "
                "and recompute it"
                % (fingerprint, worst.path, worst.reason),
                path=worst.path,
                expected=worst.expected,
                actual=worst.actual,
            )
        reasons = "; ".join(sorted({f.reason for f in failures}))
        quarantine(
            self.root, [directory],
            "phase-1 set %s failed resume verification (%s)"
            % (fingerprint, reasons),
            failures,
        )
        del self.manifest["phase1"][fingerprint]
        self.flush()
        return False

    def save_phase1(self, fingerprint, model_state, head_state,
                    train_embeddings, train_labels,
                    test_embeddings, test_labels, meta):
        """Persist one phase-1 extractor's artifacts atomically.

        ``meta`` must be JSON-serializable (baseline metrics, loss name,
        wall-clock seconds ...); arrays land in per-artifact ``.npz``
        files, and the manifest entry is flushed last so a partially
        written artifact set is never visible as complete.
        """
        directory = self._phase1_dir(fingerprint)
        os.makedirs(directory, exist_ok=True)
        files = {
            "model": "model.npz",
            "head": "head.npz",
            "train": "train_emb.npz",
            "test": "test_emb.npz",
        }
        save_arrays(os.path.join(directory, files["model"]), model_state)
        save_arrays(os.path.join(directory, files["head"]), head_state)
        save_arrays(
            os.path.join(directory, files["train"]),
            {"embeddings": train_embeddings, "labels": train_labels},
        )
        save_arrays(
            os.path.join(directory, files["test"]),
            {"embeddings": test_embeddings, "labels": test_labels},
        )
        self.manifest["phase1"][fingerprint] = {
            "files": files,
            "meta": meta,
        }
        self.flush()

    def load_phase1(self, fingerprint):
        """Load a persisted phase-1 artifact set.

        Returns ``(model_state, head_state, (train_embeddings,
        train_labels), (test_embeddings, test_labels), meta)``.
        """
        entry = self.manifest["phase1"][fingerprint]
        directory = self._phase1_dir(fingerprint)
        files = entry["files"]
        model_state = load_arrays(os.path.join(directory, files["model"]))
        head_state = load_arrays(os.path.join(directory, files["head"]))
        train = load_arrays(os.path.join(directory, files["train"]))
        test = load_arrays(os.path.join(directory, files["test"]))
        return (
            model_state,
            head_state,
            (train["embeddings"], train["labels"]),
            (test["embeddings"], test["labels"]),
            entry["meta"],
        )

    # ------------------------------------------------------------------
    # Circuit breakers (the persistence backend CircuitBreaker expects)
    # ------------------------------------------------------------------
    def load_breakers(self):
        """Persisted circuit-breaker state (key -> entry dict)."""
        return self.manifest.get("breakers", {})

    def save_breakers(self, state):
        """Persist breaker state in the manifest and flush."""
        self.manifest["breakers"] = state
        self.flush()

    def reset_breakers(self):
        """Drop all persisted breaker state (``--reset-breakers``)."""
        self.manifest["breakers"] = {}
        self.flush()

    # ------------------------------------------------------------------
    def summary(self):
        """One-line human summary of the registry's contents."""
        statuses = self.cell_statuses()
        done = sum(1 for s in statuses.values() if s == "done")
        failed = sum(1 for s in statuses.values() if s == "failed")
        return (
            "%d cell(s) checkpointed (%d done, %d failed), "
            "%d phase-1 artifact(s) in %s"
            % (len(statuses), done, failed,
               len(self.manifest["phase1"]), self.root)
        )
