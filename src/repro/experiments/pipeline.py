"""Shared experiment machinery: extractor training, sampler evaluation.

The expensive step of every experiment is phase-1 CNN training; many
experiments then compare several samplers on the *same* trained
extractor.  :class:`ExtractorCache` trains each (dataset, loss, model,
seed) combination once and snapshots the model state so each sampler
evaluation starts from identical weights.  The cache is bounded (LRU)
and can be backed by a :class:`repro.resilience.RunRegistry`, in which
case phase-1 artifacts are persisted at the phase boundary and evicted
or interrupted runs reload them from disk instead of retraining.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np

from ..core import ThreePhaseTrainer, extract_features, finetune_classifier
from ..core.gap import generalization_gap
from ..data import make_dataset, standard_augmentation
from ..losses import build_loss
from ..metrics import evaluate_predictions
from ..nn import build_model
from ..optim import SGD
from ..guard import report_phase
from ..resilience import fingerprint_of, maybe_fire
from ..telemetry import get_metrics, get_tracer, monotonic
from ..tensor import Tensor, default_dtype, no_grad
from .config import build_sampler

__all__ = [
    "Phase1Artifacts",
    "ExtractorCache",
    "phase1_fingerprint",
    "prewarm_extractors",
    "train_phase1",
    "evaluate_sampler",
    "train_preprocessed",
]


class Phase1Artifacts:
    """Everything produced by one phase-1 training run.

    The backbone is frozen after phase 1: later phases only ever change
    ``model.classifier``.  So ``train_embeddings``/``test_embeddings``
    stay the backbone's output, and every prediction is scored from
    them through the current head (:meth:`predict`) instead of a CNN
    pass over the images.
    """

    def __init__(
        self,
        config,
        loss_name,
        model,
        train,
        test,
        info,
        train_embeddings,
        test_embeddings,
        baseline_metrics,
        head_state,
        train_seconds,
    ):
        self.config = config
        self.loss_name = loss_name
        self.model = model
        self.train = train
        self.test = test
        self.info = info
        self.train_embeddings = train_embeddings
        self.test_embeddings = test_embeddings
        self.baseline_metrics = baseline_metrics
        self.head_state = head_state
        self.train_seconds = train_seconds

    def restore_head(self):
        """Reset the classifier head to its phase-1 weights."""
        self.model.classifier.load_state_dict(self.head_state)

    def predict(self, embeddings):
        """Labels the current head assigns to cached ``embeddings``."""
        return _head_predictions(self.model, embeddings)

    def baseline_gap(self):
        """Generalization gap of the phase-1 model (no resampling)."""
        return generalization_gap(
            self.train_embeddings,
            self.train.labels,
            self.test_embeddings,
            self.test.labels,
            self.info["num_classes"],
        )


def _head_predictions(model, embeddings):
    with no_grad():
        logits = model.forward_head(Tensor(embeddings)).data
    return logits.argmax(axis=1)


def _make_model_and_data(config, rng_offset=0):
    train, test, info = make_dataset(
        config.dataset, scale=config.scale, seed=config.seed
    )
    model = build_model(
        config.model,
        num_classes=info["num_classes"],
        rng=np.random.default_rng(config.seed + 1 + rng_offset),
        **config.model_kwargs,
    )
    return model, train, test, info


def _loss_kwargs(config, loss_name):
    """Loss hyper-parameters that depend on the training schedule."""
    if loss_name == "ldam":
        # Deferred re-weighting kicks in halfway through training.
        return {"drw_epoch": max(1, config.phase1_epochs // 2)}
    return {}


def _phase1_key(config, loss_name):
    return (
        config.dataset,
        config.scale,
        config.model,
        tuple(sorted(config.model_kwargs.items())),
        config.phase1_epochs,
        config.batch_size,
        config.lr,
        config.augment,
        loss_name,
        config.seed,
    )


def phase1_fingerprint(config, loss_name):
    """Stable registry fingerprint for one phase-1 training run."""
    return fingerprint_of("phase1", *_phase1_key(config, loss_name))


def _train_phase1_attempt(config, loss_name, attempt=None):
    """One phase-1 training trial (possibly a seed-bumped retry).

    Traced as ``phase1.setup`` (dataset, model, loss and optimiser),
    the trainer's ``phase1`` and ``extract`` spans, and one more
    ``extract`` span for the test-set features.
    """
    index = 0 if attempt is None else attempt.index
    seed_offset = 0 if attempt is None else attempt.seed_offset
    lr_scale = 1.0 if attempt is None else attempt.lr_scale
    max_seconds = None if attempt is None else attempt.max_seconds
    report_phase("phase1:%s/%s" % (config.dataset, loss_name))
    maybe_fire("phase1.trial", loss=loss_name, attempt=index)
    with get_tracer().span("phase1.setup", loss=loss_name):
        model, train, test, info = _make_model_and_data(
            config, rng_offset=seed_offset
        )
        loss = build_loss(
            loss_name,
            class_counts=info["train_counts"],
            **_loss_kwargs(config, loss_name),
        )
        optimizer = SGD(
            model.parameters(),
            lr=config.lr * lr_scale,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        trainer = ThreePhaseTrainer(model, loss, optimizer, sampler=None)
        transform = standard_augmentation() if config.augment else None
    start = monotonic()
    trainer.train_phase1(
        train,
        epochs=config.phase1_epochs,
        batch_size=config.batch_size,
        transform=transform,
        rng=np.random.default_rng(config.seed + 2 + seed_offset),
        max_seconds=max_seconds,
    )
    train_seconds = monotonic() - start
    train_emb = trainer.extract_embeddings(train)
    with get_tracer().span("extract", n_images=int(test.images.shape[0])):
        test_emb = extract_features(model, test.images)
    baseline = evaluate_predictions(
        test.labels, _head_predictions(model, test_emb), test.num_classes
    )
    head_state = model.classifier.state_dict()
    return Phase1Artifacts(
        config,
        loss_name,
        model,
        train,
        test,
        info,
        train_emb,
        test_emb,
        baseline,
        head_state,
        train_seconds,
    )


def _rebuild_phase1(config, loss_name, model_state, head_state,
                    train_embeddings, test_embeddings, baseline_metrics,
                    train_seconds):
    """Rebuild :class:`Phase1Artifacts` from persisted or shipped state.

    Datasets are regenerated deterministically from the config (they are
    seeded), the model skeleton is rebuilt and the given weights loaded,
    so the result is bit-identical to the run that trained them.
    """
    model, train, test, info = _make_model_and_data(config)
    model.load_state_dict(model_state)
    return Phase1Artifacts(
        config,
        loss_name,
        model,
        train,
        test,
        info,
        train_embeddings,
        test_embeddings,
        baseline_metrics,
        head_state,
        train_seconds,
    )


def _load_phase1_artifacts(config, loss_name, registry, fingerprint):
    """Rebuild :class:`Phase1Artifacts` from persisted registry state."""
    model_state, head_state, (train_emb, _), (test_emb, _), meta = (
        registry.load_phase1(fingerprint)
    )
    return _rebuild_phase1(
        config, loss_name, model_state, head_state, train_emb, test_emb,
        dict(meta["baseline_metrics"]), meta["train_seconds"],
    )


def _save_phase1_artifacts(registry, fingerprint, artifacts):
    get_metrics().counter("cache.persists").inc()
    registry.save_phase1(
        fingerprint,
        artifacts.model.state_dict(),
        artifacts.head_state,
        artifacts.train_embeddings,
        artifacts.train.labels,
        artifacts.test_embeddings,
        artifacts.test.labels,
        {
            "loss": artifacts.loss_name,
            "train_seconds": artifacts.train_seconds,
            "baseline_metrics": artifacts.baseline_metrics,
        },
    )


def train_phase1(config, loss_name, registry=None, retry_policy=None):
    """Train one extractor end-to-end; returns :class:`Phase1Artifacts`.

    With a ``registry``, previously persisted artifacts for the same
    configuration are loaded instead of retraining, and fresh training
    results are persisted at the phase boundary.  With a
    ``retry_policy``, a divergent or timed-out trial is re-run with the
    policy's deterministic seed-bump and LR-backoff schedule.
    """
    fingerprint = None
    if registry is not None:
        fingerprint = phase1_fingerprint(config, loss_name)
        if registry.has_phase1(fingerprint):
            return _load_phase1_artifacts(
                config, loss_name, registry, fingerprint
            )
    if retry_policy is None:
        artifacts = _train_phase1_attempt(config, loss_name)
    else:
        artifacts = retry_policy.run(
            lambda attempt: _train_phase1_attempt(config, loss_name, attempt)
        )
    if registry is not None:
        _save_phase1_artifacts(registry, fingerprint, artifacts)
    return artifacts


class ExtractorCache:
    """Bounded LRU memo of phase-1 training, optionally registry-backed.

    Parameters
    ----------
    max_entries:
        In-memory bound; the least-recently-used artifact set is evicted
        when exceeded.  ``None`` means unbounded (the pre-resilience
        behavior).
    registry:
        Optional :class:`repro.resilience.RunRegistry`.  Artifacts are
        persisted on first training, and cache misses (including
        re-requests for evicted entries) reload from disk instead of
        retraining.
    retry_policy:
        Optional :class:`repro.resilience.RetryPolicy` applied to each
        phase-1 training run.

    Ownership
    ---------
    A cache instance is owned by the process that created it.  The
    mutating paths (:meth:`get` / :meth:`put`) refuse to run in a forked
    child: fork copies the cache's memory copy-on-write, so a child's
    insertions and LRU promotions would silently diverge from the
    parent's — the entry "lands" in a cache nobody ever reads again and
    the hit/miss statistics lie.  The correct pattern is the one
    :func:`prewarm_extractors` uses: workers ship picklable artifacts
    back and the *parent* calls :meth:`put`.  Read-only probes
    (:meth:`contains` / :meth:`stats`) stay legal from any process.
    """

    def __init__(self, max_entries=8, registry=None, retry_policy=None):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1 (or None)")
        self._cache = OrderedDict()
        self.max_entries = max_entries
        self.registry = registry
        self.retry_policy = retry_policy
        self._owner_pid = os.getpid()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def _check_owner(self, method):
        if os.getpid() != self._owner_pid:
            raise RuntimeError(
                "ExtractorCache.%s called from process %d, but the cache "
                "is owned by process %d: a forked child's mutations are "
                "invisible to the parent (copy-on-write), so the entry "
                "would be silently lost.  Return artifacts to the owning "
                "process and call put() there (see prewarm_extractors)."
                % (method, os.getpid(), self._owner_pid)
            )

    def get(self, config, loss_name):
        self._check_owner("get")
        key = _phase1_key(config, loss_name)
        metrics = get_metrics()
        if key in self._cache:
            self._hits += 1
            metrics.counter("cache.hits").inc()
            self._cache.move_to_end(key)
            return self._cache[key]
        self._misses += 1
        metrics.counter("cache.misses").inc()
        return self._insert(key, train_phase1(
            config,
            loss_name,
            registry=self.registry,
            retry_policy=self.retry_policy,
        ))

    def _insert(self, key, artifacts):
        """Store ``artifacts`` as most recently used; evict past the bound."""
        self._cache[key] = artifacts
        self._cache.move_to_end(key)
        if self.max_entries is not None:
            while len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)
                self._evictions += 1
                get_metrics().counter("cache.evictions").inc()
        return artifacts

    def contains(self, config, loss_name):
        """True when :meth:`get` would not retrain (memory or registry)."""
        key = _phase1_key(config, loss_name)
        if key in self._cache:
            return True
        if self.registry is not None:
            return self.registry.has_phase1(
                phase1_fingerprint(config, loss_name)
            )
        return False

    def put(self, config, loss_name, artifacts):
        """Seed the cache with externally trained artifacts.

        Used by :func:`prewarm_extractors` after parallel phase-1
        training: artifacts are persisted to the registry (if one is
        attached and doesn't have them yet) and inserted as the
        most-recently-used entry, honoring the LRU bound.
        """
        self._check_owner("put")
        if self.registry is not None:
            fingerprint = phase1_fingerprint(config, loss_name)
            if not self.registry.has_phase1(fingerprint):
                _save_phase1_artifacts(self.registry, fingerprint, artifacts)
        return self._insert(_phase1_key(config, loss_name), artifacts)

    def stats(self):
        """Cache effectiveness counters (survive :meth:`clear`)."""
        return {
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "size": len(self._cache),
            "max_entries": self.max_entries,
        }

    def clear(self):
        self._cache.clear()


def prewarm_extractors(cache, jobs, max_workers=None):
    """Train the distinct phase-1 extractors ``jobs`` needs, in parallel.

    ``jobs`` is an iterable of ``(config, loss_name)`` pairs (duplicates
    and already-cached entries are skipped).  Each remaining extractor
    trains in its own worker process — reusing the cache's retry policy
    — and ships back only picklable state (weight dicts + embeddings);
    the parent rebuilds :class:`Phase1Artifacts` through the same
    deterministic reconstruction path the registry-resume machinery
    uses, then seeds ``cache`` via :meth:`ExtractorCache.put`.

    A job whose worker fails is left untrained: the runner's serial
    ``cache.get`` fallback re-trains (or re-raises) with full context,
    so prewarming never changes outcomes — only wall-clock.  Returns
    the number of extractors warmed.
    """
    from ..parallel import TaskFailure, parallel_map, resolve_workers

    unique, seen = [], set()
    for config, loss_name in jobs:
        key = _phase1_key(config, loss_name)
        if key in seen:
            continue
        seen.add(key)
        if not cache.contains(config, loss_name):
            unique.append((config, loss_name))
    if len(unique) < 2 or resolve_workers(max_workers) <= 1:
        return 0

    retry_policy = cache.retry_policy

    def train_job(job, _seed):
        config, loss_name = job
        artifacts = train_phase1(config, loss_name, retry_policy=retry_policy)
        # Only picklable state ships back; keys are _rebuild_phase1's.
        return {
            "model_state": artifacts.model.state_dict(),
            "head_state": artifacts.head_state,
            "train_embeddings": artifacts.train_embeddings,
            "test_embeddings": artifacts.test_embeddings,
            "baseline_metrics": artifacts.baseline_metrics,
            "train_seconds": artifacts.train_seconds,
        }

    outs = parallel_map(
        train_job,
        unique,
        max_workers=max_workers,
        on_error="return",
        task_label=lambda job, _index: "phase1/%s/%s"
        % (job[0].dataset, job[1]),
    )
    warmed = 0
    for (config, loss_name), out in zip(unique, outs):
        if isinstance(out, TaskFailure):
            continue
        cache.put(config, loss_name,
                  _rebuild_phase1(config, loss_name, **out))
        warmed += 1
    return warmed


def evaluate_sampler(
    artifacts,
    sampler_name,
    finetune_epochs=None,
    k_neighbors=None,
    finetune_lr=None,
    sampler_kwargs=None,
    return_details=False,
    seed=None,
):
    """Fine-tune the cached extractor's head with one sampler; score it.

    The classifier head is restored to its phase-1 state first, so calls
    are independent and order-insensitive.  Only the head is trained, so
    the backbone stays frozen at its phase-1 weights, and the test set is
    scored from the cached ``test_embeddings`` through the fine-tuned
    head with no CNN pass.  ``sampler_name="none"`` scores the phase-1
    baseline without fine-tuning.  ``seed`` overrides the config seed for
    the sampler and fine-tuning RNG — retry policies use it to bump the
    random draw of a diverged cell deterministically.
    """
    config = artifacts.config
    finetune_epochs = (
        finetune_epochs if finetune_epochs is not None else config.finetune_epochs
    )
    k = k_neighbors if k_neighbors is not None else config.k_neighbors
    lr = finetune_lr if finetune_lr is not None else config.finetune_lr
    seed = seed if seed is not None else config.seed
    artifacts.restore_head()

    if sampler_name == "none":
        metrics = dict(artifacts.baseline_metrics)
        resampled = (artifacts.train_embeddings, artifacts.train.labels)
        seconds = 0.0
    else:
        sampler = build_sampler(
            sampler_name,
            k_neighbors=k,
            random_state=seed,
            **(sampler_kwargs or {}),
        )
        start = monotonic()
        emb, labels = sampler.fit_resample(
            artifacts.train_embeddings, artifacts.train.labels
        )
        # Samplers interpolate with float64 coefficients and so widen
        # float32 embeddings; narrow once at the phase boundary so the
        # fine-tune loop (and the returned details) stay in the
        # substrate default instead of re-casting every epoch.
        emb = np.asarray(emb, dtype=default_dtype())
        with get_tracer().span("finetune", sampler=sampler_name):
            finetune_classifier(
                artifacts.model,
                emb,
                labels,
                epochs=finetune_epochs,
                lr=lr,
                rng=np.random.default_rng(seed + 3),
            )
        seconds = monotonic() - start
        metrics = evaluate_predictions(
            artifacts.test.labels,
            artifacts.predict(artifacts.test_embeddings),
            artifacts.info["num_classes"],
        )
        resampled = (emb, labels)

    if not return_details:
        return metrics
    return {
        "metrics": metrics,
        "resampled": resampled,
        "seconds": seconds,
        "head_weight": artifacts.model.classifier.weight.data.copy(),
    }


def train_preprocessed(config, loss_name, sampler_name, sampler_kwargs=None,
                       max_seconds=None):
    """Pixel-space pre-processing baseline: resample images, train end-to-end.

    Images are flattened for the sampler and reshaped back, matching how
    SMOTE-family methods are applied to image data as a pre-processing
    step.  ``max_seconds`` bounds the training wall-clock (see
    :meth:`repro.core.Trainer.fit`).  Returns (metrics, wall_seconds).
    """
    from ..data import ArrayDataset

    model, train, test, info = _make_model_and_data(config, rng_offset=7)
    start = monotonic()

    if sampler_name == "none":
        resampled_train = train
    else:
        sampler = build_sampler(
            sampler_name,
            k_neighbors=config.k_neighbors,
            random_state=config.seed,
            **(sampler_kwargs or {}),
        )
        flat = train.images.reshape(len(train), -1)
        flat_res, labels_res = sampler.fit_resample(flat, train.labels)
        images_res = np.clip(flat_res, 0.0, 1.0).reshape(
            (-1,) + train.image_shape
        )
        resampled_train = ArrayDataset(images_res, labels_res)

    # The resampled (balanced) set has ~ratio x more batches per epoch:
    # the cost the paper's efficiency analysis highlights.
    loss = build_loss(loss_name, class_counts=np.bincount(
        resampled_train.labels, minlength=info["num_classes"]))
    optimizer = SGD(
        model.parameters(),
        lr=config.lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
    )
    trainer = ThreePhaseTrainer(model, loss, optimizer, sampler=None)
    transform = standard_augmentation() if config.augment else None
    trainer.train_phase1(
        resampled_train,
        epochs=config.phase1_epochs,
        batch_size=config.batch_size,
        transform=transform,
        rng=np.random.default_rng(config.seed + 4),
        max_seconds=max_seconds,
    )
    seconds = monotonic() - start
    metrics = trainer.phase1.evaluate(test)
    return metrics, seconds
