"""The paper's three-phase CNN training framework.

Phase 1 — train the CNN end-to-end on the *imbalanced* data (any loss:
CE or a cost-sensitive one), so the extraction layers learn
class-discriminative feature embeddings.

Phase 2 — extract the training-set feature embeddings, then balance them
with *any* over-sampler operating in embedding space (EOS, SMOTE,
Borderline-SMOTE, Balanced-SVM, a GAN sampler, ...).

Phase 3 — detach the classification head and fine-tune it for a small
number of epochs (paper: 10) on the balanced embeddings, with plain
cross-entropy.  The extractor and the updated head are then recombined
for inference.

The efficiency claim (paper §V-E2) falls out of the structure: phase 3
touches only the ~(D × C) classifier parameters on D-dimensional
embeddings instead of re-training the full CNN on over-sampled images.
"""

from __future__ import annotations

import math

import numpy as np

from ..losses import CrossEntropyLoss
from ..metrics import evaluate_predictions
from ..optim import SGD
from ..resilience.errors import DivergenceError
from ..resilience.faults import maybe_fire
from ..telemetry import get_metrics, get_tracer, monotonic
from ..tensor import (
    Tensor,
    default_dtype,
    is_anomaly_enabled,
    is_grad_enabled,
    no_grad,
)
from .training import Trainer, extract_features

__all__ = ["ThreePhaseTrainer", "finetune_classifier"]


def _tape_free(model, loss):
    """True when phase 3 can run :func:`_buffered_ce_step`, not the tape.

    That is plain (unweighted) cross-entropy on a ``Linear`` head that
    the model's inherited ``forward_head`` calls as is, with every head
    parameter trainable.  Any other loss or head keeps the taped path,
    and so does a run under ``detect_anomaly()``, whose per-op
    provenance needs the tape.
    """
    from ..nn import ImageClassifier, Linear

    head = model.classifier
    return (
        type(loss) is CrossEntropyLoss
        and loss.weight is None
        and type(head) is Linear
        and type(model).forward_head is ImageClassifier.forward_head
        and all(p.requires_grad for p in head.parameters())
        and is_grad_enabled()
        and not is_anomaly_enabled()
    )


def _buffered_ce_step(head, x_dtype):
    """Return ``step(x, targets)``: tape-free cross-entropy on a ``Linear`` head.

    ``step`` overwrites ``head``'s parameter gradients and returns the
    mean loss of the batch ``x`` (embeddings of dtype ``x_dtype``).  It
    replays the kernels the tape runs for ``linear`` → ``log_softmax``
    → ``nll_loss`` (tensor/functional.py) and their backward closures,
    with the same operands, in the same order and dtype, so the loss and
    the gradients are bitwise equal to the taped step's.  Every array it
    writes is allocated once per batch size (the full batch and the
    ragged tail) and written in place; the identities that let it skip
    the one-hot seed are listed in :func:`finetune_classifier`.
    """
    weight, bias = head.weight, head.bias
    num_classes, dim = weight.data.shape
    # The dtypes the taped kernels produce: logits, then log-probs and
    # their gradient, then the weight gradient ``x.T @ g``.
    dtype = np.result_type(x_dtype, weight.data.dtype)
    if bias is not None:
        dtype = np.result_type(dtype, bias.data.dtype)
        bias_grad = np.empty(num_classes, dtype)
    grad_dtype = np.result_type(x_dtype, dtype)
    x_t_g = np.empty((dim, num_classes), grad_dtype)
    weight_grad = np.empty((num_classes, dim), grad_dtype)
    buffers = {}

    def allocate(rows):
        sample_w = np.ones(rows, dtype=dtype)
        denom = sample_w.sum()
        seed = (-sample_w * (np.ones((), dtype=dtype) / denom))[0]
        g = np.empty((rows, num_classes), dtype)  # exp → gradient
        return (
            np.empty((rows, num_classes), dtype),  # logits → log-probs
            g,
            g.reshape(-1),
            np.empty((rows, 1), dtype),  # row max → log-norm
            np.empty(rows, dtype),  # negated log-probs at the targets
            np.arange(rows) * num_classes,  # flat offset of each row
            np.empty(rows, np.int64),  # flat index of each target
            denom,
            seed,
            -seed,
        )

    def step(x, targets):
        rows = x.shape[0]
        b = buffers.get(rows)
        if b is None:
            b = buffers[rows] = allocate(rows)
        z, g, g_flat, col, at_t, offsets, flat, denom, seed, neg_seed = b
        np.matmul(x, weight.data.T, out=z)
        if bias is not None:
            np.add(z, bias.data, out=z)
        np.maximum.reduce(z, axis=-1, keepdims=True, out=col)
        np.subtract(z, col, out=z)
        np.exp(z, out=g)
        np.add.reduce(g, axis=-1, keepdims=True, out=col)
        np.log(col, out=col)
        np.subtract(z, col, out=z)
        np.add(offsets, targets, out=flat)
        z.take(flat, out=at_t, mode="clip")
        np.negative(at_t, out=at_t)
        loss = np.add.reduce(at_t) / denom
        # Backward from a unit seed: nll_loss, log_softmax, add, matmul.
        np.exp(z, out=g)
        np.multiply(g, neg_seed, out=g)
        np.add.at(g_flat, flat, seed)
        np.matmul(x.T, g, out=x_t_g)
        np.copyto(weight_grad, x_t_g.T)
        weight.grad = weight_grad
        if bias is not None:
            np.add.reduce(g, axis=0, out=bias_grad)
            bias.grad = bias_grad
        return loss

    return step


def finetune_classifier(
    model,
    embeddings,
    labels,
    epochs=10,
    batch_size=64,
    lr=0.05,
    momentum=0.9,
    weight_decay=0.0,
    loss=None,
    reinitialize=False,
    rng=None,
    eval_hook=None,
):
    """Phase 3: retrain only the classifier head on (embeddings, labels).

    Parameters
    ----------
    model:
        An :class:`repro.nn.ImageClassifier`; only ``model.classifier``'s
        parameters are updated.
    embeddings, labels:
        The (balanced) embedding training set.
    loss:
        Defaults to plain cross-entropy, as in the paper's re-training.
    reinitialize:
        When True the head's weights are re-drawn before fine-tuning
        (the Decoupling-style cRT variant); default keeps the phase-1
        weights as the starting point.
    eval_hook:
        Optional callable ``(epoch) -> dict`` whose result is merged
        into the per-epoch history (used for the Figure-7 curve).

    Each epoch gathers the shuffled embeddings and labels once into
    arrays allocated once per call; every batch is a C-contiguous row
    slice of them.  Plain cross-entropy on a ``Linear`` head (the
    default, and every paper view) then runs each batch as a closed-form
    numpy step with no autograd tape, in buffers reused from batch to
    batch; weights, losses and gradients are bitwise equal to the taped
    step.  Any other loss, a weighted cross-entropy, another head, a
    frozen head parameter, or a run under ``detect_anomaly()`` goes
    through the tape.

    The tape-free step's rule is "keep today's operands, order and
    dtype": every float operation takes the operands, runs in the order
    and yields the dtype of the taped kernels.  Where it departs from
    their expressions it relies on three identities, each pinned by
    ``tests/test_finetune_buffers.py``:

    1. a C-contiguous row slice of the per-epoch gather feeds the same
       gemm as ``embeddings[idx]``;
    2. ``(-picked * ones).sum() == (-picked).sum()``: multiplying by 1
       is exact.  The sign flip stays ahead of the sum, because
       ``-(picked.sum())`` differs at a zero loss: numpy starts a sum
       at ``+0.0``, so ``-0.0`` terms sum to ``+0.0``;
    3. each one-hot row of the seed ``s = -1/denom`` sums to ``s``
       exactly, so ``onehot·s − exp(lp)·rowsum`` equals ``exp(lp)·(−s)``
       with ``s`` added at the targets (``0 − y == −y`` because
       ``y = p·s <= 0``).

    Returns the per-epoch history list.
    """
    loss = loss if loss is not None else CrossEntropyLoss()
    rng = rng if rng is not None else np.random.default_rng(0)
    head = model.classifier
    if reinitialize:
        from ..nn import init as nn_init

        head.weight.data[...] = nn_init.kaiming_uniform(
            head.weight.shape, rng, gain=1.0
        )
        if head.bias is not None:
            head.bias.data[...] = 0.0

    optimizer = SGD(
        head.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay
    )
    embeddings = np.asarray(embeddings, dtype=default_dtype())
    labels = np.asarray(labels, dtype=np.int64)
    n = embeddings.shape[0]
    shuffled = np.empty(embeddings.shape, embeddings.dtype)
    shuffled_labels = np.empty(labels.shape, labels.dtype)
    if _tape_free(model, loss):
        # The step picks each target from the flat logits, where a label
        # out of range would read another row: check the range once and
        # wrap negative labels, as indexing the logits by row did.
        classes = head.weight.shape[0]
        if labels.size and not (-classes <= labels.min()
                                and labels.max() < classes):
            raise IndexError(
                "labels must lie in [-%d, %d) for a %d-class head"
                % (classes, classes, classes)
            )
        labels = labels % classes
        step = _buffered_ce_step(head, embeddings.dtype)
    else:
        def step(x, targets):
            optimizer.zero_grad()
            value = loss(model.forward_head(Tensor(x)), targets)
            value.backward()
            return value.data

    tracer = get_tracer()
    metrics = get_metrics()
    history = []
    for epoch in range(epochs):
        loss.set_epoch(epoch)
        order = rng.permutation(n)
        embeddings.take(order, axis=0, out=shuffled, mode="clip")
        labels.take(order, out=shuffled_labels, mode="clip")
        epoch_loss = 0.0
        n_batches = 0
        start_time = monotonic()
        with tracer.span("finetune.epoch", epoch=epoch) as epoch_span:
            for start in range(0, n, batch_size):
                stop = start + batch_size
                with tracer.span("finetune.batch"):
                    batch_loss = float(
                        step(shuffled[start:stop], shuffled_labels[start:stop])
                    )
                    if maybe_fire("finetune.batch", epoch=epoch,
                                  batch=n_batches) == "nan":
                        batch_loss = float("nan")
                    if not math.isfinite(batch_loss):
                        tracer.event(
                            "divergence",
                            epoch=epoch,
                            batch=n_batches,
                            loss=batch_loss,
                            phase="finetune",
                        )
                        raise DivergenceError(
                            "non-finite fine-tuning loss",
                            epoch=epoch,
                            batch=n_batches,
                            loss=batch_loss,
                            phase="finetune",
                        )
                    optimizer.step()
                epoch_loss += batch_loss
                n_batches += 1
            record = {
                "epoch": epoch,
                "loss": epoch_loss / max(n_batches, 1),
                "seconds": monotonic() - start_time,
            }
            epoch_span.set(loss=record["loss"], batches=n_batches)
        if metrics.enabled:
            metrics.counter("finetune.batches").inc(n_batches)
            metrics.histogram("finetune.epoch_loss", series=True).observe(
                record["loss"]
            )
        if eval_hook is not None:
            record.update(eval_hook(epoch))
        history.append(record)
    return history


class ThreePhaseTrainer:
    """Orchestrates the paper's train → resample-in-embedding → fine-tune flow.

    Parameters
    ----------
    model:
        The CNN classifier.
    loss:
        Phase-1 training loss (CE / ASL / Focal / LDAM).
    optimizer:
        Phase-1 optimizer over all model parameters.
    sampler:
        Any object with ``fit_resample(X, y)`` — EOS, a SMOTE variant, a
        GAN adapter, or ``None`` to skip balancing (baseline).
    scheduler:
        Optional phase-1 LR scheduler.
    """

    def __init__(self, model, loss, optimizer, sampler=None, scheduler=None):
        self.model = model
        self.sampler = sampler
        self.phase1 = Trainer(model, loss, optimizer, scheduler)
        self.train_embeddings = None
        self.train_embedding_labels = None
        self.balanced_embeddings = None
        self.balanced_labels = None
        self.finetune_history = []
        self.timings = {}

    # ------------------------------------------------------------------
    def train_phase1(self, dataset, epochs, batch_size=32, transform=None, rng=None,
                     eval_dataset=None, verbose=False, max_seconds=None):
        """Phase 1: end-to-end training on the imbalanced dataset."""
        start = monotonic()
        with get_tracer().span("phase1", epochs=epochs):
            history = self.phase1.fit(
                dataset,
                epochs,
                batch_size=batch_size,
                transform=transform,
                rng=rng,
                eval_dataset=eval_dataset,
                verbose=verbose,
                max_seconds=max_seconds,
            )
        self.timings["phase1"] = monotonic() - start
        return history

    def extract_embeddings(self, dataset, batch_size=128):
        """Phase 2a: cache the training-set feature embeddings."""
        start = monotonic()
        with get_tracer().span("extract", n_images=int(dataset.images.shape[0])):
            self.train_embeddings = extract_features(
                self.model, dataset.images, batch_size
            )
        self.train_embedding_labels = dataset.labels.copy()
        self.timings["extract"] = monotonic() - start
        return self.train_embeddings

    def resample_embeddings(self):
        """Phase 2b: balance the cached embeddings with the sampler."""
        if self.train_embeddings is None:
            raise RuntimeError("call extract_embeddings() first")
        start = monotonic()
        sampler_name = type(self.sampler).__name__ if self.sampler else "none"
        with get_tracer().span("resample", sampler=sampler_name):
            if self.sampler is None:
                self.balanced_embeddings = self.train_embeddings
                self.balanced_labels = self.train_embedding_labels
            else:
                self.balanced_embeddings, self.balanced_labels = (
                    self.sampler.fit_resample(
                        self.train_embeddings, self.train_embedding_labels
                    )
                )
        self.timings["resample"] = monotonic() - start
        return self.balanced_embeddings, self.balanced_labels

    def finetune(self, epochs=10, batch_size=64, lr=0.05, loss=None,
                 reinitialize=False, rng=None, eval_hook=None):
        """Phase 3: fine-tune the classifier head on balanced embeddings."""
        if self.balanced_embeddings is None:
            raise RuntimeError("call resample_embeddings() first")
        start = monotonic()
        with get_tracer().span("finetune", epochs=epochs):
            self.finetune_history = finetune_classifier(
                self.model,
                self.balanced_embeddings,
                self.balanced_labels,
                epochs=epochs,
                batch_size=batch_size,
                lr=lr,
                loss=loss,
                reinitialize=reinitialize,
                rng=rng,
                eval_hook=eval_hook,
            )
        self.timings["finetune"] = monotonic() - start
        return self.finetune_history

    # ------------------------------------------------------------------
    def run(
        self,
        train_dataset,
        phase1_epochs,
        finetune_epochs=10,
        batch_size=32,
        transform=None,
        finetune_lr=0.05,
        rng=None,
        eval_dataset=None,
        verbose=False,
    ):
        """Run all three phases; returns self for chaining."""
        self.train_phase1(
            train_dataset,
            phase1_epochs,
            batch_size=batch_size,
            transform=transform,
            rng=rng,
            eval_dataset=eval_dataset,
            verbose=verbose,
        )
        self.extract_embeddings(train_dataset)
        self.resample_embeddings()
        self.finetune(epochs=finetune_epochs, lr=finetune_lr, rng=rng)
        return self

    # ------------------------------------------------------------------
    def predict(self, images, batch_size=128):
        """Inference with the recombined extractor + fine-tuned head."""
        self.model.eval()
        preds = []
        with no_grad():
            for start in range(0, images.shape[0], batch_size):
                batch = Tensor(images[start : start + batch_size])
                logits = self.model(batch)
                preds.append(logits.data.argmax(axis=1))
        return np.concatenate(preds)

    def evaluate(self, dataset, batch_size=128):
        """BAC/GM/FM on a dataset with the recombined model."""
        preds = self.predict(dataset.images, batch_size)
        return evaluate_predictions(dataset.labels, preds, dataset.num_classes)

    def total_time(self):
        """Total wall-clock seconds spent across recorded phases."""
        return sum(self.timings.values())
