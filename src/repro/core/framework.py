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
    """True when phase 3 can run :func:`_ce_head_step` instead of the tape.

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


def _ce_head_step(head, x, targets):
    """One tape-free cross-entropy step on a ``Linear`` head.

    Sets ``head``'s parameter gradients and returns the mean loss.  It
    replays the kernels the tape runs for ``linear`` → ``log_softmax``
    → ``nll_loss`` (tensor/functional.py) and their backward closures,
    in the same order and dtype, so the loss and the gradients are
    bitwise equal to the taped step's.
    """
    bias = head.bias
    logits = x @ head.weight.data.T
    if bias is not None:
        logits = logits + bias.data
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_norm
    rows = np.arange(x.shape[0])
    sample_w = np.ones(x.shape[0], dtype=log_probs.dtype)
    denom = sample_w.sum()
    loss = (-log_probs[rows, targets] * sample_w).sum() / denom
    # Backward from a unit seed: nll_loss, log_softmax, add, matmul.
    g = np.zeros_like(log_probs)
    g[rows, targets] = -sample_w * (np.ones_like(loss) / denom)
    g = g - np.exp(log_probs) * g.sum(axis=-1, keepdims=True)
    head.weight.grad = (x.T @ g).T.copy()
    if bias is not None:
        bias.grad = g.sum(axis=(0,))
    return loss


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

    Plain cross-entropy on a ``Linear`` head (the default, and every
    paper view) runs each batch as a closed-form numpy step with no
    autograd tape; weights and losses are bitwise equal to the taped
    step.  Any other loss, a weighted cross-entropy, another head, or a
    run under ``detect_anomaly()`` goes through the tape.

    Returns the per-epoch history list.
    """
    loss = loss if loss is not None else CrossEntropyLoss()
    rng = rng if rng is not None else np.random.default_rng(0)
    head = model.classifier
    tape_free = _tape_free(model, loss)
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
    tracer = get_tracer()
    metrics = get_metrics()
    history = []
    for epoch in range(epochs):
        loss.set_epoch(epoch)
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        start_time = monotonic()
        with tracer.span("finetune.epoch", epoch=epoch) as epoch_span:
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                optimizer.zero_grad()
                with tracer.span("finetune.batch"):
                    if tape_free:
                        value = _ce_head_step(
                            head, embeddings[idx], labels[idx]
                        )
                    else:
                        value = loss(
                            model.forward_head(Tensor(embeddings[idx])),
                            labels[idx],
                        )
                        value.backward()
                        value = value.data
                    batch_loss = float(value)
                    if maybe_fire("finetune.batch", epoch=epoch,
                                  batch=n_batches) == "nan":
                        batch_loss = float("nan")
                    if not np.isfinite(batch_loss):
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
