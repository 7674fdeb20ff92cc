"""Phase 3's buffered tape-free loop against the per-batch loop it replaced.

``finetune_classifier`` gathers each epoch's shuffled rows once and runs
plain cross-entropy on a ``Linear`` head in buffers allocated once per
call.  The loop it replaced built every batch with ``embeddings[idx]``
and ran :func:`_ce_head_step` (fresh arrays each batch), then
``zero_grad`` and ``SGD.step``.  That loop is kept here verbatim as
:func:`reference_finetune`; the buffered loop must leave the same
weight, bias and gradient bytes and the same per-epoch losses, raise the
same errors at the same points, and emit the same spans and steps.

The buffered step relies on three floating-point identities
(``finetune_classifier``'s docstring); each has its own test below,
and so does the sign-flip form of the second, which fails at a zero
loss and is why the step negates before it sums.
"""

import itertools

import numpy as np
import pytest

from repro import telemetry
from repro.core import finetune_classifier
from repro.losses import CrossEntropyLoss
from repro.nn import ImageClassifier, Linear
from repro.optim import SGD
from repro.resilience import (
    DivergenceError,
    FaultInjected,
    FaultPlan,
    inject_faults,
    maybe_fire,
)
from repro.telemetry import get_metrics, get_tracer, monotonic
from repro.tensor import default_dtype, using_default_dtype


# ----------------------------------------------------------------------
# The replaced loop, verbatim
# ----------------------------------------------------------------------
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


def reference_finetune(
    model,
    embeddings,
    labels,
    epochs=10,
    batch_size=64,
    lr=0.05,
    momentum=0.9,
    weight_decay=0.0,
    reinitialize=False,
    rng=None,
    eval_hook=None,
):
    """The replaced ``finetune_classifier``, reduced to its tape-free branch."""
    loss = CrossEntropyLoss()
    rng = rng if rng is not None else np.random.default_rng(0)
    head = model.classifier
    if reinitialize:
        from repro.nn import init as nn_init

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
                    value = _ce_head_step(head, embeddings[idx], labels[idx])
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


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
class HeadOnly(ImageClassifier):
    """An image classifier reduced to its ``Linear`` head."""

    def __init__(self, dim, num_classes, bias=True, seed=0):
        super().__init__()
        self.feature_dim = dim
        self.classifier = Linear(
            dim, num_classes, bias=bias, rng=np.random.default_rng(seed)
        )


def _data(n, dim, num_classes, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim)), rng.integers(0, num_classes, n)


def _head_bytes(model):
    """Every byte the fine-tune leaves on the head: data and gradients."""
    out = []
    for param in model.classifier.parameters():
        out.append((str(param.data.dtype), param.data.tobytes()))
        grad = param.grad
        out.append(None if grad is None
                   else (str(grad.dtype), grad.strides, grad.tobytes()))
    return out


def _losses(history):
    return np.array([record["loss"] for record in history]).tobytes()


def _without_seconds(history):
    return [{k: v for k, v in record.items() if k != "seconds"}
            for record in history]


def run_both(embeddings, labels, num_classes, bias=True, dtype=np.float64,
             head_dtype=None, **kwargs):
    """Fine-tune two identical heads, one per loop; return both outcomes.

    ``kwargs`` go to both loops; ``rng`` is a fresh seed-0 generator for
    each.  ``head_dtype`` (default ``dtype``) is the default dtype the
    heads are built under.
    """
    dim = embeddings.shape[1]
    outcomes = []
    for loop in (reference_finetune, finetune_classifier):
        with using_default_dtype(head_dtype or dtype):
            model = HeadOnly(dim, num_classes, bias=bias)
        with using_default_dtype(dtype):
            history = loop(model, embeddings, labels,
                           rng=np.random.default_rng(0), **kwargs)
        outcomes.append((model, history))
    return outcomes


def assert_same(outcomes):
    (ref_model, ref_history), (model, history) = outcomes
    assert _losses(history) == _losses(ref_history)
    assert _without_seconds(history) == _without_seconds(ref_history)
    assert _head_bytes(model) == _head_bytes(ref_model)


# ----------------------------------------------------------------------
# The grid
# ----------------------------------------------------------------------
OPTIM = [(0.0, 0.0), (0.0, 0.9), (1e-4, 0.0), (1e-4, 0.9)]
HEADS = [(True, 2), (True, 10), (False, 2), (False, 10)]


class TestMatchesReferenceLoop:
    # 100 rows leave a ragged last batch for every batch size but 1.
    @pytest.mark.parametrize("bias,num_classes", HEADS,
                             ids=["bias-2", "bias-10", "nobias-2",
                                  "nobias-10"])
    @pytest.mark.parametrize("weight_decay,momentum", OPTIM,
                             ids=["plain", "momentum", "decay",
                                  "decay-momentum"])
    @pytest.mark.parametrize("batch_size", [1, 3, 33, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_grid(self, dtype, batch_size, weight_decay, momentum, bias,
                  num_classes):
        embeddings, labels = _data(100, 32, num_classes, seed=batch_size)
        assert_same(run_both(
            embeddings, labels, num_classes, bias=bias, dtype=dtype,
            epochs=2, batch_size=batch_size, weight_decay=weight_decay,
            momentum=momentum,
        ))

    @pytest.mark.parametrize("batch_size", [3, 64])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_duplicated_rows(self, dtype, batch_size):
        base, _ = _data(7, 32, 10, seed=5)
        rng = np.random.default_rng(6)
        embeddings = base[rng.integers(0, 7, 150)]
        labels = rng.integers(0, 10, 150)
        assert_same(run_both(embeddings, labels, 10, dtype=dtype, epochs=3,
                             batch_size=batch_size))

    @pytest.mark.parametrize("batch_size", [1, 33])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_logits_extreme_enough_to_underflow_exp(self, dtype, batch_size):
        """exp(log-probs) is exactly 0 at many non-target entries, so the
        gradient there is ``0 − (0·s)``, a signed zero (identity 3)."""
        embeddings, labels = _data(70, 32, 10, seed=8)
        embeddings *= 400.0
        with using_default_dtype(dtype):
            head = HeadOnly(32, 10).classifier
            x = embeddings.astype(dtype)
            logits = x @ head.weight.data.T + head.bias.data
            shifted = logits - logits.max(axis=-1, keepdims=True)
            assert (np.exp(shifted) == 0).mean() > 0.25
        assert_same(run_both(embeddings, labels, 10, dtype=dtype, epochs=2,
                             batch_size=batch_size, lr=1e-4))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    def test_reinitialize(self, dtype):
        embeddings, labels = _data(90, 32, 10, seed=9)
        assert_same(run_both(embeddings, labels, 10, dtype=dtype, epochs=2,
                             batch_size=64, reinitialize=True))

    def test_eval_hook_sees_the_same_head_each_epoch(self):
        embeddings, labels = _data(90, 32, 10, seed=10)
        seen = []

        def eval_hook(epoch):
            weight = current[0].classifier.weight.data
            seen.append(weight.tobytes())
            return {"weight_sum": float(weight.sum()), "epoch_again": epoch}

        outcomes = []
        for loop in (reference_finetune, finetune_classifier):
            model = HeadOnly(32, 10)
            current = [model]
            history = loop(model, embeddings, labels, epochs=3,
                           rng=np.random.default_rng(0), eval_hook=eval_hook)
            outcomes.append((model, history))
        assert_same(outcomes)
        assert seen[:3] == seen[3:]
        assert all("weight_sum" in record for record in outcomes[1][1])

    @pytest.mark.parametrize("head_dtype,dtype",
                             [(np.float32, np.float64),
                              (np.float64, np.float32)],
                             ids=["float32-head", "float64-head"])
    def test_head_dtype_differs_from_embeddings(self, head_dtype, dtype):
        embeddings, labels = _data(100, 32, 10, seed=11)
        assert_same(run_both(embeddings, labels, 10, dtype=dtype,
                             head_dtype=head_dtype, epochs=2, batch_size=33,
                             weight_decay=1e-4))


# ----------------------------------------------------------------------
# Fault points, spans and steps
# ----------------------------------------------------------------------
def _run_under_plan(loop, action):
    embeddings, labels = _data(150, 32, 10, seed=12)
    model = HeadOnly(32, 10)
    plan = FaultPlan()
    plan.inject("finetune.batch", action=action,
                when={"epoch": 1, "batch": 2})
    with inject_faults(plan):
        with pytest.raises((DivergenceError, FaultInjected)) as err:
            loop(model, embeddings, labels, epochs=3, batch_size=32,
                 rng=np.random.default_rng(0))
    return err.value, model, plan.log


class TestParity:
    def test_nan_fault_diverges_at_the_same_point(self):
        ref_err, ref_model, ref_log = _run_under_plan(reference_finetune,
                                                      "nan")
        err, model, log = _run_under_plan(finetune_classifier, "nan")
        assert type(err) is type(ref_err) is DivergenceError
        assert str(err) == str(ref_err)
        for field in ("epoch", "batch", "phase"):
            assert getattr(err, field) == getattr(ref_err, field)
        assert (err.epoch, err.batch, err.phase) == (1, 2, "finetune")
        assert np.isnan(err.loss) and np.isnan(ref_err.loss)
        assert log == ref_log
        assert _head_bytes(model) == _head_bytes(ref_model)

    def test_raise_fault_raises_at_the_same_point(self):
        ref_err, ref_model, ref_log = _run_under_plan(reference_finetune,
                                                      "raise")
        err, model, log = _run_under_plan(finetune_classifier, "raise")
        assert type(err) is type(ref_err) is FaultInjected
        assert (err.point, err.context) == (ref_err.point, ref_err.context)
        assert err.context == {"epoch": 1, "batch": 2}
        assert log == ref_log
        assert _head_bytes(model) == _head_bytes(ref_model)

    def test_spans_and_counters_match(self):
        embeddings, labels = _data(100, 32, 10, seed=13)
        seen = []
        for loop in (reference_finetune, finetune_classifier):
            with telemetry.session() as tracer:
                loop(HeadOnly(32, 10), embeddings, labels, epochs=3,
                     batch_size=33, rng=np.random.default_rng(0))
                snap = get_metrics().snapshot()
            names = [r["name"] for r in tracer.records
                     if r["type"] == "span"]
            seen.append((names.count("finetune.batch"),
                         names.count("finetune.epoch"),
                         snap["counters"]["finetune.batches"],
                         snap["histograms"]["finetune.epoch_loss"]["series"]))
        assert seen[0] == seen[1]
        assert seen[1][:3] == (3 * 4, 3, 3 * 4)

    def test_negative_labels_wrap_as_in_the_reference(self):
        embeddings, labels = _data(100, 32, 10, seed=15)
        labels[::7] -= 10
        assert labels.min() < 0
        assert_same(run_both(embeddings, labels, 10, epochs=2,
                             batch_size=33))

    @pytest.mark.parametrize("bad", [10, -11])
    def test_labels_out_of_range_raise_as_in_the_reference(self, bad):
        embeddings, labels = _data(100, 32, 10, seed=16)
        labels[40] = bad
        for loop in (reference_finetune, finetune_classifier):
            with pytest.raises(IndexError):
                loop(HeadOnly(32, 10), embeddings, labels, epochs=1,
                     batch_size=100, rng=np.random.default_rng(0))

    def test_sgd_steps_once_per_batch(self, monkeypatch):
        calls = []
        step = SGD.step

        def counting_step(self):
            calls.append(1)
            return step(self)

        monkeypatch.setattr(SGD, "step", counting_step)
        embeddings, labels = _data(100, 32, 10, seed=14)
        for batch_size, batches in ((1, 100), (33, 4), (64, 2), (100, 1)):
            del calls[:]
            finetune_classifier(HeadOnly(32, 10), embeddings, labels,
                                epochs=2, batch_size=batch_size,
                                rng=np.random.default_rng(0))
            assert len(calls) == 2 * batches


# ----------------------------------------------------------------------
# The three identities
# ----------------------------------------------------------------------
DTYPES = [np.float32, np.float64]


def _bits(value):
    value = np.asarray(value)
    return str(value.dtype), value.shape, value.tobytes()


class TestIdentities:
    @pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
    @pytest.mark.parametrize("dim", [5, 32, 64])
    def test_row_slice_of_the_gather_feeds_the_same_gemm(self, dtype, dim):
        """1. A C-contiguous row slice of the per-epoch gather gives the
        same forward and weight-gradient products as ``embeddings[idx]``,
        at every start offset."""
        rng = np.random.default_rng(dim)
        n = 131
        embeddings = rng.normal(size=(n, dim)).astype(dtype)
        weight_t = rng.normal(size=(10, dim)).astype(dtype).T
        order = rng.permutation(n)
        shuffled = np.empty_like(embeddings)
        embeddings.take(order, axis=0, out=shuffled, mode="clip")
        for batch_size in (1, 3, 33, 64):
            for start in itertools.chain(range(0, 9), range(9, n, 7)):
                idx = order[start : start + batch_size]
                rows = idx.shape[0]
                fresh = embeddings[idx]
                view = shuffled[start : start + batch_size]
                assert view.flags.c_contiguous
                z = np.empty((rows, 10), dtype)
                np.matmul(view, weight_t, out=z)
                assert _bits(z) == _bits(fresh @ weight_t)
                g = rng.normal(size=(rows, 10)).astype(dtype)
                out = np.empty((dim, 10), dtype)
                np.matmul(view.T, g, out=out)
                assert _bits(out) == _bits(fresh.T @ g)

    @pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
    def test_unit_weights_drop_out_of_the_loss(self, dtype):
        """2. ``(-picked * ones).sum() / denom == (-picked).sum() / denom``."""
        rng = np.random.default_rng(2)
        for rows in itertools.chain(range(1, 70), (128, 1000)):
            for scale in (1e-3, 1.0, 30.0, 1e4):
                picked = -np.abs(rng.normal(size=rows) * scale).astype(dtype)
                picked[rng.random(rows) < 0.1] = 0.0
                ones = np.ones(rows, dtype=dtype)
                denom = ones.sum()
                today = (-picked * ones).sum() / denom
                negated = np.negative(picked)
                assert _bits(np.add.reduce(negated) / denom) == _bits(today)

    @pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
    def test_sign_flip_after_the_sum_breaks_a_zero_loss(self, dtype):
        """Why the step negates before it sums: numpy starts a sum at
        ``+0.0``, so the terms ``-0.0`` sum to ``+0.0`` while ``-(0.0)``
        is ``-0.0``."""
        picked = np.zeros(3, dtype)
        ones = np.ones(3, dtype)
        denom = ones.sum()
        today = (-picked * ones).sum() / denom
        assert not np.signbit(today)
        assert np.signbit(-np.add.reduce(picked) / denom)

    @pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
    @pytest.mark.parametrize("num_classes", [2, 3, 10, 17])
    def test_seeded_gradient_without_the_one_hot(self, dtype, num_classes):
        """3. Each one-hot seed row sums to ``seed``, so the log-softmax
        backward equals ``exp(lp)·(−seed)`` plus ``seed`` at the targets,
        signed zeros included."""
        rng = np.random.default_rng(num_classes)
        zeros = 0
        for rows in (1, 3, 33, 64):
            for scale in (1.0, 50.0, 1e3):
                logits = (rng.normal(size=(rows, num_classes))
                          * scale).astype(dtype)
                shifted = logits - logits.max(axis=-1, keepdims=True)
                log_norm = np.log(np.exp(shifted).sum(axis=-1,
                                                      keepdims=True))
                lp = shifted - log_norm
                targets = rng.integers(0, num_classes, rows)
                sample_w = np.ones(rows, dtype=dtype)
                denom = sample_w.sum()
                seed = (-sample_w * (np.ones((), dtype) / denom))[0]
                g = np.zeros_like(lp)
                g[np.arange(rows), targets] = seed
                today = g - np.exp(lp) * g.sum(axis=-1, keepdims=True)

                buffered = np.exp(lp) * -seed
                buffered[np.arange(rows), targets] += seed
                assert _bits(buffered) == _bits(today)
                zeros += int((today == 0).sum())
        assert zeros > 0
