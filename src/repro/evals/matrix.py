"""Declarative experiment matrix: spec -> deterministic cell plan.

A :class:`MatrixSpec` names one paper view (``table1`` … ``table5``, the
figures, or the two §V-E studies) plus the axes to sweep — datasets,
losses, samplers, seeds, and arbitrary config-field hyper-parameter
axes — and optional ``include`` / ``exclude`` predicates.
:func:`validate_spec` rejects an axis the view does not read, and
:func:`compile_matrix` turns a table spec into a :class:`MatrixPlan`: an
ordered tuple of :class:`MatrixCell` records carrying each cell's
results-dict key, checkpoint ``cell_id``, row label, config overrides
and evaluation kwargs, which :func:`repro.evals.run_matrix` executes.

Compilation is pure and deterministic: the same spec compiles to the
same cell ordering regardless of worker count, process, or platform —
the ordering is the nested axis iteration order, never a hash or a
timestamp.  Plans round-trip through JSON (:func:`plan_to_payload` /
:func:`plan_from_payload`) so a completed run's table can be
regenerated from the result store without touching the spec's
callables.

This module is dependency-free (stdlib only) by design: the result
store and the report CLI import it without dragging in numpy or the
training stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields

__all__ = [
    "ALL_VIEWS",
    "FIGURE_VIEWS",
    "TABLE_VIEWS",
    "MatrixCell",
    "MatrixPlan",
    "MatrixSpec",
    "compile_matrix",
    "plan_from_payload",
    "plan_to_payload",
    "spec_to_payload",
    "validate_spec",
]

TABLE_VIEWS = ("table1", "table2", "table3", "table4", "table5")
FIGURE_VIEWS = (
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "runtime_comparison",
    "eos_pixel_vs_embedding",
)
ALL_VIEWS = TABLE_VIEWS + FIGURE_VIEWS

#: The axes each view reads, with their paper defaults.
_DEFAULTS = {
    "table1": {"datasets": ("cifar10_like",),
               "samplers": ("smote", "bsmote", "balsvm")},
    "table2": {"datasets": ("cifar10_like",),
               "losses": ("ce", "asl", "focal", "ldam"),
               "samplers": ("none", "smote", "bsmote", "balsvm", "eos")},
    "table3": {"datasets": ("cifar10_like",),
               "losses": ("ce",),
               "samplers": ("gamo", "bagan", "cgan", "eos"),
               "mode": "embedding"},
    "table4": {"datasets": ("cifar10_like",),
               "k_values": (2, 5, 10, 20, 40)},
    "table5": {"architectures": (
        ("resnet8", {"width_multiplier": 0.5}),
        ("wideresnet", {"depth": 10, "widen_factor": 2,
                        "width_multiplier": 0.5}),
        ("densenet", {"growth_rate": 6, "block_layers": (2, 2, 2)}),
    )},
    "figure3": {"losses": ("ce", "asl", "focal", "ldam"),
                "samplers": ("none", "smote", "bsmote", "balsvm", "eos")},
    "figure4": {"datasets": ("cifar10_like",)},
    "figure5": {"losses": ("ce", "asl", "focal", "ldam"),
                "samplers": ("none", "smote", "bsmote", "balsvm", "eos")},
    "figure6": {"samplers": ("none", "smote", "bsmote", "balsvm", "eos")},
    "figure7": {"samplers": ("smote", "eos")},
    "runtime_comparison": {"samplers": ("smote", "bsmote", "balsvm")},
    "eos_pixel_vs_embedding": {},
}

_METRIC_HEADERS = ("BAC", "GM", "FM")


@dataclass(frozen=True)
class MatrixCell:
    """One grid cell of a compiled plan.

    ``key`` is the cell's key in the view's ``results`` dict (e.g.
    ``("cifar10_like", "ce", "eos")``), ``cell_id`` the checkpoint /
    store identifier (``"t2/cifar10_like/ce/eos"``), ``row`` the
    leading label columns of the rendered table.  ``kind`` selects the
    evaluation path: ``"sampler"`` (embedding-space fine-tune),
    ``"timed_sampler"`` (same, keeping resample+tune seconds), or
    ``"preprocessed"`` (pixel-space full retraining).
    """

    key: tuple
    cell_id: str
    kind: str
    row: tuple
    loss: str
    sampler: str
    overrides: dict = field(default_factory=dict)
    eval_kwargs: dict = field(default_factory=dict)

    @property
    def timed(self):
        """True when the cell payload is ``{"metrics", "seconds"}``."""
        return self.kind != "sampler"

    @property
    def dataset(self):
        return self.overrides.get("dataset")


@dataclass(frozen=True)
class MatrixPlan:
    """A compiled, ordered grid plus everything needed to render it."""

    view: str
    title: str
    headers: tuple
    cells: tuple
    summary: dict
    show_seconds: bool = False
    extras: dict = field(default_factory=dict)
    prewarm: tuple = ()


@dataclass
class MatrixSpec:
    """Declarative description of one experiment matrix.

    Any axis left as ``None`` takes the view's paper default; an axis
    the view does not read must stay ``None`` (:func:`validate_spec`).
    On table views, ``seeds`` and ``hyper`` add extra grid axes: each
    combination re-runs every base cell with the named config fields
    overridden, an extra key component, an extra table column, and a
    ``/field=value`` cell-id suffix; ``include`` / ``exclude`` are
    predicates over :class:`MatrixCell` applied after axis expansion.

    ``mode`` (table3) selects where the GAN samplers run:
    ``"embedding"`` (default: every method on identical footing inside
    the three-phase framework) or ``"pixel"`` (the paper's literal
    protocol: the GANs balance the raw images as pre-processing,
    followed by full re-training, while EOS still runs in embedding
    space).  Pixel mode is several times slower since each GAN row
    retrains the CNN.  The ``k_values`` default (table4) scales the
    sweep to the bench dataset size; pass the paper's K in {10..300}
    at larger scales.  ``options`` are the keyword arguments of figure6
    (``majority_class=1``, ``minority_class=9``, ``max_points=150``)
    and figure7 (``epochs=30``).
    """

    view: str
    config: object = None
    datasets: tuple = None
    losses: tuple = None
    samplers: tuple = None
    seeds: tuple = None
    hyper: dict = None
    k_values: tuple = None
    architectures: tuple = None
    mode: str = None
    include: object = None
    exclude: object = None
    options: dict = None

    def resolved(self, axis):
        """The axis value, falling back to the view's paper default."""
        value = getattr(self, axis, None)
        if value is None:
            value = _DEFAULTS.get(self.view, {}).get(axis)
        if isinstance(value, list):
            value = tuple(value)
        return value


def validate_spec(spec):
    """Raise :class:`ValueError` if ``spec`` sets an axis its view ignores.

    A view reads its ``_DEFAULTS`` axes; table views also read
    ``seeds`` / ``hyper`` / ``include`` / ``exclude``, and figure6 and
    figure7 read ``options``.  Anything else would be dropped silently.
    """
    if spec.view not in _DEFAULTS:
        raise ValueError("unknown view %r (valid: %s)"
                         % (spec.view, ", ".join(ALL_VIEWS)))
    allowed = set(_DEFAULTS[spec.view])
    if spec.view in TABLE_VIEWS:
        allowed.update(("seeds", "hyper", "include", "exclude"))
    if spec.view in ("figure6", "figure7"):
        allowed.add("options")
    for axis in fields(spec):
        if (axis.name not in ("view", "config")
                and getattr(spec, axis.name) is not None
                and axis.name not in allowed):
            raise ValueError("view %r does not read the %r axis (it reads: %s)"
                             % (spec.view, axis.name,
                                ", ".join(sorted(allowed)) or "none"))


def spec_to_payload(spec):
    """JSON-able snapshot of a spec (for fingerprints and the store)."""
    payload = {"view": spec.view}
    for axis in ("datasets", "losses", "samplers", "seeds", "k_values",
                 "mode"):
        value = spec.resolved(axis)
        if value is not None:
            payload[axis] = list(value) if isinstance(value, tuple) else value
    architectures = spec.resolved("architectures")
    if architectures is not None:
        payload["architectures"] = [
            [name, dict(kwargs)] for name, kwargs in architectures
        ]
    if spec.hyper:
        payload["hyper"] = {name: list(values)
                            for name, values in spec.hyper.items()}
    if spec.options:
        payload["options"] = dict(spec.options)
    payload["filtered"] = bool(spec.include or spec.exclude)
    return payload


# ----------------------------------------------------------------------
# Per-view base grids (pre axis-expansion)
# ----------------------------------------------------------------------
def _compile_table1(spec):
    datasets = spec.resolved("datasets")
    samplers = spec.resolved("samplers")
    cells = []
    for dataset in datasets:
        for name in tuple(samplers) + ("remix",):
            cells.append(MatrixCell(
                key=(dataset, "pre", name),
                cell_id="t1/%s/pre/%s" % (dataset, name),
                kind="preprocessed",
                row=(dataset, "Pre-%s" % name),
                loss="ce", sampler=name,
                overrides={"dataset": dataset},
            ))
        for name in samplers:
            cells.append(MatrixCell(
                key=(dataset, "post", name),
                cell_id="t1/%s/post/%s" % (dataset, name),
                kind="sampler",
                row=(dataset, "Post-%s" % name),
                loss="ce", sampler=name,
                overrides={"dataset": dataset},
            ))
    return dict(
        title="Table I: pre-processing vs feature-embedding "
              "over-sampling (CE)",
        labels=("dataset", "method"),
        cells=cells,
        summary={"kind": "post_wins", "datasets": list(datasets),
                 "samplers": list(samplers)},
    )


def _compile_table2(spec):
    datasets = spec.resolved("datasets")
    losses = spec.resolved("losses")
    samplers = spec.resolved("samplers")
    cells = [
        MatrixCell(
            key=(dataset, loss, name),
            cell_id="t2/%s/%s/%s" % (dataset, loss, name),
            kind="sampler",
            row=(dataset, loss, name),
            loss=loss, sampler=name,
            overrides={"dataset": dataset},
        )
        for dataset in datasets
        for loss in losses
        for name in samplers
    ]
    return dict(
        title="Table II: baselines & over-sampling in embedding space",
        labels=("dataset", "loss", "sampler"),
        cells=cells,
        summary={"kind": "eos_wins", "datasets": list(datasets),
                 "losses": list(losses), "samplers": list(samplers)},
    )


def _compile_table3(spec):
    mode = spec.resolved("mode")
    if mode not in ("embedding", "pixel"):
        raise ValueError("mode must be 'embedding' or 'pixel'")
    datasets = spec.resolved("datasets")
    losses = spec.resolved("losses")
    samplers = spec.resolved("samplers")
    cells = []
    for dataset in datasets:
        for loss in losses:
            for name in samplers:
                pixel_pre = mode == "pixel" and name != "eos"
                cells.append(MatrixCell(
                    key=(dataset, loss, name),
                    cell_id="t3/%s/%s/%s/%s" % (mode, dataset, loss, name),
                    kind="preprocessed" if pixel_pre else "timed_sampler",
                    row=(dataset, loss, name),
                    loss=loss, sampler=name,
                    overrides={"dataset": dataset},
                ))
    return dict(
        title="Table III: GAN-based over-sampling vs EOS (%s space)" % mode,
        labels=("dataset", "loss", "sampler"),
        cells=cells,
        summary={"kind": "none"},
        show_seconds=True,
        extras={"mode": mode},
    )


def _compile_table4(spec):
    datasets = spec.resolved("datasets")
    k_values = spec.resolved("k_values")
    cells = [
        MatrixCell(
            key=(dataset, k),
            cell_id="t4/%s/k=%d" % (dataset, k),
            kind="sampler",
            row=(dataset, str(k)),
            loss="ce", sampler="eos",
            overrides={"dataset": dataset},
            eval_kwargs={"k_neighbors": k},
        )
        for dataset in datasets
        for k in k_values
    ]
    return dict(
        title="Table IV: EOS nearest-neighbor size analysis",
        labels=("dataset", "K"),
        cells=cells,
        summary={"kind": "none"},
        extras={"k_values": tuple(k_values)},
    )


def _compile_table5(spec):
    architectures = spec.resolved("architectures")
    cells = []
    for model_name, kwargs in architectures:
        overrides = {"model": model_name, "model_kwargs": dict(kwargs)}
        for sampler_name, label in (("none", "baseline"), ("eos", "eos")):
            prefix = (model_name if label == "baseline"
                      else "EOS: %s" % model_name)
            cells.append(MatrixCell(
                key=(model_name, label),
                cell_id="t5/%s/%s" % (model_name, label),
                kind="sampler",
                row=(prefix,),
                loss="ce", sampler=sampler_name,
                overrides=dict(overrides),
            ))
    return dict(
        title="Table V: CNN architectures with & without EOS",
        labels=("network",),
        cells=cells,
        summary={"kind": "none"},
    )


_VIEW_COMPILERS = {
    "table1": _compile_table1,
    "table2": _compile_table2,
    "table3": _compile_table3,
    "table4": _compile_table4,
    "table5": _compile_table5,
}


# ----------------------------------------------------------------------
# Axis expansion, filtering, prewarm derivation
# ----------------------------------------------------------------------
def _axis_names(spec):
    names = []
    if spec.seeds:
        names.append("seed")
    if spec.hyper:
        names.extend(spec.hyper)
    return names


def _axis_combos(spec, names):
    pools = []
    for name in names:
        pools.append(tuple(spec.seeds) if name == "seed"
                     else tuple(spec.hyper[name]))
    return [dict(zip(names, values))
            for values in itertools.product(*pools)]


def _expand_cell(cell, combo):
    suffix = "/".join("%s=%s" % (name, value)
                      for name, value in combo.items())
    overrides = dict(cell.overrides)
    overrides.update(combo)
    return MatrixCell(
        key=cell.key + tuple(combo.values()),
        cell_id=cell.cell_id + "/" + suffix,
        kind=cell.kind,
        row=cell.row + tuple(str(value) for value in combo.values()),
        loss=cell.loss,
        sampler=cell.sampler,
        overrides=overrides,
        eval_kwargs=dict(cell.eval_kwargs),
    )


def _derive_prewarm(cells):
    """Unique (overrides, loss) extractor jobs, in first-use order.

    Only non-``preprocessed`` cells need a phase-1 extractor; deriving
    the list from the surviving cells means an ``exclude`` predicate
    also prunes the extractors it made unnecessary.
    """
    seen = set()
    jobs = []
    for cell in cells:
        if cell.kind == "preprocessed":
            continue
        marker = (repr(sorted(cell.overrides.items(), key=repr)), cell.loss)
        if marker in seen:
            continue
        seen.add(marker)
        jobs.append((dict(cell.overrides), cell.loss))
    return tuple(jobs)


def compile_matrix(spec):
    """Compile a table spec into a deterministic :class:`MatrixPlan`."""
    validate_spec(spec)
    if spec.view in FIGURE_VIEWS:
        raise ValueError(
            "view %r is a figure view; run_matrix executes it "
            "directly without a cell plan" % spec.view
        )
    base = _VIEW_COMPILERS[spec.view](spec)
    names = _axis_names(spec)
    cells = list(base["cells"])
    summary = dict(base["summary"])
    headers = list(base["labels"])
    if names:
        combos = _axis_combos(spec, names)
        cells = [_expand_cell(cell, combo)
                 for combo in combos for cell in base["cells"]]
        headers += names
        # Extra axes change row multiplicity; the paper-shape summary
        # lines (post-wins, EOS-wins) are defined on the base grid only.
        summary = {"kind": "none"}
    if spec.include is not None:
        cells = [cell for cell in cells if spec.include(cell)]
    if spec.exclude is not None:
        cells = [cell for cell in cells if not spec.exclude(cell)]
    headers += list(_METRIC_HEADERS)
    if base.get("show_seconds"):
        headers.append("resample+tune")
    return MatrixPlan(
        view=spec.view,
        title=base["title"],
        headers=tuple(headers),
        cells=tuple(cells),
        summary=summary,
        show_seconds=bool(base.get("show_seconds")),
        extras=dict(base.get("extras", {})),
        prewarm=_derive_prewarm(cells),
    )


# ----------------------------------------------------------------------
# JSON round-trip (for the result store)
# ----------------------------------------------------------------------
def plan_to_payload(plan):
    """JSON-able form of a plan; inverse of :func:`plan_from_payload`."""
    return {
        "view": plan.view,
        "title": plan.title,
        "headers": list(plan.headers),
        "summary": dict(plan.summary),
        "show_seconds": plan.show_seconds,
        "extras": {key: (list(value) if isinstance(value, tuple) else value)
                   for key, value in plan.extras.items()},
        "cells": [
            {
                "key": list(cell.key),
                "cell_id": cell.cell_id,
                "kind": cell.kind,
                "row": list(cell.row),
                "loss": cell.loss,
                "sampler": cell.sampler,
                "eval_kwargs": dict(cell.eval_kwargs),
            }
            for cell in plan.cells
        ],
    }


def plan_from_payload(payload):
    """Rebuild the rendering-relevant half of a plan from JSON.

    Cell ``overrides`` and the prewarm list are deliberately dropped:
    a stored plan only ever renders recorded results, it never
    re-executes cells.
    """
    cells = tuple(
        MatrixCell(
            key=tuple(entry["key"]),
            cell_id=entry["cell_id"],
            kind=entry["kind"],
            row=tuple(entry["row"]),
            loss=entry["loss"],
            sampler=entry["sampler"],
            eval_kwargs=dict(entry.get("eval_kwargs", {})),
        )
        for entry in payload["cells"]
    )
    return MatrixPlan(
        view=payload["view"],
        title=payload["title"],
        headers=tuple(payload["headers"]),
        cells=cells,
        summary=dict(payload["summary"]),
        show_seconds=bool(payload["show_seconds"]),
        extras=dict(payload.get("extras", {})),
    )
