"""Whole-program dataflow analysis for the repro lint engine.

This package gives :class:`repro.analysis.LintEngine` an interprocedural
layer: the engine parses the whole tree once, builds one
:class:`ProjectModel` (module symbol tables + canonical call
resolution) from its module contexts, and runs
:class:`DtypeFlowRule` (**FLOW-DTYPE**) over it — abstract
interpretation over the ``{weak, int, float32, float64, unknown}``
dtype lattice, flagging silent float64 promotions and implicit-width
allocations on the autograd hot path.

``repro-lint --select FLOW src tests`` runs it project-wide in one
invocation.
"""

from __future__ import annotations

from .dtype_infer import DtypeFlowRule
from .project import FunctionInfo, ModuleInfo, ProjectModel, module_name_for

__all__ = [
    "DtypeFlowRule",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectModel",
    "module_name_for",
]
