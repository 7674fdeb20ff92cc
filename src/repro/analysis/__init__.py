"""Static analysis for the reproduction: the ``repro-lint`` engine.

* :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` — an
  AST-based lint engine with repro-specific per-file rules (RNG
  discipline, tape hygiene, sampler validation, and the confinement
  table that pins each owned API to its module).
* :mod:`repro.analysis.flow` — the whole-program ``FLOW-DTYPE``
  dataflow analysis, built on a project-wide symbol table with
  canonical call resolution.  Run everything as
  ``python -m repro.analysis [--strict] src/`` or via the
  ``repro-lint`` console script.

Nothing in the runtime imports this package.  The runtime half of the
tooling, the opt-in ``detect_anomaly()`` tape sanitizer, lives with the
autograd engine in :mod:`repro.tensor.anomaly`.
"""

from .engine import (
    Finding,
    LintEngine,
    LintReport,
    ModuleContext,
    ProjectRule,
    Rule,
)
from .flow import ProjectModel
from .rules import RULE_CLASSES, all_rules, rule_index

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleContext",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "RULE_CLASSES",
    "all_rules",
    "rule_index",
]
