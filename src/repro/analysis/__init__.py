"""Static analysis for the reproduction: the ``repro-lint`` engine.

:mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` — an
AST-based lint engine whose rules check one module at a time: RNG
discipline, tape hygiene, sampler validation, the confinement table
that pins each owned API to its module, and the ``FLOW-DTYPE`` dtype
dataflow analysis.  Run everything as
``python -m repro.analysis [--strict] src/`` or via the ``repro-lint``
console script.

Nothing in the runtime imports this package.  The runtime half of the
tooling, the opt-in ``detect_anomaly()`` tape sanitizer, lives with the
autograd engine in :mod:`repro.tensor.anomaly`.
"""

from .engine import (
    Finding,
    LintEngine,
    LintReport,
    ModuleContext,
    Rule,
)
from .rules import RULE_CLASSES, all_rules, rule_index

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleContext",
    "Rule",
    "RULE_CLASSES",
    "all_rules",
    "rule_index",
]
