"""Rule registry for the repro lint engine.

``all_rules()`` returns one fresh instance of every registered rule: one
per class in ``RULE_CLASSES``, then one :class:`ConfinementRule` per row
of ``CONFINEMENTS``.  Add a new rule by importing its class and
appending it to ``RULE_CLASSES``.  To confine an API to the module that
owns it ("only module Y may use API X"), add a ``Confinement`` row to
``CONFINEMENTS`` in :mod:`.confinement` instead: an id, name and
description, the home package (``"serve/"``) or module
(``"serve/journal.py"``), the banned import prefixes and calls, and the
one-line reason every finding carries.
"""

from __future__ import annotations

from ..flow import DtypeFlowRule, ForkSafetyRule, RngTaintRule
from .api import AllExportDriftRule, SamplerValidationRule, UnusedNoqaRule
from .autograd import MissingNoGradRule, TapeDataEscapeRule, TensorDtypeRule
from .confinement import CONFINEMENTS, ConfinementRule
from .mutation import MutableDefaultRule, ParamInPlaceMutationRule
from .resilience import NonAtomicArtifactWriteRule, SwallowedExceptionRule
from .rng import BareNumpyRandomRule, UnseededGeneratorRule

__all__ = [
    "CONFINEMENTS",
    "RULE_CLASSES",
    "all_rules",
    "rule_index",
    "AllExportDriftRule",
    "SamplerValidationRule",
    "UnusedNoqaRule",
    "MissingNoGradRule",
    "TapeDataEscapeRule",
    "TensorDtypeRule",
    "ConfinementRule",
    "MutableDefaultRule",
    "ParamInPlaceMutationRule",
    "NonAtomicArtifactWriteRule",
    "SwallowedExceptionRule",
    "BareNumpyRandomRule",
    "UnseededGeneratorRule",
    "DtypeFlowRule",
    "ForkSafetyRule",
    "RngTaintRule",
]

RULE_CLASSES = (
    BareNumpyRandomRule,    # RNG001
    UnseededGeneratorRule,  # RNG002
    MutableDefaultRule,     # MUT001
    ParamInPlaceMutationRule,  # MUT002
    MissingNoGradRule,      # GRAD001
    TapeDataEscapeRule,     # TAPE001
    TensorDtypeRule,        # DTYPE001
    SamplerValidationRule,  # VAL001
    NonAtomicArtifactWriteRule,  # RES001
    SwallowedExceptionRule,      # RES002
    AllExportDriftRule,     # EXP001
    UnusedNoqaRule,         # NOQA001
    RngTaintRule,           # FLOW-RNG (whole-program)
    DtypeFlowRule,          # FLOW-DTYPE (whole-program)
    ForkSafetyRule,         # FLOW-FORK (whole-program)
)


def all_rules():
    """Fresh instances of every registered rule."""
    return ([cls() for cls in RULE_CLASSES]
            + [ConfinementRule(row) for row in CONFINEMENTS])


def rule_index():
    """Mapping of rule id -> (name, description, severity)."""
    return {rule.id: (rule.name, rule.description, rule.severity)
            for rule in all_rules()}
