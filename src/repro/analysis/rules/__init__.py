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

from .api import SamplerValidationRule, UnusedNoqaRule
from .autograd import MissingNoGradRule
from .confinement import CONFINEMENTS, ConfinementRule
from .dtype import DtypeFlowRule
from .mutation import MutableDefaultRule, ParamInPlaceMutationRule
from .resilience import NonAtomicArtifactWriteRule, SwallowedExceptionRule
from .rng import BareNumpyRandomRule, UnseededGeneratorRule

__all__ = [
    "CONFINEMENTS",
    "RULE_CLASSES",
    "all_rules",
    "rule_index",
    "SamplerValidationRule",
    "UnusedNoqaRule",
    "MissingNoGradRule",
    "ConfinementRule",
    "MutableDefaultRule",
    "ParamInPlaceMutationRule",
    "NonAtomicArtifactWriteRule",
    "SwallowedExceptionRule",
    "BareNumpyRandomRule",
    "UnseededGeneratorRule",
    "DtypeFlowRule",
]

# Each rule and the tier-1 guarantee it guards.
RULE_CLASSES = (
    # RNG001: no global RNG state: serial == workers, golden digests
    BareNumpyRandomRule,
    # RNG002: every Generator is seeded: serial == workers, golden digests
    UnseededGeneratorRule,
    # MUT001: no state carried between cells in a worker: serial == workers
    MutableDefaultRule,
    # MUT002: cells leave the shared phase-1 embeddings intact: golden digests
    ParamInPlaceMutationRule,
    # GRAD001 (perf guard): inference records no tape; the work ledger
    # cannot see a tape (profile_ops counts every forward op either way)
    MissingNoGradRule,
    # VAL001: samplers reject NaN/Inf (test_samplers_reject_nan_embeddings)
    SamplerValidationRule,
    # RES001: no torn artifact on a kill: kill/resume, no lost or extra rows
    NonAtomicArtifactWriteRule,
    # RES002: kills and divergences reach the retry layer: kill/resume
    SwallowedExceptionRule,
    # NOQA001: every suppression in the lint gate still suppresses something
    UnusedNoqaRule,
    # FLOW-DTYPE: allocations follow the float32 default (TestTreeDtypeFixes)
    DtypeFlowRule,
)


def all_rules():
    """Fresh instances of every registered rule."""
    return ([cls() for cls in RULE_CLASSES]
            + [ConfinementRule(row) for row in CONFINEMENTS])


def rule_index():
    """Mapping of rule id -> (name, description, severity)."""
    return {rule.id: (rule.name, rule.description, rule.severity)
            for rule in all_rules()}
