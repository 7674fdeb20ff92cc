"""Public-API discipline rules.

Samplers must validate their inputs at the public boundary, and every
suppression comment must still suppress something.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["SamplerValidationRule", "UnusedNoqaRule"]


class SamplerValidationRule(Rule):
    """VAL001: ``fit_resample`` must validate or delegate.

    Every public sampler entry point either calls ``validate_xy`` on its
    inputs or delegates to another ``fit_resample`` (which does).
    """

    id = "VAL001"
    name = "sampler-missing-validation"
    description = ("fit_resample neither calls validate_xy nor delegates to "
                   "another fit_resample")

    def check(self, ctx):
        for node in ctx.of(ast.FunctionDef):
            if node.name != "fit_resample":
                continue
            validated = False
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Call):
                    continue
                func = inner.func
                name = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if name in ("validate_xy", "fit_resample", "_validate_xy"):
                    validated = True
                    break
            if not validated:
                yield self.finding(
                    ctx,
                    node,
                    "fit_resample must call validate_xy (or delegate to a "
                    "validating fit_resample) before touching X/y",
                )


class UnusedNoqaRule(Rule):
    """NOQA001: every ``# repro: noqa`` must suppress a real finding.

    The check itself runs inside the engine (it needs the post-
    suppression view of all other rules); this class exists so the rule
    can be listed, selected and disabled like any other.
    """

    id = "NOQA001"
    name = "unused-noqa"
    description = "suppression comment that does not match any finding"
    severity = "warning"

    def check(self, ctx):
        return iter(())
