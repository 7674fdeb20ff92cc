"""Public-API discipline rules.

Samplers must validate their inputs at the public boundary, and each
module's ``__all__`` must agree with what the module actually defines —
drift in either direction means either unvalidated data entering the
pipeline or phantom/unreachable exports.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["SamplerValidationRule", "AllExportDriftRule", "UnusedNoqaRule"]


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


class AllExportDriftRule(Rule):
    """EXP001: ``__all__`` must match the module's public definitions.

    Flags names exported but never defined, and public top-level
    functions/classes defined but missing from an existing ``__all__``.
    """

    id = "EXP001"
    name = "all-export-drift"
    description = "__all__ disagrees with the module's top-level definitions"

    @staticmethod
    def _exported_names(tree):
        """Return (node, names) for a top-level ``__all__`` list/tuple."""
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        names = [
                            elt.value
                            for elt in node.value.elts
                            if isinstance(elt, ast.Constant)
                            and isinstance(elt.value, str)
                        ]
                        return node, names
        return None, None

    @staticmethod
    def _defined_names(tree):
        defined, defs_only = set(), set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
                defs_only.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    defined.add(node.target.id)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    defined.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    defined.add((alias.asname or alias.name).split(".")[0])
            elif isinstance(node, (ast.If, ast.Try)):
                # Conditional definitions (TYPE_CHECKING, optional deps).
                for sub in ast.walk(node):
                    if isinstance(
                        sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        defined.add(sub.name)
                    elif isinstance(sub, ast.ImportFrom):
                        for alias in sub.names:
                            defined.add(alias.asname or alias.name)
        return defined, defs_only

    def check(self, ctx):
        node, exported = self._exported_names(ctx.tree)
        if node is None:
            return
        defined, defs_only = self._defined_names(ctx.tree)
        for name in exported:
            if name not in defined and name != "*":
                yield self.finding(
                    ctx,
                    node,
                    "__all__ exports %r which is not defined in this module"
                    % name,
                )
        exported_set = set(exported)
        for name in sorted(defs_only):
            if not name.startswith("_") and name not in exported_set:
                yield self.finding(
                    ctx,
                    node,
                    "public definition %r is missing from __all__ (export it "
                    "or make it private)" % name,
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
