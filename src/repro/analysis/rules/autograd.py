"""Autograd-tape hygiene rule.

Inference code must not record tape nodes in the hand-rolled tape
engine of :mod:`repro.tensor`.
"""

from __future__ import annotations

import ast
import re

from ..engine import Rule

__all__ = ["MissingNoGradRule"]

_EVAL_NAME_RE = re.compile(
    r"^(predict|evaluate|extract_features|extract_embeddings|infer|inference)"
)
_MODEL_NAMES = {"model", "net", "network", "classifier", "encoder", "decoder",
                "extractor", "backbone"}


def _call_name(func):
    """Trailing identifier of a call target (``a.b.c(...)`` -> ``c``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class MissingNoGradRule(Rule):
    """GRAD001: eval/inference paths must run under ``no_grad``.

    A ``predict``/``evaluate``/``extract_*`` function that invokes a
    model forward pass without ``with no_grad():`` records a full tape
    per batch — silently multiplying inference memory and walking the
    graph on the next ``backward``.
    """

    id = "GRAD001"
    name = "missing-no-grad"
    description = ("eval/inference function runs a model forward pass outside "
                   "a no_grad() block")
    severity = "error"

    @staticmethod
    def _is_forward_call(node):
        """Model-invocation heuristics: ``self.model(x)``, ``model(x)``,
        ``anything.forward(x)``."""
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr == "forward":
                return True
            return func.attr in _MODEL_NAMES and isinstance(func.value, ast.Name)
        if isinstance(func, ast.Name):
            return func.id in _MODEL_NAMES
        return False

    @staticmethod
    def _has_no_grad(func_node):
        for node in ast.walk(func_node):
            if isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        expr = expr.func
                    name = _call_name(expr)
                    if name == "no_grad":
                        return True
        return False

    def check(self, ctx):
        for node in ctx.of(ast.FunctionDef):
            if not _EVAL_NAME_RE.match(node.name):
                continue
            forward_calls = [
                n
                for n in ast.walk(node)
                if isinstance(n, ast.Call) and self._is_forward_call(n)
            ]
            if forward_calls and not self._has_no_grad(node):
                yield self.finding(
                    ctx,
                    forward_calls[0],
                    "%r runs a model forward pass without no_grad(); inference "
                    "must not record tape nodes" % node.name,
                )
