"""Autograd-tape hygiene rules.

These rules encode the safety conventions of the hand-rolled tape engine
in :mod:`repro.tensor`: inference code must not record tape nodes, and
``.data`` buffers must not escape into persisted state without a copy.
"""

from __future__ import annotations

import ast
import re

from ..engine import Rule

__all__ = ["MissingNoGradRule", "TapeDataEscapeRule"]

_EVAL_NAME_RE = re.compile(
    r"^(predict|evaluate|extract_features|extract_embeddings|infer|inference)"
)
_MODEL_NAMES = {"model", "net", "network", "classifier", "encoder", "decoder",
                "extractor", "backbone"}
_PERSIST_NAMES = re.compile(r"(^|_)(save|savez|savez_compressed|dump|tofile)($|_)")


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


class TapeDataEscapeRule(Rule):
    """TAPE001: no raw ``.data`` buffers into persistence calls.

    ``Tensor.data`` shares memory with the live tape.  Handing it to
    ``np.save*``/``pickle.dump`` persists a view that later in-place
    updates (optimizer steps) will have mutated.  Persist a copy.
    """

    id = "TAPE001"
    name = "tape-data-escape"
    description = ("raw Tensor .data passed to a save/dump call; persist "
                   ".data.copy() instead")
    severity = "error"

    def check(self, ctx):
        for node in ctx.of(ast.Call):
            name = _call_name(node.func)
            if name is None or not _PERSIST_NAMES.search(name):
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            for value in values:
                if isinstance(value, ast.Attribute) and value.attr == "data":
                    yield self.finding(
                        ctx,
                        value,
                        "raw .data buffer passed to %s(); it aliases the live "
                        "tape — persist .data.copy()" % name,
                    )

