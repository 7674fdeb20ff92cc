"""Mutation-hygiene rules.

numpy arrays are reference types: a function that mutates an argument in
place corrupts caller-owned data — and, when that array is already
recorded on the autograd tape, silently corrupts every gradient computed
from it (the runtime counterpart of these rules is
:func:`repro.tensor.detect_anomaly`).
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["MutableDefaultRule", "ParamInPlaceMutationRule"]

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict"}


class MutableDefaultRule(Rule):
    """MUT001: no mutable default arguments.

    A mutable default is created once at definition time and shared by
    every call — classic source of state leaking across experiments.
    """

    id = "MUT001"
    name = "mutable-default-argument"
    description = "mutable default argument (list/dict/set literal or constructor)"

    @staticmethod
    def _is_mutable(node):
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            return name in _MUTABLE_CALLS
        return False

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        "mutable default argument in %r; use None and "
                        "initialise inside the function" % node.name,
                    )


class ParamInPlaceMutationRule(Rule):
    """MUT002: no in-place mutation of function parameters.

    ``x[...] = v`` or ``x += v`` on a bare parameter name writes through
    to the caller's array.  Copy first (``x = x.copy()``) or document the
    contract with a noqa justification.
    """

    id = "MUT002"
    name = "parameter-inplace-mutation"
    description = "in-place mutation (subscript/augmented assign) of a parameter"

    def check(self, ctx):
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = {
                a.arg
                for a in (
                    list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
                )
            }
            params.discard("self")
            params.discard("cls")
            if args.vararg:
                params.add(args.vararg.arg)
            yield from self._check_body(ctx, node, params)

    def _check_body(self, ctx, func, params):
        # A param that is also plainly rebound (`x = x.copy()`, `x =
        # np.asarray(x)` ...) points at a function-local object by the
        # time it is written, so mutations of it are considered local.
        rebound = set()
        body_nodes = []
        for node in ast.walk(func):
            if node is func or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            body_nodes.append(node)
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        rebound.add(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                rebound.add(node.target.id)

        live = params - rebound
        for node in body_nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        base = target.value
                        if isinstance(base, ast.Name) and base.id in live:
                            yield self.finding(
                                ctx,
                                target,
                                "in-place write to parameter %r mutates the "
                                "caller's array; copy before mutating" % base.id,
                            )
            elif isinstance(node, ast.AugAssign):
                target = node.target
                base = target.value if isinstance(target, ast.Subscript) else target
                if isinstance(base, ast.Name) and base.id in live:
                    yield self.finding(
                        ctx,
                        node,
                        "augmented assignment mutates parameter %r in place; "
                        "copy before mutating" % base.id,
                    )
