"""Mutation-hygiene rules.

numpy arrays are reference types: a function that mutates an argument in
place corrupts caller-owned data — and, when that array is already
recorded on the autograd tape, silently corrupts every gradient computed
from it (the runtime counterpart of these rules is
:func:`repro.tensor.detect_anomaly`).
"""

from __future__ import annotations

import ast
from collections import deque

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
        for node in ctx.of(ast.FunctionDef, ast.AsyncFunctionDef):
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

    Names are scoped per function: a nested function's parameters and
    the names it assigns shadow the enclosing function's, and a write in
    a nested function to a name it does not shadow is reported once,
    from the function whose parameter it mutates.
    """

    id = "MUT002"
    name = "parameter-inplace-mutation"
    description = "in-place mutation (subscript/augmented assign) of a parameter"

    def check(self, ctx):
        # Per function: its enclosing function, the names it binds, and
        # the parameters that still hold the caller's object.  Functions
        # come in walk order, so every enclosing function is scanned
        # before the functions nested in it.
        enclosing, bound, live = {}, {}, {}
        for func in ctx.of(ast.FunctionDef, ast.AsyncFunctionDef):
            assigned, writes = set(), []
            for node in _own_statements(func):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    enclosing[node] = func
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            assigned.add(target.id)
                        elif isinstance(target, ast.Subscript) \
                                and isinstance(target.value, ast.Name):
                            writes.append((target.value.id, target, _WRITE))
                elif isinstance(node, ast.AnnAssign) \
                        and isinstance(node.target, ast.Name):
                    assigned.add(node.target.id)
                elif isinstance(node, ast.AugAssign):
                    target = node.target
                    base = target.value if isinstance(target, ast.Subscript) \
                        else target
                    if isinstance(base, ast.Name):
                        writes.append((base.id, node, _AUGMENTED))
            params, checked = _parameters(func)
            bound[func] = params | assigned
            # A param that is also plainly rebound (`x = x.copy()`, `x =
            # np.asarray(x)` ...) points at a function-local object by
            # the time it is written, so mutations of it are local.
            live[func] = checked - assigned
            for name, node, message in writes:
                scope = func
                while scope is not None and name not in bound[scope]:
                    scope = enclosing.get(scope)
                if scope is not None and name in live[scope]:
                    yield self.finding(ctx, node, message % name)


_WRITE = ("in-place write to parameter %r mutates the caller's array; "
          "copy before mutating")
_AUGMENTED = ("augmented assignment mutates parameter %r in place; copy "
              "before mutating")
_BLOCKS = ("body", "handlers", "orelse", "finalbody", "cases")


def _own_statements(func):
    """``func``'s statements at any block depth, in ``ast.walk`` order.

    Assignments are statements, so expressions are never visited; a
    nested function definition is yielded but not entered.
    """
    todo = deque(func.body)
    while todo:
        node = todo.popleft()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in _BLOCKS:
                todo.extend(getattr(node, field, ()))


def _parameters(func):
    """(every parameter name, the ones MUT002 checks): ``self``, ``cls``
    and ``**kwargs`` bind a name but are not checked."""
    args = func.args
    checked = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg:
        checked.add(args.vararg.arg)
    params = set(checked)
    if args.kwarg:
        params.add(args.kwarg.arg)
    return params, checked - {"self", "cls"}
