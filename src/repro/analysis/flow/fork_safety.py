"""FLOW-FORK: fork-safety capture analysis for parallel task closures.

:func:`repro.parallel.parallel_map` forks its workers once per call,
and each worker runs many tasks; the task closure inherits the
parent's entire heap copy-on-write.  That makes three capture patterns
silently wrong:

* **open file handles** — parent and workers share the file offset,
  so interleaved reads/writes corrupt each other;
* **live telemetry objects** (``Tracer`` / ``MetricsRegistry``
  instances captured from the parent) — spans and counters recorded on
  the parent's object inside a worker never reach the parent; tasks
  must call ``get_tracer()``/``get_metrics()`` *inside* the task so the
  pool's merge protocol forwards them;
* **mutation of module globals** — a task's write to a module-level
  list/dict/set (or ``global`` rebind) never reaches the parent, and
  it leaks into every later task the same worker runs, so what a task
  sees depends on which tasks shared its worker.  Code that aggregates
  into a global under ``parallel_map`` only works serially, which is
  exactly the bit-identity-breaking divergence the pool exists to
  prevent.

The analysis resolves the task-function argument of every
``parallel_map``/``run_cells`` call (named local function, module
function, or inline lambda), computes its free variables, and
classifies each captured binding against the enclosing function's
locals and the module's globals.
"""

from __future__ import annotations

import ast

from ..engine import ProjectRule
from .rng_taint import _free_names, _trailing_name

__all__ = ["ForkSafetyRule"]

_POOL_CANONICAL = {
    "repro.parallel.pool.parallel_map",
    "repro.parallel.cells.run_cells",
}
_POOL_NAMES = {"parallel_map", "run_cells"}
_TELEMETRY_CTORS = {"Tracer", "MetricsRegistry", "get_tracer", "get_metrics"}
_MUTATOR_METHODS = {"append", "extend", "insert", "add", "update", "setdefault",
                    "pop", "popitem", "remove", "discard", "clear"}


def _is_open_call(node):
    return isinstance(node, ast.Call) and _trailing_name(node.func) == "open"


def _is_telemetry_call(node):
    return isinstance(node, ast.Call) \
        and _trailing_name(node.func) in _TELEMETRY_CTORS


def _mutated_names(func_node):
    """Names a function body writes through: subscript/attribute stores,
    augmented assigns, mutator method calls, and ``global`` rebinds."""
    mutated = {}
    body = func_node.body if isinstance(func_node.body, list) \
        else [func_node.body]
    declared_global = set()
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    base = target
                    while isinstance(base, (ast.Subscript, ast.Attribute)):
                        base = base.value
                    if isinstance(base, ast.Name) and base is not target:
                        mutated.setdefault(base.id, target)
                    elif isinstance(base, ast.Name) \
                            and base.id in declared_global:
                        mutated.setdefault(base.id, target)
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATOR_METHODS \
                    and isinstance(node.func.value, ast.Name):
                mutated.setdefault(node.func.value.id, node)
    for name in declared_global:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) \
                        else [node.target]
                    for target in targets:
                        if isinstance(target, ast.Name) and target.id == name:
                            mutated.setdefault(name, target)
    return mutated


class ForkSafetyRule(ProjectRule):
    """FLOW-FORK: fork-unsafe captures in parallel task closures."""

    id = "FLOW-FORK"
    name = "fork-safety"
    description = ("task closure handed to parallel_map/run_cells captures "
                   "an open file handle, a live telemetry object, or "
                   "mutates a module global")
    severity = "error"

    def _binding_of(self, name, enclosing, module):
        """The RHS a captured name was bound to: search the enclosing
        function's assignments first, then module globals."""
        if enclosing is not None:
            for node in ast.walk(enclosing.node):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name) \
                                and target.id == name:
                            return node.value, "local"
                elif isinstance(node, ast.withitem) \
                        and isinstance(node.optional_vars, ast.Name) \
                        and node.optional_vars.id == name:
                    return node.context_expr, "local"
        gvar = module.globals.get(name)
        if gvar is not None:
            return gvar.value, "global"
        return None, None

    def _check_closure(self, closure, enclosing, module, sink_label):
        free = _free_names(closure)
        mutated = _mutated_names(closure)
        for name in sorted(free):
            load = free[name]
            value, scope = self._binding_of(name, enclosing, module)
            if value is not None and _is_open_call(value):
                yield module.ctx.finding(
                    self.id,
                    load,
                    "task closure passed to %s() captures open file handle "
                    "%r; forked children share its offset — open the file "
                    "inside the task" % (sink_label, name),
                    severity=self.severity,
                )
            elif value is not None and _is_telemetry_call(value) \
                    and scope == "local":
                yield module.ctx.finding(
                    self.id,
                    load,
                    "task closure passed to %s() captures live telemetry "
                    "object %r from the parent; call get_tracer()/"
                    "get_metrics() inside the task so the pool can merge "
                    "worker telemetry" % (sink_label, name),
                    severity=self.severity,
                )
        for name in sorted(mutated):
            if name not in free:
                continue  # bound inside the closure — shadows any global
            gvar = module.globals.get(name)
            if gvar is None or not gvar.is_mutable_literal():
                continue
            yield module.ctx.finding(
                self.id,
                mutated[name],
                "task closure passed to %s() mutates module global %r; "
                "the parent never sees a worker's writes, and later tasks "
                "on that worker do — return the value and aggregate in "
                "the parent" % (sink_label, name),
                severity=self.severity,
            )

    def check_project(self, project):
        for fn in project.iter_functions():
            module = fn.module
            for site in fn.call_sites:
                call = site.node
                callee = site.callee
                trailing = _trailing_name(call.func)
                short = (callee or "").rpartition(".")[2]
                if not (callee in _POOL_CANONICAL or short in _POOL_NAMES
                        or (callee is None and trailing in _POOL_NAMES)):
                    continue
                sink_label = trailing or short
                if not call.args:
                    continue
                closures = []
                head = self._resolve_callable(call.args[0], fn, module)
                if head is not None:
                    closures.append(head)
                for value in list(call.args[1:]) + [
                    kw.value for kw in call.keywords
                ]:
                    # run_cells-style (cell_id, thunk) task lists: scan
                    # container expressions for inline lambdas / names.
                    for node in ast.walk(value):
                        if isinstance(node, ast.Lambda):
                            closures.append(node)
                for closure in closures:
                    yield from self._check_closure(closure, fn, module,
                                                  sink_label)

    def _resolve_callable(self, expr, fn, module):
        if isinstance(expr, ast.Lambda):
            return expr
        if not isinstance(expr, ast.Name):
            return None
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.name == expr.id:
                return node
        target = module.functions.get(expr.id)
        return target.node if target is not None else None
