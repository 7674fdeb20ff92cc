"""FLOW-RNG: interprocedural RNG taint analysis.

The determinism contract of the sweep machinery (PRs 4–5) is that every
random draw is either threaded from an explicitly seeded generator or
derived from a task's position.  Per-file rules (RNG001/RNG002) ban the
obvious constructions, but taint *flows*: a helper in one module can
return an unseeded generator that another module hands to a sampler,
and a module-global generator — even a seeded one — is shared state
that makes results depend on call order across sweep cells and breaks
the pool's bit-identity guarantee.

Taint sources
    * ``np.random.default_rng()`` with no seed (and bare
      ``default_rng()``);
    * ``random.Random()`` / ``np.random.RandomState()`` with no seed;
    * ``np.random.Generator(PCG64())`` over an unseeded bit generator;
    * module-global generator objects (``rng = default_rng(...)`` at
      module scope), seeded or not — shared stream, order-dependent;
    * calls to any function whose summary says it returns one of the
      above (computed to fixpoint over the project call graph).

Sinks
    * arguments of ``fit_resample`` / ``_fit_resample`` / ``fit`` /
      ``finetune_classifier`` calls — sampler and trainer entry points;
    * arguments of ``parallel_map`` / ``run_cells``, plus free
      variables captured by the task closure handed to them;
    * the *bodies* of ``_fit_resample`` implementations reading a
      module-global generator directly.

Each finding names the source construction site (file:line) so the
cross-module flow is visible from the one-line message.
"""

from __future__ import annotations

import ast
from pathlib import Path

from ..engine import ProjectRule

__all__ = ["RngTaintRule"]

_NUMPY_ALIASES = {"np", "numpy"}
_UNSEEDED_CTORS = {"default_rng", "Random", "RandomState"}
_BITGEN_NAMES = {"PCG64", "Philox", "SFC64", "MT19937"}
_GLOBAL_RNG_CTORS = {"default_rng", "fresh_generator", "Random",
                     "RandomState", "Generator"}
_SINK_CALL_NAMES = {"fit_resample", "_fit_resample", "fit",
                    "finetune_classifier"}
_POOL_CANONICAL = {
    "repro.parallel.pool.parallel_map",
    "repro.parallel.cells.run_cells",
}
_POOL_NAMES = {"parallel_map", "run_cells"}


def _trailing_name(func):
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class _Taint:
    """Why a value is considered RNG-tainted, and where it came from."""

    __slots__ = ("kind", "describe", "site")

    def __init__(self, kind, describe, site):
        self.kind = kind          # "unseeded" | "global"
        self.describe = describe  # human-readable source description
        self.site = site          # "file.py:line"


def _site(module, node):
    return "%s:%d" % (Path(module.path).name, node.lineno)


def _unseeded_rng_call(node):
    """Taint description for an unseeded RNG constructor call, or None."""
    if not isinstance(node, ast.Call):
        return None
    name = _trailing_name(node.func)
    if name in _UNSEEDED_CTORS and not node.args and not node.keywords:
        return "unseeded %s()" % name
    if name == "Generator" and node.args:
        bitgen = node.args[0]
        if (
            isinstance(bitgen, ast.Call)
            and _trailing_name(bitgen.func) in _BITGEN_NAMES
            and not bitgen.args
            and not bitgen.keywords
        ):
            return "Generator over unseeded %s()" % _trailing_name(bitgen.func)
    return None


def _free_names(func_node):
    """Names a function reads but does not bind — its closure captures."""
    bound = set()
    args = func_node.args
    for a in (list(args.posonlyargs) + list(args.args)
              + list(args.kwonlyargs)):
        bound.add(a.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    loads = {}
    body = func_node.body if isinstance(func_node.body, list) \
        else [func_node.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    loads.setdefault(node.id, node)
                else:
                    bound.add(node.id)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(node.name)
    return {name: node for name, node in loads.items() if name not in bound}


class RngTaintRule(ProjectRule):
    """FLOW-RNG: unseeded or shared-global RNG reaching a determinism sink."""

    id = "FLOW-RNG"
    name = "rng-taint-flow"
    description = ("unseeded or module-global RNG flows into a sampler, "
                   "trainer, or parallel task (whole-program taint analysis)")
    severity = "error"

    # -- taint machinery -------------------------------------------------
    def _global_rngs(self, project):
        """{module_name: {global_name: _Taint}} for module-level RNGs."""
        table = {}
        for module in project.iter_modules():
            found = {}
            for name, gvar in module.globals.items():
                value = gvar.value
                if not isinstance(value, ast.Call):
                    continue
                ctor = _trailing_name(value.func)
                if ctor in _GLOBAL_RNG_CTORS:
                    found[name] = _Taint(
                        "global",
                        "module-global RNG %r (%s at %s)" % (
                            name, ctor, _site(module, value)
                        ),
                        _site(module, value),
                    )
            if found:
                table[module.name] = found
        return table

    def _taint_of(self, expr, env, module, project, summaries, globals_table):
        """Taint of an expression under a local taint environment."""
        if isinstance(expr, ast.Call):
            unseeded = _unseeded_rng_call(expr)
            if unseeded is not None:
                return _Taint("unseeded",
                              "%s at %s" % (unseeded, _site(module, expr)),
                              _site(module, expr))
            callee = project.resolve_call(module, expr)
            if callee is not None:
                inner = summaries.get(callee)
                if inner is not None:
                    return _Taint(
                        inner.kind,
                        "%s() which returns %s" % (
                            callee.rpartition(".")[2], inner.describe
                        ),
                        inner.site,
                    )
            return None
        if isinstance(expr, ast.Name):
            if expr.id in env:
                return env[expr.id]
            module_globals = globals_table.get(module.name, {})
            return module_globals.get(expr.id)
        if isinstance(expr, ast.Attribute):
            dotted = module.dotted_name(expr)
            if dotted is None:
                return None
            owner, _, symbol = dotted.rpartition(".")
            owner_module = project.modules.get(owner)
            if owner_module is not None:
                return globals_table.get(owner_module.name, {}).get(symbol)
        return None

    def _local_env(self, fn, module, project, summaries, globals_table):
        """Name → taint for a function body (iterated for copy chains)."""
        env = {}
        for _ in range(3):
            changed = False
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                taint = self._taint_of(node.value, env, module, project,
                                       summaries, globals_table)
                if taint is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) \
                            and target.id not in env:
                        env[target.id] = taint
                        changed = True
            if not changed:
                break
        return env

    def _summaries(self, project, globals_table):
        """Fixpoint: canonical name → taint of the function's return."""
        summaries = {}
        for _ in range(len(project.functions) + 1):
            changed = False
            for fn in project.iter_functions():
                if fn.qualname in summaries:
                    continue
                module = fn.module
                env = self._local_env(fn, module, project, summaries,
                                      globals_table)
                for node in ast.walk(fn.node):
                    if isinstance(node, ast.Return) and node.value is not None:
                        taint = self._taint_of(
                            node.value, env, module, project, summaries,
                            globals_table,
                        )
                        if taint is not None:
                            summaries[fn.qualname] = taint
                            changed = True
                            break
            if not changed:
                break
        return summaries

    # -- sinks -----------------------------------------------------------
    def _resolve_closure(self, expr, fn, module):
        """The FunctionDef/Lambda a callable argument refers to, or None."""
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

    def check_project(self, project):
        globals_table = self._global_rngs(project)
        summaries = self._summaries(project, globals_table)

        for fn in project.iter_functions():
            module = fn.module
            env = self._local_env(fn, module, project, summaries,
                                  globals_table)

            for site in fn.call_sites:
                call = site.node
                callee = site.callee
                trailing = _trailing_name(call.func)
                is_pool = callee in _POOL_CANONICAL or (
                    callee is None and trailing in _POOL_NAMES
                ) or (callee is not None
                      and callee.rpartition(".")[2] in _POOL_NAMES)
                is_sink_call = trailing in _SINK_CALL_NAMES or (
                    callee is not None
                    and callee.rpartition(".")[2] in _SINK_CALL_NAMES
                )
                if not (is_pool or is_sink_call):
                    continue
                sink_label = trailing or (callee or "").rpartition(".")[2]

                values = list(call.args) + [kw.value for kw in call.keywords]
                for value in values:
                    taint = self._taint_of(value, env, module, project,
                                           summaries, globals_table)
                    if taint is not None:
                        yield module.ctx.finding(
                            self.id,
                            value,
                            "RNG tainted by %s flows into %s(); thread a "
                            "seeded per-call generator instead"
                            % (taint.describe, sink_label),
                            severity=self.severity,
                        )

                if is_pool and call.args:
                    closure = self._resolve_closure(call.args[0], fn, module)
                    if closure is not None:
                        for name, load in sorted(_free_names(closure).items()):
                            taint = env.get(name) or globals_table.get(
                                module.name, {}
                            ).get(name)
                            if taint is not None:
                                yield module.ctx.finding(
                                    self.id,
                                    load,
                                    "task closure passed to %s() captures "
                                    "%s; workers must derive their own "
                                    "seeded generator from the task seed"
                                    % (sink_label, taint.describe),
                                    severity=self.severity,
                                )

            # Sampler bodies reading a module-global generator directly.
            if fn.name == "_fit_resample":
                module_globals = globals_table.get(module.name, {})
                if module_globals:
                    for node in ast.walk(fn.node):
                        if isinstance(node, ast.Name) \
                                and isinstance(node.ctx, ast.Load) \
                                and node.id in module_globals:
                            yield module.ctx.finding(
                                self.id,
                                node,
                                "_fit_resample() draws from %s; resampling "
                                "must use the sampler's own seeded generator"
                                % module_globals[node.id].describe,
                                severity=self.severity,
                            )
