"""FLOW-DTYPE: abstract interpretation over the dtype lattice.

The float32 migration of the tensor substrate (ROADMAP: "make the
tensor substrate fast") needs a pre-flight guarantee: no op on the
autograd hot path silently promotes to float64, and no allocation
relies on numpy's implicit float64 default.  This analysis abstractly
interprets every top-level function and class method of a module over
the lattice::

    weak  <  int  <  float32  <  float64        (join = promotion)
                       unknown = top

A call to anything but a known numpy constructor, a numpy scalar type
or ``.astype`` infers ``unknown``.

Three finding shapes:

* **mix promotion** — a binary op joins a ``float32`` value with a
  ``float64`` value: numpy silently widens, gradients flow back at the
  wrong width, and the float32 migration will change numerics here.
* **implicit float64 allocation** — ``np.zeros/ones/empty/full/
  linspace`` without an explicit ``dtype=`` whose result either feeds
  a ``Tensor``/``Parameter``/``register_buffer`` construction or is
  returned from a hot-path module (``repro.tensor``, ``repro.nn``).
  Passing ``dtype=`` makes every default-width decision explicit
  before the default flips.
* **float64 signature default** — a hot-path function signature pins
  ``dtype=np.float64`` (or ``"float64"`` / ``np.double``) as a
  parameter default.  Such defaults bypass the switchable substrate
  default entirely: callers keep allocating wide even after the
  float32 migration.  The fix is ``dtype=None`` resolved against
  ``repro.tensor.default_dtype()`` in the body (the ``one_hot``
  float64 default hid exactly this way until the migration).
"""

from __future__ import annotations

import ast
from pathlib import Path

from ..engine import Rule

__all__ = ["DtypeFlowRule", "module_name_for"]

WEAK = "weak"          # python scalar: adopts the other operand's dtype
INT = "int"
F32 = "float32"
F64 = "float64"
UNKNOWN = "unknown"

_NUMPY_ALIASES = {"np", "numpy"}
_IMPLICIT_F64_ALLOCS = {"zeros", "ones", "empty", "full", "linspace"}
_F32_NAMES = {"float32", "float16", "half", "single"}
_F64_NAMES = {"float64", "double"}
_INT_NAMES = {"int8", "int16", "int32", "int64", "uint8", "intp", "int_"}
_TENSOR_SINKS = {"Tensor", "Parameter", "register_buffer"}


def module_name_for(path):
    """Dotted module name for a file, walking up ``__init__.py`` packages.

    Source that is not a file (``check_source``'s ``<string>``) is a
    loose module, whatever directory the lint runs from."""
    p = Path(path).resolve()
    if not p.is_file():
        return p.stem
    parts = [] if p.name == "__init__.py" else [p.stem]
    d = p.parent
    while (d / "__init__.py").exists():
        parts.insert(0, d.name)
        parent = d.parent
        if parent == d:
            break
        d = parent
    return ".".join(parts) if parts else p.stem


def _is_hot_module(name):
    """Hot-path scope: the autograd substrate, plus loose (package-less)
    modules so fixture trees exercise the rule."""
    return name.startswith(("repro.tensor", "repro.nn")) or "." not in name


def _functions(tree):
    """The module's top-level functions and the methods of its top-level
    classes; a nested function is part of its parent's walk."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, defs))


def _numpy_imports(tree):
    """Bare names that the module's top-level ``from numpy import
    <name>`` binds to numpy's own ``<name>`` (a later ``from ...
    import`` of the same name rebinds it)."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                local = alias.asname or alias.name
                bound[local] = (node.level == 0 and node.module == "numpy"
                                and alias.name == local)
    return {name for name, from_numpy in bound.items() if from_numpy}


class _DVal:
    """Abstract value: a lattice dtype plus the allocation node that
    made it implicitly float64 (None when the width was explicit)."""

    __slots__ = ("dtype", "implicit")

    def __init__(self, dtype, implicit=None):
        self.dtype = dtype
        self.implicit = implicit


_UNKNOWN = _DVal(UNKNOWN)
_WEAK = _DVal(WEAK)


def _join(a, b):
    """Lattice join, mirroring numpy promotion (NEP 50 weak scalars)."""
    if a.dtype == UNKNOWN or b.dtype == UNKNOWN:
        return _UNKNOWN
    if a.dtype == WEAK:
        return b
    if b.dtype == WEAK:
        return a
    if a.dtype == b.dtype:
        return _DVal(a.dtype, a.implicit or b.implicit)
    order = {INT: 0, F32: 1, F64: 2}
    wider = a if order.get(a.dtype, 2) >= order.get(b.dtype, 2) else b
    return _DVal(wider.dtype, wider.implicit)


def _trailing_name(func):
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _dtype_from_annotation(node):
    """Lattice dtype named by a dtype expression (np.float32, "float64")."""
    name = None
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    if name in _F32_NAMES:
        return F32
    if name in _F64_NAMES:
        return F64
    if name in _INT_NAMES:
        return INT
    return UNKNOWN


def _is_numpy_func(func, numpy_imports, names):
    """True for ``np.<name>`` / ``numpy.<name>`` / ``from numpy import
    <name>`` calls (and not a same-named module function)."""
    trailing = _trailing_name(func)
    if trailing not in names:
        return False
    if isinstance(func, ast.Attribute):
        return (isinstance(func.value, ast.Name)
                and func.value.id in _NUMPY_ALIASES)
    return trailing in numpy_imports


class DtypeFlowRule(Rule):
    """FLOW-DTYPE: silent float64 promotion / implicit-width allocation."""

    id = "FLOW-DTYPE"
    name = "dtype-flow"
    description = ("abstract dtype interpretation: float32/float64 mix "
                   "promotions and implicit float64 allocations on the "
                   "autograd hot path")
    severity = "error"

    # -- abstract evaluation --------------------------------------------
    def _infer(self, expr, env, numpy_imports):
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, bool):
                return _UNKNOWN
            if isinstance(expr.value, (int, float)):
                return _WEAK
            return _UNKNOWN
        if isinstance(expr, ast.Name):
            return env.get(expr.id, _UNKNOWN)
        if isinstance(expr, ast.UnaryOp):
            return self._infer(expr.operand, env, numpy_imports)
        if isinstance(expr, ast.BinOp):
            left = self._infer(expr.left, env, numpy_imports)
            right = self._infer(expr.right, env, numpy_imports)
            return _join(left, right)
        if isinstance(expr, ast.Subscript):
            return self._infer(expr.value, env, numpy_imports)
        if isinstance(expr, ast.Call):
            return self._infer_call(expr, numpy_imports)
        if isinstance(expr, ast.IfExp):
            return _join(
                self._infer(expr.body, env, numpy_imports),
                self._infer(expr.orelse, env, numpy_imports),
            )
        return _UNKNOWN

    def _infer_call(self, call, numpy_imports):
        trailing = _trailing_name(call.func)
        if trailing == "astype":
            if call.args:
                return _DVal(_dtype_from_annotation(call.args[0]))
            for kw in call.keywords:
                if kw.arg == "dtype":
                    return _DVal(_dtype_from_annotation(kw.value))
            return _UNKNOWN
        if trailing in _F32_NAMES and _is_numpy_func(
                call.func, numpy_imports, _F32_NAMES):
            return _DVal(F32)
        if trailing in _F64_NAMES and _is_numpy_func(
                call.func, numpy_imports, _F64_NAMES):
            return _DVal(F64)
        if _is_numpy_func(call.func, numpy_imports, _IMPLICIT_F64_ALLOCS):
            for kw in call.keywords:
                if kw.arg == "dtype":
                    return _DVal(_dtype_from_annotation(kw.value))
            return _DVal(F64, implicit=call)
        if _is_numpy_func(call.func, numpy_imports, {"arange"}):
            for kw in call.keywords:
                if kw.arg == "dtype":
                    return _DVal(_dtype_from_annotation(kw.value))
            return _DVal(INT)
        return _UNKNOWN

    def _local_env(self, nodes, numpy_imports):
        env = {}
        for _ in range(3):
            changed = False
            for node in nodes:
                if not isinstance(node, ast.Assign):
                    continue
                value = self._infer(node.value, env, numpy_imports)
                if value.dtype == UNKNOWN:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name) \
                            and target.id not in env:
                        env[target.id] = value
                        changed = True
            if not changed:
                break
        return env

    def _signature_defaults(self, ctx, fn):
        """Findings for float64-pinned parameter defaults in hot modules."""
        args = fn.args
        positional = args.posonlyargs + args.args
        paired = list(
            zip(positional[len(positional) - len(args.defaults):],
                args.defaults)
        )
        paired += [
            (arg, default)
            for arg, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
        for arg, default in paired:
            if not isinstance(default, (ast.Attribute, ast.Name, ast.Constant)):
                continue
            if _dtype_from_annotation(default) != F64:
                continue
            yield self.finding(
                ctx,
                default,
                "signature default pins %r to float64, bypassing the "
                "switchable substrate default; use None and resolve "
                "default_dtype() in the body" % arg.arg,
            )

    # -- rule body -------------------------------------------------------
    def check(self, ctx):
        hot = _is_hot_module(module_name_for(ctx.path))
        numpy_imports = _numpy_imports(ctx.tree)
        for fn in _functions(ctx.tree):
            yield from self._check_function(ctx, fn, hot, numpy_imports)

    def _check_function(self, ctx, fn, hot, numpy_imports):
        nodes = list(ast.walk(fn))
        env = self._local_env(nodes, numpy_imports)
        flagged_allocs = set()

        if hot:
            yield from self._signature_defaults(ctx, fn)

        for node in nodes:
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                if isinstance(node, ast.AugAssign):
                    left = env.get(node.target.id, _UNKNOWN) \
                        if isinstance(node.target, ast.Name) else _UNKNOWN
                    right = self._infer(node.value, env, numpy_imports)
                else:
                    left = self._infer(node.left, env, numpy_imports)
                    right = self._infer(node.right, env, numpy_imports)
                if {left.dtype, right.dtype} == {F32, F64}:
                    yield self.finding(
                        ctx,
                        node,
                        "float32 operand meets float64 operand; numpy "
                        "silently promotes — align dtypes explicitly "
                        "before the float32 migration flips defaults",
                    )
            elif isinstance(node, ast.Call):
                trailing = _trailing_name(node.func)
                if trailing not in _TENSOR_SINKS:
                    continue
                for value in list(node.args) + [
                    kw.value for kw in node.keywords
                ]:
                    inferred = self._infer(value, env, numpy_imports)
                    alloc = inferred.implicit
                    if alloc is None or id(alloc) in flagged_allocs:
                        continue
                    flagged_allocs.add(id(alloc))
                    yield self.finding(
                        ctx,
                        alloc,
                        "implicit float64 allocation flows into %s(); "
                        "pass an explicit dtype so the float32 "
                        "migration can retarget it" % trailing,
                    )
            elif isinstance(node, ast.Return) and node.value is not None \
                    and hot:
                inferred = self._infer(node.value, env, numpy_imports)
                alloc = inferred.implicit
                if alloc is None or id(alloc) in flagged_allocs:
                    continue
                flagged_allocs.add(id(alloc))
                yield self.finding(
                    ctx,
                    alloc,
                    "hot-path function %r returns an implicit float64 "
                    "allocation; pass an explicit dtype" % fn.name,
                )
