"""Whole-program model: module symbol tables and call resolution.

FLOW-DTYPE (:mod:`repro.analysis.flow`) asks *what does this call
return*, across modules, so the engine builds one :class:`ProjectModel`
from the :class:`~repro.analysis.engine.ModuleContext` of every
parseable file:

* a :class:`ModuleInfo` per file, with its import table (alias →
  dotted target, relative imports resolved against the module's
  package), its top-level functions/methods as :class:`FunctionInfo`
  records, and the names of its classes and module-level globals;
* callees resolved to *canonical* dotted names, following re-export
  chains (``from .pool import parallel_map`` in
  ``repro.parallel/__init__`` makes ``repro.parallel.parallel_map``
  canonicalise to ``repro.parallel.pool.parallel_map``).

Module names are derived from the filesystem: a file inside nested
``__init__.py`` packages gets its real dotted path (``src/repro/nn/
layers.py`` → ``repro.nn.layers``); a loose file (test fixture trees)
is just its stem.  Resolution is best-effort and static — dynamic
dispatch, ``getattr`` and star imports resolve to ``None`` and the
analysis treats those calls as opaque.
"""

from __future__ import annotations

import ast
from pathlib import Path

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "ProjectModel",
    "module_name_for",
]


def module_name_for(path):
    """Dotted module name for a file, walking up ``__init__.py`` packages."""
    p = Path(path).resolve()
    parts = [] if p.name == "__init__.py" else [p.stem]
    d = p.parent
    while (d / "__init__.py").exists():
        parts.insert(0, d.name)
        parent = d.parent
        if parent == d:
            break
        d = parent
    return ".".join(parts) if parts else p.stem


class FunctionInfo:
    """A function or method definition and its nodes in ``ast.walk``
    order: walked once, then read by every pass of FLOW-DTYPE."""

    __slots__ = ("module", "node", "name", "qualname", "nodes")

    def __init__(self, module, node, class_name=None):
        self.module = module
        self.node = node
        self.name = node.name
        local = "%s.%s" % (class_name, node.name) if class_name else node.name
        self.qualname = "%s.%s" % (module.name, local)
        self.nodes = list(ast.walk(node))

    def __repr__(self):
        return "FunctionInfo(%s)" % self.qualname


class ModuleInfo:
    """Symbol table for one parsed module."""

    def __init__(self, name, ctx):
        self.name = name
        self.ctx = ctx
        self.imports = {}      # local alias -> dotted target
        self.functions = {}    # "f" / "Cls.m" -> FunctionInfo
        self.classes = set()   # class names
        self.globals = set()   # names bound at module scope
        self._index_top_level()

    # -- symbol table ---------------------------------------------------
    def _package(self):
        """Dotted package containing this module."""
        if Path(self.ctx.path).name == "__init__.py":
            return self.name
        return self.name.rpartition(".")[0]

    def _index_top_level(self):
        for node in self.ctx.tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".", 1)[0]
                        self.imports[head] = head
            elif isinstance(node, ast.ImportFrom):
                base = self._resolve_from_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    target = "%s.%s" % (base, alias.name) if base else alias.name
                    self.imports[local] = target
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = FunctionInfo(self, node)
            elif isinstance(node, ast.ClassDef):
                self.classes.add(node.name)
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        info = FunctionInfo(self, item,
                                            class_name=node.name)
                        self.functions["%s.%s" % (node.name, item.name)] = info
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.globals.add(target.id)

    def _resolve_from_base(self, node):
        """Dotted base module of a ``from X import ...`` statement."""
        if node.level == 0:
            return node.module
        package = self._package()
        parts = package.split(".") if package else []
        up = node.level - 1
        if up > len(parts):
            return None
        if up:
            parts = parts[:-up]
        if node.module:
            parts.append(node.module)
        return ".".join(parts) if parts else None

    # -- expression resolution ------------------------------------------
    def dotted_name(self, expr):
        """Resolve a Name/Attribute chain to a project dotted name.

        Returns None for locals, calls, and anything dynamic.
        """
        parts = []
        node = expr
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        if base in self.imports:
            return ".".join([self.imports[base]] + parts)
        if base in self.functions or base in self.classes \
                or base in self.globals:
            return ".".join([self.name, base] + parts)
        return None


class ProjectModel:
    """All modules of a run, with their functions by canonical name."""

    def __init__(self, modules):
        self.modules = modules                      # name -> ModuleInfo
        self.functions = {}                         # canonical -> FunctionInfo
        for module in modules.values():
            for info in module.functions.values():
                self.functions[info.qualname] = info
        self._canonical_cache = {}

    # -- construction ---------------------------------------------------
    @classmethod
    def build(cls, contexts):
        """Build from the engine's :class:`ModuleContext` of each
        parseable file (the engine reports syntax errors itself)."""
        modules = {}
        for ctx in sorted(contexts, key=lambda ctx: ctx.path):
            name = module_name_for(ctx.path)
            if name in modules:
                # Two files mapping to one dotted name (loose fixture
                # trees); keep both addressable via a path suffix.
                name = "%s@%s" % (name, ctx.path)
            modules[name] = ModuleInfo(name, ctx)
        return cls(modules)

    # -- canonicalisation -----------------------------------------------
    def canonical(self, dotted):
        """Follow re-export chains to the defining module's name.

        ``repro.parallel.parallel_map`` → ``repro.parallel.pool.
        parallel_map`` when ``repro.parallel/__init__`` re-exports it.
        """
        if dotted is None:
            return None
        if dotted in self._canonical_cache:
            return self._canonical_cache[dotted]
        seen, current = set(), dotted
        while current not in seen:
            seen.add(current)
            if current in self.functions:
                break
            redirected = self._follow_import(current)
            if redirected is None:
                break
            current = redirected
        self._canonical_cache[dotted] = current
        return current

    def _follow_import(self, dotted):
        """One re-export hop: resolve ``pkg.symbol[.rest]`` through
        ``pkg``'s import table."""
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module_name = ".".join(parts[:split])
            module = self.modules.get(module_name)
            if module is None:
                continue
            symbol = parts[split]
            rest = parts[split + 1:]
            if symbol in module.imports:
                return ".".join([module.imports[symbol]] + rest)
            return None
        return None

    def resolve_call(self, module, call):
        """Canonical dotted callee of an ``ast.Call`` (or None)."""
        return self.canonical(module.dotted_name(call.func))

    def iter_functions(self):
        for name in sorted(self.functions):
            yield self.functions[name]
