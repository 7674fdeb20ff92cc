"""Confinement rules: an API may be used only inside the module that owns it.

Several guarantees of the reproduction hold only because one module owns
one API end to end: :mod:`repro.parallel` owns process fan-out,
:mod:`repro.serve` owns serving and its journal, ``repro.evals.store``
owns sqlite, :mod:`repro.telemetry` owns the clock and
``repro.utils.serialization`` owns checkpoint ``.npz`` I/O.  Each row of
:data:`CONFINEMENTS` is one such contract, and :class:`ConfinementRule`
turns a row into a lint rule that flags the row's imports and calls
everywhere outside its home.

A home is a package (``"serve/"``: every file directly inside a
directory of that name) or a module (``"serve/journal.py"``: matched on
the file's last two path components).  A banned import prefix matches
the module itself and its submodules, including ``from X import Y``
when ``X.Y`` is banned; relative imports never match.  A banned call is
a bare name (``open``) or ``receiver.attr`` (``os.fork``).  Each finding
reads ``"<the offending import or call> <the row's reason>"``.
"""

from __future__ import annotations

import ast
from typing import NamedTuple

from ..engine import Rule

__all__ = ["CONFINEMENTS", "Confinement", "ConfinementRule"]


class Confinement(NamedTuple):
    """One confined API: where it lives, what is banned elsewhere, and why.

    ``first_arg`` narrows ``calls`` to those whose first argument names
    that word (in any identifier, attribute or string inside it).
    """

    id: str
    name: str
    description: str
    home: str
    reason: str
    imports: tuple = ()
    calls: tuple = ()
    first_arg: str | None = None


CONFINEMENTS = (
    Confinement(
        "RES003", "raw-checkpoint-io",
        "direct np.load/np.savez of checkpoint artifacts outside "
        "repro.utils.serialization bypasses digest verification",
        home="utils/serialization.py",
        reason="bypasses the digest-verified checkpoint I/O in "
               "repro.utils.serialization; use load_arrays/save_arrays "
               "(or the model/embedding helpers)",
        calls=("np.load", "np.savez", "np.savez_compressed",
               "numpy.load", "numpy.savez", "numpy.savez_compressed"),
    ),
    Confinement(
        "OBS001", "raw-clock-read",
        "raw time.time()/time.perf_counter() outside repro.telemetry; "
        "use telemetry.monotonic/wall_time",
        home="telemetry/",
        reason="reads a raw clock; use repro.telemetry.monotonic "
               "(durations) or wall_time (timestamps) so all timings "
               "share the tracer's clock",
        calls=("time.time", "time.perf_counter", "time.monotonic",
               "time.process_time"),
    ),
    Confinement(
        "PAR001", "direct-multiprocessing",
        "multiprocessing/concurrent.futures/os.fork outside "
        "repro.parallel; use repro.parallel.parallel_map",
        home="parallel/",
        reason="bypasses repro.parallel: raw fan-out loses per-task "
               "seeding and serial == parallel identity; use "
               "repro.parallel.parallel_map",
        imports=("multiprocessing", "concurrent"),
        calls=("os.fork", "os.forkpty"),
    ),
    Confinement(
        "SRV001", "raw-socket-server",
        "raw socket/socketserver/http.server outside repro.serve; use "
        "ReproService / ServeClient",
        home="serve/",
        reason="bypasses repro.serve: a raw server accepts work with no "
               "write-ahead journal, so a crash loses it; use "
               "ReproService (daemon) or ServeClient (requests)",
        imports=("socket", "socketserver", "http.server"),
    ),
    Confinement(
        "SRV002", "journal-file-access",
        "journal file opened outside repro/serve/journal.py; use "
        "Journal / read_journal",
        home="serve/journal.py",
        reason="opens a journal outside repro/serve/journal.py, "
               "bypassing checksum framing and torn-tail repair; use "
               "Journal.append / read_journal",
        calls=("open", "os.open", "io.open"),
        first_arg="journal",
    ),
    Confinement(
        "EVAL001", "direct-sqlite",
        "direct sqlite3 use outside repro.evals.store bypasses the "
        "schema-versioned ResultStore",
        home="evals/store.py",
        reason="bypasses repro.evals.store: a raw connection skips "
               "schema versioning and append-only writes; use ResultStore",
        imports=("sqlite3",),
        calls=("sqlite3.connect",),
    ),
)


def _at_home(path, home):
    package, module = home.split("/")
    parts = path.replace("\\", "/").split("/")
    return len(parts) > 1 and parts[-2] == package and module in ("", parts[-1])


def _banned(module, prefixes):
    return any(module == p or module.startswith(p + ".") for p in prefixes)


def _dotted(func):
    """``open`` or ``os.fork`` for a call's target; None for anything deeper."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return "%s.%s" % (func.value.id, func.attr)
    return None


def _names_word(node, word):
    """True when any identifier, attribute or string inside ``node``
    contains ``word`` (case-insensitive): a path may be a literal, a
    variable, an f-string, a ``%``/``+`` composition or a ``str(...)``
    wrapper, and in each case the tell is the word appearing in it."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            token = sub.value
        elif isinstance(sub, ast.Name):
            token = sub.id
        elif isinstance(sub, ast.Attribute):
            token = sub.attr
        elif isinstance(sub, ast.keyword) and sub.arg:
            token = sub.arg
        else:
            continue
        if word in token.lower():
            return True
    return False


class ConfinementRule(Rule):
    """One :class:`Confinement` row, checked as a per-file lint rule."""

    def __init__(self, row):
        self.row = row
        self.id, self.name, self.description = row.id, row.name, row.description

    def check(self, ctx):
        if _at_home(ctx.path, self.row.home):
            return
        for node in ctx.of(ast.Import, ast.ImportFrom, ast.Call):
            for subject in self._subjects(node):
                yield self.finding(ctx, node, "%s %s" % (subject, self.row.reason))

    def _subjects(self, node):
        """The offending imports or call in ``node``: one per banned alias
        of an ``import``, one per ``from`` import, one per call."""
        row = self.row
        if isinstance(node, ast.Import):
            return ["import " + alias.name for alias in node.names
                    if _banned(alias.name, row.imports)]
        if isinstance(node, ast.ImportFrom):
            if node.level:
                return []
            names = [alias.name for alias in node.names]
            modules = [node.module] + ["%s.%s" % (node.module, n) for n in names]
            if any(_banned(m, row.imports) for m in modules):
                return ["from %s import %s" % (node.module, ", ".join(names))]
            return []
        if isinstance(node, ast.Call):
            call = _dotted(node.func)
            if call in row.calls and (row.first_arg is None or (
                    node.args and _names_word(node.args[0], row.first_arg))):
                return [call + "()"]
        return []
