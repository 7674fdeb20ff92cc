"""Fault-tolerance hygiene rules.

The resume machinery in :mod:`repro.resilience` only works if every
artifact on disk is written atomically (temp file + fsync + rename) and
if failures actually propagate to the retry/degradation layer instead of
being silently swallowed.  These rules keep both invariants honest at
the source level.  The third resume invariant, that checkpoint ``.npz``
I/O goes through the digest-verifying ``repro.utils.serialization``, is
the RES003 row of :data:`repro.analysis.rules.confinement.CONFINEMENTS`.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["NonAtomicArtifactWriteRule", "SwallowedExceptionRule"]

_NUMPY_ALIASES = {"np", "numpy"}
_NUMPY_WRITERS = {"save", "savez", "savez_compressed", "savetxt"}
_WRITE_MODE_CHARS = set("wax")


def _open_mode(node):
    """The constant mode string of a builtin ``open()`` call, or None."""
    mode = node.args[1] if len(node.args) > 1 else None
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


class NonAtomicArtifactWriteRule(Rule):
    """RES001: artifact writes must go through the atomic writer.

    A direct ``np.savez(path, ...)`` or ``open(path, "w")`` that dies
    mid-write leaves a torn file that poisons every later resume.  Route
    writes through :func:`repro.utils.serialization.atomic_write` (or
    the ``save_*`` helpers built on it) so a crash leaves either the old
    artifact or none.
    """

    id = "RES001"
    name = "non-atomic-artifact-write"
    description = ("direct np.save*/open(..., 'w') artifact write bypasses "
                   "repro.utils.serialization.atomic_write")

    def check(self, ctx):
        for node in ctx.of(ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _NUMPY_WRITERS
                and isinstance(func.value, ast.Name)
                and func.value.id in _NUMPY_ALIASES
            ):
                yield self.finding(
                    ctx,
                    node,
                    "np.%s writes the artifact in place (torn file on "
                    "crash); use repro.utils.serialization.atomic_write "
                    "or save_arrays" % func.attr,
                )
            elif isinstance(func, ast.Name) and func.id == "open":
                mode = _open_mode(node)
                if mode is not None and _WRITE_MODE_CHARS & set(mode):
                    yield self.finding(
                        ctx,
                        node,
                        "open(..., %r) writes the file in place (torn file "
                        "on crash); use repro.utils.serialization."
                        "atomic_write" % mode,
                    )


class SwallowedExceptionRule(Rule):
    """RES002: no bare ``except:`` and no silently-swallowed exceptions.

    A bare ``except:`` traps ``KeyboardInterrupt``/``SystemExit`` (and
    the fault harness's ``SimulatedKill``), while an ``except ...: pass``
    hides the divergence/timeout errors the retry and degradation layers
    exist to handle.  Catch specific types and act on them — or justify
    the swallow with a noqa comment on the ``except`` line.
    """

    id = "RES002"
    name = "swallowed-exception"
    description = ("bare except:, or an except handler whose body only "
                   "passes, silently swallows failures")

    @staticmethod
    def _is_noop(stmt):
        if isinstance(stmt, ast.Pass):
            return True
        return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)

    def check(self, ctx):
        for node in ctx.of(ast.Try):
            for handler in node.handlers:
                if handler.type is None:
                    yield self.finding(
                        ctx,
                        handler,
                        "bare except: also traps KeyboardInterrupt/"
                        "SystemExit/SimulatedKill; name the exception "
                        "types you mean to handle",
                    )
                elif all(self._is_noop(stmt) for stmt in handler.body):
                    yield self.finding(
                        ctx,
                        handler,
                        "exception handler swallows the error without "
                        "acting on it; handle it, re-raise, or justify "
                        "with a noqa on this line",
                    )
