"""RNG discipline rules.

Reproducibility of every table and figure in the paper hinges on seeded,
explicitly-threaded random number generation.  The legacy global
``np.random.*`` API is banned, and even the modern API must be seeded.
"""

from __future__ import annotations

import ast

from ..engine import Rule

__all__ = ["BareNumpyRandomRule", "UnseededGeneratorRule"]

# Attributes of np.random that are part of the *modern*, allowed API.
_ALLOWED_RANDOM_ATTRS = {"default_rng", "Generator", "SeedSequence", "BitGenerator",
                         "PCG64", "Philox", "SFC64", "MT19937"}

_NUMPY_ALIASES = {"np", "numpy"}


def _is_np_random(node):
    """True for an ``np.random`` / ``numpy.random`` attribute chain base."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in _NUMPY_ALIASES
    )


class BareNumpyRandomRule(Rule):
    """RNG001: no bare ``np.random.*`` calls.

    The legacy global-state API (``np.random.rand``, ``np.random.choice``
    ...) makes results depend on import order and on every other caller
    in the process.  Thread an explicit ``np.random.default_rng(seed)``
    Generator instead.
    """

    id = "RNG001"
    name = "bare-numpy-random"
    description = ("bare np.random.* call; thread an explicit seeded "
                   "Generator (np.random.default_rng(seed)) instead")

    def check(self, ctx):
        for node in ctx.of(ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr not in _ALLOWED_RANDOM_ATTRS
                and _is_np_random(func.value)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "np.random.%s uses hidden global RNG state; pass a seeded "
                    "np.random.Generator instead" % func.attr,
                )


class UnseededGeneratorRule(Rule):
    """RNG002: ``np.random.default_rng()`` must receive an explicit seed.

    An unseeded Generator draws entropy from the OS, so two runs of the
    same experiment silently diverge.
    """

    id = "RNG002"
    name = "unseeded-default-rng"
    description = "np.random.default_rng() called without an explicit seed"

    def check(self, ctx):
        for node in ctx.of(ast.Call):
            func = node.func
            is_default_rng = (
                isinstance(func, ast.Attribute)
                and func.attr == "default_rng"
                and _is_np_random(func.value)
            ) or (isinstance(func, ast.Name) and func.id == "default_rng")
            if is_default_rng and not node.args and not node.keywords:
                yield self.finding(
                    ctx,
                    node,
                    "default_rng() without a seed is non-reproducible; pass "
                    "an explicit seed or an existing Generator",
                )
