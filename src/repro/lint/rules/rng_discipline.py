"""RNG discipline rules.

The determinism contract (identical answers across serial / thread /
process execution, reproducible experiment runs) holds only if every
draw flows from a :class:`numpy.random.Generator` that was routed
through :func:`repro.rng.ensure_rng` and the SeedSequence spawn-key
streams of the batch executor.  Module-level RNG state — the stdlib
``random`` module, the legacy ``numpy.random.*`` functions backed by a
hidden global ``RandomState`` — breaks that: draws depend on import
order, worker scheduling and whoever else touched the global stream.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from repro.lint.framework import FileContext, Rule, Violation, register

__all__ = [
    "LegacyNumpyRandomRule",
    "SeedBypassRule",
    "StdlibRandomRule",
    "UnseededDefaultRngRule",
]

#: legacy ``numpy.random`` module-level functions (global RandomState)
_LEGACY_NP_RANDOM = frozenset(
    {
        "RandomState",
        "beta",
        "binomial",
        "bytes",
        "choice",
        "exponential",
        "gamma",
        "get_state",
        "normal",
        "permutation",
        "poisson",
        "rand",
        "randint",
        "randn",
        "random",
        "random_integers",
        "random_sample",
        "ranf",
        "sample",
        "seed",
        "set_state",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)

#: modules allowed to talk to numpy's RNG constructors directly: the
#: blessed helper module and the executor's SeedSequence stream builder
_RNG_PRIVILEGED = ("repro.rng", "repro.core.executor")


def _is_np_random(node: ast.AST) -> bool:
    """True for ``np.random`` / ``numpy.random`` attribute chains."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


@register
class StdlibRandomRule(Rule):
    """The stdlib ``random`` module is process-global, unseeded state."""

    rule_id = "RNG001"
    description = (
        "stdlib `random` is banned: its module-level state breaks "
        "cross-backend determinism; use repro.rng.ensure_rng"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith(
                        "random."
                    ):
                        yield ctx.violation(
                            node,
                            self.rule_id,
                            "import of stdlib `random`; route randomness "
                            "through repro.rng.ensure_rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "random":
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        "import from stdlib `random`; route randomness "
                        "through repro.rng.ensure_rng",
                    )


@register
class UnseededDefaultRngRule(Rule):
    """``default_rng()`` with no seed is a fresh OS-entropy stream."""

    rule_id = "RNG002"
    description = (
        "unseeded np.random.default_rng() call; thread an RngLike "
        "parameter through repro.rng.ensure_rng instead"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_module("repro.rng"):
            # ensure_rng(None) is the one sanctioned nondeterministic path
            return
        aliases = _imported_from(ctx, "numpy.random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or node.args or node.keywords:
                continue
            func = node.func
            named = (
                isinstance(func, ast.Name) and func.id in aliases
                and aliases[func.id] == "default_rng"
            )
            dotted = (
                isinstance(func, ast.Attribute)
                and func.attr == "default_rng"
                and _is_np_random(func.value)
            )
            if named or dotted:
                yield ctx.violation(
                    node,
                    self.rule_id,
                    "np.random.default_rng() without a seed; accept an "
                    "RngLike and call repro.rng.ensure_rng",
                )


@register
class LegacyNumpyRandomRule(Rule):
    """The legacy ``numpy.random.*`` API draws from a global stream."""

    rule_id = "RNG003"
    description = (
        "legacy numpy.random.* call (global RandomState); use a "
        "Generator from repro.rng.ensure_rng"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute):
                if node.attr in _LEGACY_NP_RANDOM and _is_np_random(
                    node.value
                ):
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"legacy np.random.{node.attr}; draw from a "
                        "Generator (repro.rng.ensure_rng) instead",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name in _LEGACY_NP_RANDOM:
                            yield ctx.violation(
                                node,
                                self.rule_id,
                                f"import of legacy numpy.random.{alias.name}",
                            )
                elif node.level == 0 and node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            yield ctx.violation(
                                node,
                                self.rule_id,
                                "`from numpy import random` exposes the "
                                "legacy global-state API",
                            )


@register
class SeedBypassRule(Rule):
    """Seed/rng parameters must be normalised by ``ensure_rng``."""

    rule_id = "RNG004"
    description = (
        "RNG parameter fed straight to np.random.default_rng; "
        "normalise RngLike parameters through repro.rng.ensure_rng"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_module(*_RNG_PRIVILEGED):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            params = {
                arg.arg
                for arg in (
                    node.args.posonlyargs
                    + node.args.args
                    + node.args.kwonlyargs
                )
                if arg.arg in ("seed", "rng")
            }
            if not params:
                continue
            for call in ast.walk(node):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "default_rng"
                    and _is_np_random(call.func.value)
                    and call.args
                    and isinstance(call.args[0], ast.Name)
                    and call.args[0].id in params
                ):
                    yield ctx.violation(
                        call,
                        self.rule_id,
                        f"default_rng({call.args[0].id}) bypasses "
                        "repro.rng.ensure_rng (Generator passthrough "
                        "and None handling are lost)",
                    )


def _imported_from(ctx: FileContext, module: str) -> Dict[str, str]:
    """Local alias -> original name for ``from <module> import ...``."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module == module
        ):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    return aliases
