"""RNG006 — no ``np.random.Generator`` escaping into cross-worker code.

RNG001–RNG004 police *where* generators come from (the ``ensure_rng``
funnel, no global seeding, no bare ``np.random.*`` draws).  RNG006
polices where they *go*: a ``Generator`` handed to a worker — as a
``submit()`` argument, a thread/process ``target``/``args``, a
``BatchExecutor`` factory, or captured inside a closure that crosses
that boundary — is shared mutable state.  Two workers drawing from one
bit stream interleave nondeterministically, which silently breaks the
paper's paired-seed experiment design.  The sanctioned pattern is to
``spawn()`` per-worker children from a ``SeedSequence`` and construct
an independent ``Generator`` inside each worker.

The rule rides on the dataflow engine, so the generator is tracked
through aliases, tuple unpacking and closure capture; ``.spawn()``
results are deliberately untainted (they *are* the fix).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Optional, Tuple

from repro.lint.framework import FileContext, Rule, Violation, register
from repro.lint.semantic.dataflow import (
    CLOSURE,
    CallSite,
    TaintSpec,
    analyze_module,
)

__all__ = ["GeneratorEscapeRule"]

#: modules that own cross-worker RNG plumbing and may pass generators
#: around freely (they are the funnel)
_PRIVILEGED = ("repro.rng", "repro.core.executor")

_GEN = "rng-generator"

#: calls whose return value is a live Generator
_GENERATOR_CALLS = frozenset({"ensure_rng", "default_rng", "Generator"})

#: calls whose return value is derived-but-safe (the sanctioned
#: per-worker derivation path) — never tainted
_SAFE_CALLS = frozenset({"spawn", "generate_state", "entropy"})

#: worker-boundary constructors: callable keyword args that run in
#: another thread/process
_BOUNDARY_CTORS = frozenset({"Thread", "Process", "BatchExecutor"})

_ADVICE = (
    "derive per-worker streams from SeedSequence.spawn and build a "
    "fresh Generator inside the worker"
)


class _GeneratorSpec(TaintSpec):
    def param_taints(
        self, name: str, annotation: Optional[ast.expr]
    ) -> FrozenSet[str]:
        text = ""
        if annotation is not None:
            try:
                text = ast.unparse(annotation)
            except ValueError:  # pragma: no cover - malformed annotation
                text = ""
        if name == "rng" or "Generator" in text:
            return frozenset({_GEN})
        return frozenset()

    def call_taints(
        self,
        call: ast.Call,
        func_name: str,
        func_taints: FrozenSet[str],
        arg_taints: List[FrozenSet[str]],
    ) -> FrozenSet[str]:
        tail = func_name.rsplit(".", 1)[-1]
        if tail in _SAFE_CALLS:
            return frozenset()
        if tail in _GENERATOR_CALLS:
            return frozenset({_GEN})
        if tail == "partial":
            # functools.partial over a generator is the PKL001-friendly
            # way to smuggle one across the boundary — keep the taint
            out: FrozenSet[str] = frozenset()
            for taints in arg_taints:
                out |= taints
            return out & frozenset({_GEN})
        return frozenset()


def _escapes(taints: FrozenSet[str]) -> bool:
    return _GEN in taints


def _boundary_sinks(
    call: CallSite,
) -> Iterator[Tuple[ast.expr, FrozenSet[str], str]]:
    """(expr, taints, what) triples of worker-boundary sink positions."""
    tail = call.func_name.rsplit(".", 1)[-1]
    if tail == "submit":
        for expr, taints in call.args:
            yield expr, taints, "a submit() argument"
        for _name, expr, taints in call.keywords:
            yield expr, taints, "a submit() keyword argument"
    elif tail in _BOUNDARY_CTORS:
        for name, expr, taints in call.keywords:
            if name in ("target", "args", "kwargs", "factory", "initializer"):
                yield expr, taints, f"the {tail}(..., {name}=...) callable"


@register
class GeneratorEscapeRule(Rule):
    """No Generator may cross a worker boundary."""

    rule_id = "RNG006"
    description = (
        "np.random.Generator escaping into a cross-worker callable "
        "(submit argument, thread/process target, executor factory, or "
        "captured closure); " + _ADVICE
    )
    version = 1

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_module(*_PRIVILEGED):
            return
        flow = analyze_module(ctx.tree, _GeneratorSpec())
        for call in flow.calls:
            for expr, taints, what in _boundary_sinks(call):
                if not _escapes(taints):
                    continue
                if CLOSURE in taints:
                    message = (
                        "closure capturing an np.random.Generator "
                        f"crosses a worker boundary as {what}; "
                    )
                else:
                    message = (
                        "np.random.Generator crosses a worker boundary "
                        f"as {what}; "
                    )
                yield ctx.violation(
                    expr, self.rule_id, message + _ADVICE
                )
