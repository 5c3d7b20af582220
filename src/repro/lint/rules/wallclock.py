"""Wall-clock discipline rule.

Reading the clock inside query logic makes answers (or their recorded
instrumentation) depend on machine load, which poisons both the
equivalence sweeps and the paper-figure reproductions.  Clock reads are
confined to the timing layer: :class:`~repro.core.engine.EngineBase`'s
total, the executor's deadlines, ARRIVAL's per-stage
:class:`~repro.core.stats.ExecStats` fills, and the experiment
harness/measurement modules.  A sanctioned exception elsewhere (e.g.
the search baselines' wall-clock *budget* enforcement mirroring the
paper's one-minute BBFS cutoff) must carry an explicit
``# repro: noqa[TIM001]`` so it is visible in review.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from repro.lint.framework import FileContext, Rule, Violation, register

__all__ = ["WallClockRule"]

#: clock-reading functions of the ``time`` module
_CLOCK_FUNCTIONS = frozenset(
    {
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "time",
        "time_ns",
    }
)

#: modules whose job is timing: the engine base total, the executor's
#: deadlines and batch wall time, ARRIVAL's ExecStats stage fills, the
#: planner's compile-time accounting, and every experiment/measurement
#: module
_TIMING_MODULES = (
    "repro.core.arrival",
    "repro.core.engine",
    "repro.core.executor",
    "repro.core.plan",
    "repro.core.stats",
    "repro.experiments",
    "repro.obs",
)


@register
class WallClockRule(Rule):
    """Clock reads outside the timing layer."""

    rule_id = "TIM001"
    description = (
        "time.time()/perf_counter()/monotonic() outside ExecStats/"
        "harness timing code; query logic must stay clock-free"
    )

    def check_file(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.in_module("repro") or ctx.in_module(*_TIMING_MODULES):
            return
        from_time: Set[str] = set()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and node.module == "time"
            ):
                for alias in node.names:
                    if alias.name in _CLOCK_FUNCTIONS:
                        from_time.add(alias.asname or alias.name)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            flagged = (
                isinstance(func, ast.Attribute)
                and func.attr in _CLOCK_FUNCTIONS
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ) or (isinstance(func, ast.Name) and func.id in from_time)
            if flagged:
                yield ctx.violation(
                    node,
                    self.rule_id,
                    "wall-clock read outside the timing layer; move the "
                    "measurement into ExecStats/harness code or justify "
                    "it with # repro: noqa[TIM001]",
                )
