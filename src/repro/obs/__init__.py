"""Observability: structured tracing behind one gate.

Dependency-free subsystem answering "where did this query spend its
time" without editing code (docs/architecture.md §5h):

* :mod:`repro.obs.tracing` — nested :class:`Span` records under a
  ``with span(name, **attrs)`` context manager, exportable as
  JSON-lines and as a Chrome ``trace_event`` file, plus the
  :func:`profiled` decorator;
* :mod:`repro.obs.state` — the process-global gate.

Per-query accounting is not kept here: every result carries its own
:class:`~repro.core.stats.ExecStats`, and
:class:`~repro.core.executor.BatchExecutor` folds them into
:class:`~repro.core.stats.BatchStats` whether the gate is open or not.

Everything is **off by default** and free while off: the gate hands
hot paths one shared no-op span, so the disabled cost is one no-op
context manager per query/stage — never a branch per jump.  Typical
use::

    from repro import obs

    obs.enable()
    engine.query(...)                       # instruments itself
    obs.current_tracer().export_chrome_trace("trace.json")

or from the CLI: ``repro evaluate g.json w.json --trace out.jsonl``.
"""

from repro.obs.state import (
    current_tracer,
    disable,
    enable,
    enabled,
    reset,
    tracer,
)
from repro.obs.tracing import NullTracer, Span, Tracer, profiled, read_jsonl


def span(name: str, **attrs: object) -> object:
    """A span from the active tracer (no-op while tracing is off).

    The module-level convenience the instrumented layers use::

        with obs.span("plan.compile", fingerprint=fp):
            ...
    """
    return tracer().span(name, **attrs)


__all__ = [
    "NullTracer",
    "Span",
    "Tracer",
    "current_tracer",
    "disable",
    "enable",
    "enabled",
    "profiled",
    "read_jsonl",
    "reset",
    "span",
    "tracer",
]
