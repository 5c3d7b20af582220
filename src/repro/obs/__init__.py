"""Observability: metrics, structured tracing and profiling hooks.

Dependency-free subsystem answering "where did this query spend its
time" and "what is the plan-cache hit rate over the last N batches"
without editing code (docs/architecture.md §5h):

* :mod:`repro.obs.metrics` — a process-global :class:`MetricsRegistry`
  of counters, gauges and log-bucketed histograms; thread-safe,
  serialisable to picklable :class:`MetricsSnapshot` records that merge
  exactly across the executor's process backend;
* :mod:`repro.obs.tracing` — nested :class:`Span` records under a
  ``with span(name, **attrs)`` context manager, exportable as
  JSON-lines and as a Chrome ``trace_event`` file;
* :mod:`repro.obs.profiling` — the :func:`profiled` decorator plus the
  walk-loop sampler.

Everything is **off by default** and free while off: the gate
(:mod:`repro.obs.state`) hands hot paths shared no-op singletons, so
the disabled cost is one flag read per query — never a branch per
jump.  Typical use::

    from repro import obs

    obs.enable(tracing=True)
    engine.query(...)                       # instruments itself
    obs.registry().snapshot().as_dict()     # -> metrics payload
    obs.current_tracer().export_chrome_trace("trace.json")

or from the CLI: ``repro evaluate g.json w.json --metrics --trace
out.jsonl`` then ``repro stats --metrics metrics.json``.
"""

from repro.obs.metrics import (
    BUCKET_EDGES,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    bucket_index,
    render_snapshot,
)
from repro.obs.profiling import (
    WalkSampler,
    profiled,
    walk_sampler,
)
from repro.obs.state import (
    ObsConfig,
    active_config,
    configure,
    current_tracer,
    disable,
    enable,
    enabled,
    metrics,
    registry,
    reset,
    tracer,
    tracing_enabled,
)
from repro.obs.tracing import NullTracer, Span, Tracer, read_jsonl


def span(name: str, **attrs: object) -> object:
    """A span from the active tracer (no-op while tracing is off).

    The module-level convenience the instrumented layers use::

        with obs.span("plan.compile", fingerprint=fp):
            ...
    """
    return tracer().span(name, **attrs)


__all__ = [
    "BUCKET_EDGES",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NullTracer",
    "ObsConfig",
    "Span",
    "Tracer",
    "WalkSampler",
    "active_config",
    "bucket_index",
    "configure",
    "current_tracer",
    "disable",
    "enable",
    "enabled",
    "metrics",
    "profiled",
    "read_jsonl",
    "registry",
    "render_snapshot",
    "reset",
    "span",
    "tracer",
    "tracing_enabled",
    "walk_sampler",
]
