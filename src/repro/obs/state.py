"""The observability gate: one process-global on/off switch.

Instrumented code never talks to a concrete registry or tracer
directly; it asks this module.  Disabled (the default), :func:`metrics`
returns the shared :class:`~repro.obs.metrics.NullRegistry` and
:func:`tracer` the shared :class:`~repro.obs.tracing.NullTracer`, whose
methods are no-ops on shared singletons — the cost model the <3%
overhead bar holds the system to is **one flag read or one no-op method
call per query/stage**, and *nothing* per jump (hot loops fetch their
sampler handle once per query and test ``is not None`` once per
walk).

Enabling (:func:`enable`) swaps in a live
:class:`~repro.obs.metrics.MetricsRegistry` and — when asked — a live
:class:`~repro.obs.tracing.Tracer`.  The switch is process-global on
purpose: the batch executor's process backend re-enables it inside each
worker (via the pool initializer) and ships metric snapshots home;
thread workers share this process's instances directly.
"""

from __future__ import annotations

import threading
from typing import Optional, Union

from repro.obs.metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.tracing import NullTracer, Tracer

__all__ = [
    "ObsConfig",
    "active_config",
    "configure",
    "current_tracer",
    "disable",
    "enable",
    "enabled",
    "metrics",
    "registry",
    "reset",
    "tracer",
    "tracing_enabled",
]

_NULL_TRACER = NullTracer()

_lock = threading.Lock()
_enabled = False
_registry: MetricsRegistry = MetricsRegistry()
_tracer: Optional[Tracer] = None

#: what crosses a process boundary to replicate the parent's gate —
#: (metrics on, tracing on).  Plain tuple: picklable by construction.
ObsConfig = tuple


def enabled() -> bool:
    """True when observability is collecting."""
    return _enabled


def tracing_enabled() -> bool:
    """True when spans are being recorded (implies :func:`enabled`)."""
    return _enabled and _tracer is not None


def enable(*, tracing: bool = False) -> None:
    """Open the gate: metrics always, span recording when ``tracing``.

    Idempotent; instruments recorded before a repeated ``enable`` keep
    their values (use :func:`reset` for a clean slate).
    """
    global _enabled, _tracer
    with _lock:
        if tracing and _tracer is None:
            _tracer = Tracer()
        _enabled = True


def disable() -> None:
    """Close the gate.  Recorded metrics and spans stay readable."""
    global _enabled
    with _lock:
        _enabled = False


def reset() -> None:
    """Disable and drop every recorded metric and span (tests)."""
    global _enabled, _tracer
    with _lock:
        _enabled = False
        _registry.clear()
        if _tracer is not None:
            _tracer.clear()
        _tracer = None


def metrics() -> Union[MetricsRegistry, NullRegistry]:
    """The active registry (the null registry while disabled)."""
    return _registry if _enabled else NULL_REGISTRY


def registry() -> MetricsRegistry:
    """The live registry regardless of the gate (exporters read
    recorded data after a run has been disabled again)."""
    return _registry


def tracer() -> Union[Tracer, NullTracer]:
    """The active tracer (the null tracer unless tracing is on)."""
    if _enabled and _tracer is not None:
        return _tracer
    return _NULL_TRACER


def current_tracer() -> Optional[Tracer]:
    """The live tracer if one was ever enabled, else None (exporters)."""
    return _tracer


def active_config() -> ObsConfig:
    """The gate state as a picklable config for worker processes."""
    return (_enabled, tracing_enabled())


def configure(config: Optional[ObsConfig]) -> None:
    """Replicate a parent's gate state (process-pool initializers).

    Worker tracing stays local to the worker — spans cannot cross the
    process boundary — but the flag is honoured so worker-side stage
    spans exist for worker-side exporters if anyone attaches one.
    """
    if not config:
        return
    metrics_on, tracing_on = bool(config[0]), bool(config[1])
    if metrics_on:
        enable(tracing=tracing_on)
