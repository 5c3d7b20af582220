"""The tracing gate: one process-global on/off switch.

Instrumented code never talks to a concrete tracer directly; it asks
this module.  Disabled (the default), :func:`tracer` returns the shared
:class:`~repro.obs.tracing.NullTracer`, whose spans are no-ops on one
shared singleton — the cost is **one no-op context manager per
query/stage**, and *nothing* per jump.  :func:`enable` swaps in a live
:class:`~repro.obs.tracing.Tracer`.

The gate is process-local and is not copied into the batch executor's
process workers: worker spans could not leave the worker anyway, and
per-query accounting travels home in each result's ``ExecStats``
whatever the gate says.  Thread workers share this process's tracer.
"""

from __future__ import annotations

import threading
from typing import Optional, Union

from repro.obs.tracing import NullTracer, Tracer

__all__ = [
    "current_tracer",
    "disable",
    "enable",
    "enabled",
    "reset",
    "tracer",
]

_NULL_TRACER = NullTracer()

_lock = threading.Lock()
_enabled = False
_tracer: Optional[Tracer] = None


def enabled() -> bool:
    """True when spans are being recorded."""
    return _enabled


def enable() -> None:
    """Open the gate: record spans from now on.

    Idempotent; spans recorded before a repeated ``enable`` stay (use
    :func:`reset` for a clean slate).
    """
    global _enabled, _tracer
    with _lock:
        if _tracer is None:
            _tracer = Tracer()
        _enabled = True


def disable() -> None:
    """Close the gate.  Recorded spans stay readable."""
    global _enabled
    with _lock:
        _enabled = False


def reset() -> None:
    """Disable and drop every recorded span (tests)."""
    global _enabled, _tracer
    with _lock:
        _enabled = False
        if _tracer is not None:
            _tracer.clear()
        _tracer = None


def tracer() -> Union[Tracer, NullTracer]:
    """The active tracer (the null tracer while the gate is closed)."""
    if _enabled and _tracer is not None:
        return _tracer
    return _NULL_TRACER


def current_tracer() -> Optional[Tracer]:
    """The live tracer if one was ever enabled, else None (exporters)."""
    return _tracer
