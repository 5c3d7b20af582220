"""Profiling hooks: the ``@profiled`` decorator and the walk sampler.

Two granularities, both free when observability is disabled:

* :func:`profiled` — wrap a function in a span plus a duration
  histogram.  The enabled check happens *per call* (one global flag
  read), so decorating at import time costs nothing until the gate
  opens.
* :class:`WalkSampler` — the ARRIVAL walk loop's hook: one record per
  completed walk (jumps accrued, side).  The engine fetches the sampler
  once per query (``None`` when disabled), so the walk loop pays one
  ``is not None`` test per walk — never per jump.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Optional, TypeVar, cast

from repro.obs import state as _state

__all__ = [
    "WalkSampler",
    "profiled",
    "walk_sampler",
]

_F = TypeVar("_F", bound=Callable[..., Any])


def profiled(name: Optional[str] = None) -> Callable[[_F], _F]:
    """Decorator: span + duration histogram around every call.

    ``name`` defaults to the function's qualified name.  Disabled mode
    is one flag read per call; enabled mode opens a span named
    ``name`` and observes the call's wall seconds into the histogram
    ``profile.<name>_s``.
    """

    def wrap(func: _F) -> _F:
        label = name or f"{func.__module__}.{func.__qualname__}"
        metric = f"profile.{label}_s"

        @functools.wraps(func)
        def inner(*args: Any, **kwargs: Any) -> Any:
            if not _state.enabled():
                return func(*args, **kwargs)
            with _state.tracer().span(label):
                start = time.perf_counter()
                try:
                    return func(*args, **kwargs)
                finally:
                    _state.metrics().histogram(metric).observe(
                        time.perf_counter() - start
                    )

        return cast(_F, inner)

    return wrap


class WalkSampler:
    """Per-walk sampling for the ARRIVAL step loop."""

    __slots__ = ("_jumps", "_walks", "_hist")

    def __init__(self) -> None:
        registry = _state.metrics()
        self._jumps = registry.counter("arrival.jumps")
        self._walks = registry.counter("arrival.walks")
        self._hist = registry.histogram("arrival.jumps_per_walk")

    def record_walk(self, jumps: int) -> None:
        """One completed walk: ``jumps`` accrued since the last one."""
        self._walks.inc()
        if jumps >= 0:
            self._jumps.inc(jumps)
            self._hist.observe(jumps)

    def record_query(self, jumps: int, walk_s: float) -> None:
        """Query-level rate: jumps per second of walk-loop time."""
        if walk_s > 0:
            _state.metrics().histogram("arrival.jumps_per_s").observe(
                jumps / walk_s
            )


def walk_sampler() -> Optional[WalkSampler]:
    """A walk-loop sampler, or None while observability is off."""
    return WalkSampler() if _state.enabled() else None

