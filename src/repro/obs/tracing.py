"""Structured tracing: nested spans with monotonic timings.

A :class:`Span` is one timed region of work — an engine query, a batch
stage, a plan compile — with a name, free-form attributes and a parent,
so a run unrolls into a forest of spans per thread.  The API surface is
deliberately a *context manager*::

    with tracer.span("engine.query", engine="ARRIVAL") as span:
        ...
        span.set_attr("reachable", True)

which guarantees every span closes exactly once, in LIFO order, even
when the region raises (the exception type is recorded as the
``error`` attribute).  :meth:`Tracer.span` only builds the record; the
span opens on ``with`` entry (id, parent, start time, push onto the
thread's stack) and closes on exit.  There is no public ``end()``, so
a span can neither be closed by hand nor leak open: one that is never
entered never joins the stack and never becomes a parent.

Timings come from :func:`time.perf_counter_ns` (monotonic, ns
resolution); wall-clock anchors are never recorded, so traces diff
cleanly across runs.  Two exporters:

* :meth:`Tracer.export_jsonl` — one JSON object per finished span,
  streamable and greppable;
* :meth:`Tracer.export_chrome_trace` — the Chrome ``trace_event``
  format (one ``"ph": "X"`` complete event per span), loadable in
  ``chrome://tracing`` / Perfetto for a flame view.

The spans of *this* process only: the batch executor's process backend
merges worker **metrics** home, but worker spans stay in the worker
(documented in the architecture notes; per-query stage timings still
arrive via ``ExecStats``).

:class:`NullTracer` is the disabled mode: its :meth:`~NullTracer.span`
hands back one shared re-entrant no-op context manager, so a disabled
``with span(...)`` costs two empty method calls and no allocation
beyond the argument tuple.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Dict, Iterator, List, Optional

__all__ = [
    "NULL_SPAN",
    "NullSpan",
    "NullTracer",
    "Span",
    "Tracer",
    "read_jsonl",
]


class Span:
    """One timed region.  Built by :meth:`Tracer.span`, opened on
    ``with`` entry and closed on exit; until it is entered it has no id,
    no parent and no start time."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "thread_id",
        "start_ns",
        "end_ns",
        "attrs",
        "_tracer",
    )

    def __init__(
        self, name: str, attrs: Dict[str, Any], tracer: "Tracer"
    ) -> None:
        self.name = name
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.thread_id = 0
        self.start_ns = 0
        self.end_ns: Optional[int] = None
        self.attrs = attrs
        self._tracer = tracer

    # -- context manager ----------------------------------------------
    def __enter__(self) -> "Span":
        self._tracer._open(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._close(self)

    def set_attr(self, key: str, value: Any) -> None:
        """Attach one attribute to the span while it is open."""
        self.attrs[key] = value

    # -- views ---------------------------------------------------------
    @property
    def duration_s(self) -> Optional[float]:
        if self.end_ns is None:
            return None
        return (self.end_ns - self.start_ns) / 1e9

    def as_dict(self) -> Dict[str, Any]:
        """JSON-lines record of one finished span."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects finished spans; one per process (the obs gate owns it).

    The open-span stack is thread-local, so spans nest correctly per
    worker thread; the finished-span list is shared under a lock.
    ``clock`` is injectable for deterministic tests (golden trace
    fixtures) and defaults to :func:`time.perf_counter_ns`.
    """

    def __init__(self, clock: Optional[Any] = None) -> None:
        self._clock = clock if clock is not None else time.perf_counter_ns
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._local = threading.local()

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack: Optional[List[Span]] = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def span(self, name: str, **attrs: Any) -> Span:
        """A nested span, opened when its ``with`` block is entered."""
        return Span(name, attrs, self)

    def _open(self, span: Span) -> None:
        stack = self._stack()
        span.span_id = next(self._ids)
        span.parent_id = stack[-1].span_id if stack else None
        span.thread_id = threading.get_ident()
        span.start_ns = int(self._clock())
        stack.append(span)

    def _close(self, span: Span) -> None:
        span.end_ns = int(self._clock())
        stack = self._stack()
        # LIFO discipline: a ``with`` block closes the innermost open
        # span, unless a suspended generator exits its block late
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        with self._lock:
            self._finished.append(span)

    # -- views & exporters --------------------------------------------
    def finished_spans(self) -> List[Span]:
        """Finished spans in completion order (a snapshot copy)."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()

    def export_jsonl(self, path: str) -> int:
        """Write finished spans as JSON-lines; returns the span count."""
        spans = self.finished_spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(
                    json.dumps(span.as_dict(), sort_keys=True, default=str)
                )
                handle.write("\n")
        return len(spans)

    def chrome_trace(self) -> Dict[str, Any]:
        """The Chrome ``trace_event`` payload for the finished spans."""
        events = []
        for span in self.finished_spans():
            if span.end_ns is None:
                continue
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": span.start_ns / 1e3,  # microseconds
                    "dur": (span.end_ns - span.start_ns) / 1e3,
                    "pid": 1,
                    "tid": span.thread_id,
                    "args": dict(span.attrs),
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path: str) -> int:
        """Write the Chrome trace file; returns the event count."""
        payload = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True, default=str)
            handle.write("\n")
        return len(payload["traceEvents"])


# ---------------------------------------------------------------------------
# the disabled mode
# ---------------------------------------------------------------------------
class NullSpan:
    """Shared re-entrant no-op span."""

    __slots__ = ()
    name = "null"
    attrs: Dict[str, Any] = {}

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        pass

    def set_attr(self, key: str, value: Any) -> None:
        pass

    @property
    def duration_s(self) -> Optional[float]:
        return None


class NullTracer:
    """Hands out the shared :data:`NULL_SPAN`; records nothing."""

    __slots__ = ()

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return NULL_SPAN

    def finished_spans(self) -> List[Span]:
        return []

    def clear(self) -> None:
        pass

    def export_jsonl(self, path: str) -> int:
        return 0

    def chrome_trace(self) -> Dict[str, Any]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path: str) -> int:
        return 0


NULL_SPAN = NullSpan()


def read_jsonl(path: str) -> Iterator[Dict[str, Any]]:
    """Parse a JSON-lines trace file back into span records."""
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)
