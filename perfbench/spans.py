"""Client-side spans for the traced mode.

A span is recorded around each call the benchmark makes into one of the
program's layers.  Spans live in memory and are written once, at the
end, as a Chrome trace (``chrome://tracing`` / Perfetto) and as a
per-layer table of call counts, total time and self time (a span's
duration minus the part its child spans cover).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    layer: str
    request: int
    start: float
    end: float = 0.0
    parent: Optional[int] = None


class Tracer:
    """Records spans; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.request = 0

    def next_request(self) -> int:
        self.request += 1
        return self.request

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, layer, self.request, time.perf_counter(), parent=parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    # -- output ------------------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            row = table.setdefault(span.layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += span.end - span.start
            row["self_s"] += span.end - span.start - child_time[index]
        return table

    def write(self, trace_path: Path, table_path: Path, metrics: Dict[str, Dict[str, object]]) -> None:
        origin = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"request": span.request, "parent": span.parent, "span": index},
            }
            for index, span in enumerate(self.spans)
        ]
        trace_path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")
        lines = [f"{'layer':<28}{'calls':>8}{'total_s':>12}{'self_s':>12}"]
        for layer, row in sorted(self.layer_table().items()):
            lines.append(
                f"{layer:<28}{int(row['calls']):>8}{row['total_s']:>12.4f}{row['self_s']:>12.4f}"
            )
        lines.append("")
        lines.append(f"{'metric':<32}{'value':>16}  unit")
        for name, entry in metrics.items():
            lines.append(f"{name:<32}{float(entry['value']):>16.6g}  {entry['unit']}")  # type: ignore[arg-type]
        table_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
