"""Metrics: counters, gauges and log-bucketed histograms.

One :class:`MetricsRegistry` holds every instrument of a process.  The
design constraints come from the execution pipeline it instruments:

* **thread-safe** — the batch executor's thread backend runs one engine
  per worker thread against the *shared* process registry, so every
  increment takes the instrument's lock (increments happen at query /
  walk granularity, never per jump, so the lock is far off the hot
  path);
* **mergeable across processes** — the process backend runs one engine
  per worker *process*, each with its own registry.  A registry
  serialises to a plain-data :class:`MetricsSnapshot` (dicts of ints and
  floats — picklable by construction), snapshots subtract
  (:meth:`MetricsSnapshot.delta`) and add (:meth:`MetricsSnapshot.merge`)
  exactly, and :meth:`MetricsRegistry.merge` folds a worker's deltas
  into the parent so merged counters equal a serial run's counters
  bit for bit;
* **fixed histogram buckets** — every histogram shares one global
  log-scale edge table (:data:`BUCKET_EDGES`, half-powers of two from
  2^-30 to 2^30), so bucket arrays from different processes, runs and
  machines align and merge by plain element-wise addition.

Instruments are get-or-created by name; names are dotted paths
(``"plan.hits"``, ``"engine.stage.walk_s"``) so renderings group
naturally.  The no-op twins (:data:`NULL_COUNTER`, ...) make the
disabled mode free: disabled code paths receive the shared singletons
and call the same methods, which do nothing.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "BUCKET_EDGES",
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "N_BUCKETS",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_REGISTRY",
    "NullCounter",
    "NullGauge",
    "NullHistogram",
    "NullRegistry",
    "bucket_index",
    "render_snapshot",
]

# ---------------------------------------------------------------------------
# the shared bucket table
# ---------------------------------------------------------------------------
#: half-power-of-two histogram edges: edge[i] = 2**((i - 60) / 2), i.e.
#: ~1e-9 .. ~1e9 at ~41% resolution.  Fixed and global so bucket arrays
#: from any process or run align index-for-index.
BUCKET_EDGES: Tuple[float, ...] = tuple(
    2.0 ** ((i - 60) / 2.0) for i in range(121)
)

#: bucket 0 collects zero and negative observations; the last bucket
#: collects everything at or above the top edge
N_BUCKETS = len(BUCKET_EDGES) + 1


def bucket_index(value: float) -> int:
    """The bucket an observation falls into.

    Bucket ``i`` (1 <= i <= len(edges)) holds values in
    ``[edge[i-1], edge[i])``; bucket 0 holds ``value < edge[0]``
    (including zero and negatives); the final bucket holds values at or
    beyond the last edge.
    """
    if value < BUCKET_EDGES[0]:
        return 0
    if value >= BUCKET_EDGES[-1]:
        return N_BUCKETS - 1
    # exact inverse of the edge formula, then guard against float
    # round-trip error at the edges themselves
    i = int(math.floor(2.0 * math.log2(value))) + 60
    index = i + 1
    if value < BUCKET_EDGES[i]:
        index -= 1
    elif index < len(BUCKET_EDGES) and value >= BUCKET_EDGES[index]:
        index += 1
    return index


# ---------------------------------------------------------------------------
# instruments
# ---------------------------------------------------------------------------
class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value


@dataclass
class HistogramSnapshot:
    """Plain-data form of one histogram (picklable, mergeable)."""

    count: int = 0
    total: float = 0.0
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    #: sparse bucket counts: index -> count (most histograms touch a
    #: handful of the 122 buckets)
    buckets: Dict[int, int] = field(default_factory=dict)

    def merge(self, other: "HistogramSnapshot") -> None:
        """Fold ``other`` into this snapshot (element-wise sums)."""
        self.count += other.count
        self.total += other.total
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        if other.minimum is not None:
            self.minimum = (
                other.minimum
                if self.minimum is None
                else min(self.minimum, other.minimum)
            )
        if other.maximum is not None:
            self.maximum = (
                other.maximum
                if self.maximum is None
                else max(self.maximum, other.maximum)
            )

    def delta(self, earlier: "HistogramSnapshot") -> "HistogramSnapshot":
        """Observations accrued since ``earlier`` (same histogram).

        Counts, totals and buckets subtract exactly; min/max are not
        invertible from cumulative state, so the delta conservatively
        keeps the later snapshot's extrema (exact whenever the earlier
        window was empty).
        """
        buckets = {
            index: n - earlier.buckets.get(index, 0)
            for index, n in self.buckets.items()
            if n - earlier.buckets.get(index, 0)
        }
        return HistogramSnapshot(
            count=self.count - earlier.count,
            total=self.total - earlier.total,
            minimum=self.minimum,
            maximum=self.maximum,
            buckets=buckets,
        )

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate (the bucket's upper edge
        at cumulative rank ``q``); None on an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return None
        rank = q * self.count
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= rank:
                if index <= 0:
                    return BUCKET_EDGES[0]
                if index >= len(BUCKET_EDGES):
                    return BUCKET_EDGES[-1]
                return BUCKET_EDGES[index]
        return BUCKET_EDGES[-1]

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class Histogram:
    """Log-bucketed distribution over the shared edge table."""

    __slots__ = ("name", "_snapshot", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._snapshot = HistogramSnapshot()
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bucket_index(value)
        with self._lock:
            snap = self._snapshot
            snap.count += 1
            snap.total += value
            snap.buckets[index] = snap.buckets.get(index, 0) + 1
            if snap.minimum is None or value < snap.minimum:
                snap.minimum = value
            if snap.maximum is None or value > snap.maximum:
                snap.maximum = value

    @property
    def count(self) -> int:
        return self._snapshot.count

    @property
    def total(self) -> float:
        return self._snapshot.total

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            snap = self._snapshot
            return HistogramSnapshot(
                count=snap.count,
                total=snap.total,
                minimum=snap.minimum,
                maximum=snap.maximum,
                buckets=dict(snap.buckets),
            )


# ---------------------------------------------------------------------------
# snapshots & the registry
# ---------------------------------------------------------------------------
@dataclass
class MetricsSnapshot:
    """A registry frozen to plain data (picklable, mergeable).

    The merge protocol of the process executor backend: workers
    snapshot around each query, ship the :meth:`delta` home with the
    result, and the parent :meth:`merge`-s it — counter totals come out
    identical to a serial run because integer sums are associative and
    every increment lands in exactly one delta window.
    """

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> None:
        """Fold ``other`` into this snapshot."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        # gauges are point-in-time: last writer wins
        self.gauges.update(other.gauges)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = HistogramSnapshot(
                    count=hist.count,
                    total=hist.total,
                    minimum=hist.minimum,
                    maximum=hist.maximum,
                    buckets=dict(hist.buckets),
                )
            else:
                mine.merge(hist)

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Instrument activity accrued since ``earlier``."""
        counters = {
            name: value - earlier.counters.get(name, 0)
            for name, value in self.counters.items()
            if value - earlier.counters.get(name, 0)
        }
        histograms = {}
        for name, hist in self.histograms.items():
            before = earlier.histograms.get(name)
            d = hist.delta(before) if before is not None else hist
            if d.count:
                histograms[name] = d
        return MetricsSnapshot(
            counters=counters,
            gauges=dict(self.gauges),
            histograms=histograms,
        )

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly form (the ``repro stats`` exchange format)."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: hist.as_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MetricsSnapshot":
        """Inverse of :meth:`as_dict` (tolerates missing sections)."""
        counters = dict(payload.get("counters", {}))  # type: ignore[arg-type]
        gauges = dict(payload.get("gauges", {}))  # type: ignore[arg-type]
        histograms: Dict[str, HistogramSnapshot] = {}
        raw = payload.get("histograms", {})
        if isinstance(raw, Mapping):
            for name, entry in raw.items():
                if not isinstance(entry, Mapping):
                    continue
                histograms[str(name)] = HistogramSnapshot(
                    count=int(entry.get("count", 0)),
                    total=float(entry.get("total", 0.0)),
                    minimum=entry.get("min"),  # type: ignore[arg-type]
                    maximum=entry.get("max"),  # type: ignore[arg-type]
                    buckets={
                        int(k): int(v)
                        for k, v in dict(
                            entry.get("buckets", {})  # type: ignore[arg-type]
                        ).items()
                    },
                )
        return cls(
            counters={str(k): int(v) for k, v in counters.items()},
            gauges={str(k): float(v) for k, v in gauges.items()},
            histograms=histograms,
        )


class MetricsRegistry:
    """Get-or-create instrument store for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        found = self._counters.get(name)
        if found is None:
            with self._lock:
                found = self._counters.setdefault(name, Counter(name))
        return found

    def gauge(self, name: str) -> Gauge:
        found = self._gauges.get(name)
        if found is None:
            with self._lock:
                found = self._gauges.setdefault(name, Gauge(name))
        return found

    def histogram(self, name: str) -> Histogram:
        found = self._histograms.get(name)
        if found is None:
            with self._lock:
                found = self._histograms.setdefault(name, Histogram(name))
        return found

    def names(self) -> List[str]:
        """Every instrument name, sorted (deterministic renderings)."""
        with self._lock:
            return sorted(
                list(self._counters)
                + list(self._gauges)
                + list(self._histograms)
            )

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the registry to plain data."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return MetricsSnapshot(
            counters={name: c.value for name, c in counters},
            gauges={name: g.value for name, g in gauges},
            histograms={name: h.snapshot() for name, h in histograms},
        )

    def merge(self, snapshot: MetricsSnapshot) -> None:
        """Fold a snapshot (a worker's delta) into live instruments."""
        for name, value in snapshot.counters.items():
            if value:
                self.counter(name).inc(value)
        for name, value in snapshot.gauges.items():
            self.gauge(name).set(value)
        for name, hist in snapshot.histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = self.histogram(name)
            with mine._lock:
                mine._snapshot.merge(hist)

    def clear(self) -> None:
        """Drop every instrument (tests and fresh runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def as_dict(self) -> Dict[str, object]:
        return self.snapshot().as_dict()


# ---------------------------------------------------------------------------
# the no-op twins (the disabled mode)
# ---------------------------------------------------------------------------
class NullCounter:
    """Does nothing, costs one method call."""

    __slots__ = ()
    name = "null"

    def inc(self, amount: int = 1) -> None:
        pass

    @property
    def value(self) -> int:
        return 0


class NullGauge:
    __slots__ = ()
    name = "null"

    def set(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0


class NullHistogram:
    __slots__ = ()
    name = "null"

    def observe(self, value: float) -> None:
        pass

    @property
    def count(self) -> int:
        return 0

    @property
    def total(self) -> float:
        return 0.0

    def snapshot(self) -> HistogramSnapshot:
        return HistogramSnapshot()


class NullRegistry:
    """Hands out the shared no-op instruments; never stores anything."""

    __slots__ = ()

    def counter(self, name: str) -> NullCounter:
        return NULL_COUNTER

    def gauge(self, name: str) -> NullGauge:
        return NULL_GAUGE

    def histogram(self, name: str) -> NullHistogram:
        return NULL_HISTOGRAM

    def names(self) -> List[str]:
        return []

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()

    def merge(self, snapshot: MetricsSnapshot) -> None:
        pass

    def clear(self) -> None:
        pass

    def as_dict(self) -> Dict[str, object]:
        return MetricsSnapshot().as_dict()


NULL_COUNTER = NullCounter()
NULL_GAUGE = NullGauge()
NULL_HISTOGRAM = NullHistogram()
NULL_REGISTRY = NullRegistry()


def _render_rows(snapshot: MetricsSnapshot) -> Iterator[str]:
    if snapshot.counters:
        yield "counters:"
        for name, value in sorted(snapshot.counters.items()):
            yield f"  {name:<40} {value}"
    if snapshot.gauges:
        yield "gauges:"
        for name, value in sorted(snapshot.gauges.items()):
            yield f"  {name:<40} {value:g}"
    if snapshot.histograms:
        yield "histograms:"
        for name, hist in sorted(snapshot.histograms.items()):
            mean = hist.mean
            p50 = hist.quantile(0.5)
            p99 = hist.quantile(0.99)
            yield (
                f"  {name:<40} n={hist.count} mean="
                f"{mean:.6g} p50<={p50:.6g} p99<={p99:.6g} "
                f"min={hist.minimum:.6g} max={hist.maximum:.6g}"
            )


def render_snapshot(snapshot: MetricsSnapshot) -> str:
    """Human-readable table of one snapshot (the CLI's view)."""
    rows = list(_render_rows(snapshot))
    if not rows:
        return "(no metrics recorded)"
    return "\n".join(rows)
