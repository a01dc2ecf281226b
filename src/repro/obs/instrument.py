"""One metrics registry: spans, counters, gauges, histograms, windows.

The engine's question during a slow sweep is always the same: *where
did the time go?*  The live monitor's is *how good is the sample right
now?*  :class:`Instrumentation` answers both with one registry whose
primitives are all safe to leave compiled into the hot path:

* **spans** — nested, monotonic-clock timed sections
  (``with obs.span("checkpoint_io"): ...``).  Every span aggregates
  into a per-name timer (total seconds, call count, max) and, when
  profiling is on, emits paired ``span_start``/``span_end`` events
  into the run's event log;
* **counters** — monotonically increasing totals (shards completed,
  packets sampled, alerts raised);
* **gauges** — last-or-high-water values (the bytes of the trace a
  pool maps, kept under its old name ``shared_memory_bytes``, peak
  worker RSS, the latest window's φ);
* **histograms** — fixed-edge cumulative bin counts
  (:class:`~repro.stats.streams.RunningHistogram`), the live monitor's
  parent and sampled distributions;
* **windows** — a :class:`RingBuffer` of the last
  :data:`WINDOW_HISTORY` closed quality windows.

One snapshot of the registry feeds every consumer: the run manifest's
``obs`` block and, through
:func:`~repro.obs.exposition.render_prometheus`, ``metrics.prom``, a
``--metrics-out`` textfile and the ``/metrics`` port.

Nothing grows with the stream except the event log: counters, gauges,
timers and histograms are O(1) per name, and the window ring forgets
its oldest entries.  :meth:`Instrumentation.merge` is exact for the
cumulative state — two disjoint streams' registries combine into
precisely the registry one pass over the concatenated stream would
hold.

Determinism contract
--------------------
Instrumentation must never perturb results.  Nothing here touches an
RNG, and every recorded duration comes from ``time.perf_counter`` (a
monotonic clock), never from wall-clock time — event payloads carry no
wall-clock-derived values, so bit-identity checks over sweep records
are unaffected whether instrumentation is on, off, or replayed.

Disabled cost
-------------
:data:`NULL_OBS` implements the engine's surface as no-ops: ``span()``
returns a shared, reusable null context manager and ``counter()`` /
``gauge()`` return a shared metric whose methods do nothing.  A
disabled call is one attribute lookup and an empty method body — the
engine keeps a single code path instead of ``if obs is not None``
forests.
"""

import time
from collections import deque
from typing import Any, Deque, Dict, Generic, Iterator, List, Optional, Sequence, TypeVar

from repro.stats.streams import RunningHistogram

#: Event-log schema version (see :mod:`repro.obs.events`).
SCHEMA_VERSION = 1

#: Capacity of every registry's window ring (:attr:`Instrumentation.windows`).
WINDOW_HISTORY = 256

T = TypeVar("T")


class Counter:
    """A named, monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n


class Gauge:
    """A named point-in-time value with a high-water helper."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def high(self, value: float) -> None:
        """Keep the maximum of the current and offered value."""
        if value > self.value:
            self.value = value


class RingBuffer(Generic[T]):
    """A fixed-capacity FIFO; appending past capacity drops the oldest.

    ``dropped`` counts evictions so consumers can tell a complete
    history from a truncated one.
    """

    __slots__ = ("capacity", "dropped", "_items")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1, got %d" % capacity)
        self.capacity = capacity
        self.dropped = 0
        self._items: Deque[T] = deque(maxlen=capacity)

    def append(self, item: T) -> None:
        if len(self._items) == self.capacity:
            self.dropped += 1
        self._items.append(item)

    def latest(self) -> Optional[T]:
        """The most recently appended item, or ``None`` when empty."""
        return self._items[-1] if self._items else None

    def to_list(self) -> List[T]:
        """Oldest-to-newest copy of the retained items."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)


class _Timer:
    """Aggregated statistics of one span name."""

    __slots__ = ("total_s", "count", "max_s")

    def __init__(self) -> None:
        self.total_s = 0.0
        self.count = 0
        self.max_s = 0.0

    def add(self, duration_s: float) -> None:
        self.total_s += duration_s
        self.count += 1
        if duration_s > self.max_s:
            self.max_s = duration_s


class _Span:
    """One active span: a context manager bound to its instrumentation.

    Spans form a stack per :class:`Instrumentation` (the engine's
    supervision loop is single-threaded, so a plain list suffices);
    the parent of a span is whatever was on top when it entered.
    """

    __slots__ = ("_obs", "name", "span_id", "parent_id", "_started")

    def __init__(self, obs: "Instrumentation", name: str) -> None:
        self._obs = obs
        self.name = name
        self.span_id = -1
        self.parent_id: Optional[int] = None
        self._started = 0.0

    def __enter__(self) -> "_Span":
        obs = self._obs
        obs._next_span += 1
        self.span_id = obs._next_span
        stack = obs._stack
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        if obs.profile:
            obs.event(
                "span_start",
                name=self.name,
                span=self.span_id,
                parent=self.parent_id,
            )
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration_s = time.perf_counter() - self._started
        obs = self._obs
        if obs._stack and obs._stack[-1] is self:
            obs._stack.pop()
        timer = obs._timers.get(self.name)
        if timer is None:
            timer = obs._timers[self.name] = _Timer()
        timer.add(duration_s)
        if obs.profile:
            obs.event(
                "span_end",
                name=self.name,
                span=self.span_id,
                parent=self.parent_id,
                dur_s=round(duration_s, 6),
            )


class _NullMetric:
    """Shared no-op counter/gauge for disabled instrumentation."""

    __slots__ = ()
    value = 0

    def inc(self, n: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def high(self, value: float) -> None:
        pass


class _NullSpan:
    """Shared no-op context manager for disabled instrumentation."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_METRIC = _NullMetric()
_NULL_SPAN = _NullSpan()


class Instrumentation:
    """A run's metrics registry and event log.

    Parameters
    ----------
    profile:
        Emit ``span_start``/``span_end`` events for every span.  Off,
        spans still aggregate into timers (that is what the manifest
        and report consume); on, the event log additionally records
        the full span tree for deep dives.

    Events accumulate in memory (ordered by a monotone ``seq``) and
    are written to ``events.jsonl`` at the end of the run by whoever
    owns the run directory — durability of *results* is the checkpoint
    journal's job, not the event log's.  ``windows`` holds the last
    :data:`WINDOW_HISTORY` closed quality windows as plain JSON-able
    dicts, for callers that want a recent history without logging
    every window.
    """

    enabled = True

    def __init__(self, profile: bool = False) -> None:
        self.profile = profile
        self.events: List[Dict[str, Any]] = []
        self._seq = 0
        self._next_span = 0
        self._stack: List[_Span] = []
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, _Timer] = {}
        self._histograms: Dict[str, RunningHistogram] = {}
        self.windows: RingBuffer[Dict[str, Any]] = RingBuffer(WINDOW_HISTORY)

    # ------------------------------------------------------------------
    # primitives

    def span(self, name: str) -> _Span:
        """A timed, nested section (use as a context manager)."""
        return _Span(self, name)

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge(name)
        return gauge

    def histogram(self, name: str, edges: Sequence[float]) -> RunningHistogram:
        """The named cumulative histogram, created on first use.

        Re-registering an existing name with different edges raises —
        a silent edge change would corrupt the accumulated counts.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = RunningHistogram(edges)
            return histogram
        if list(histogram.edges) != [float(edge) for edge in edges]:
            raise ValueError(
                "histogram %r already registered with different edges" % name
            )
        return histogram

    def histograms(self) -> Dict[str, RunningHistogram]:
        """Name-to-histogram mapping (shared objects, not copies)."""
        return dict(self._histograms)

    def event(self, kind: str, **payload: Any) -> None:
        """Append one structured event (``None`` values are dropped)."""
        self._seq += 1
        entry: Dict[str, Any] = {"v": SCHEMA_VERSION, "seq": self._seq, "kind": kind}
        for key, value in payload.items():
            if value is not None:
                entry[key] = value
        self.events.append(entry)

    # ------------------------------------------------------------------
    # merge / export

    def merge(self, other: "Instrumentation") -> "Instrumentation":
        """Exact combination of two disjoint streams' registries.

        Counters add, gauges keep the maximum, histograms add bin-wise
        (mismatched edges raise), and span timers add their totals and
        counts and keep the larger maximum.  The window rings
        interleave by window start time; the merged ring keeps the
        newest entries.  Events are not merged: an event log is one
        run's timeline, not a statistic.
        """
        merged = Instrumentation()
        for name in sorted(set(self._counters) | set(other._counters)):
            total = 0.0
            for side in (self, other):
                counter = side._counters.get(name)
                if counter is not None:
                    total += counter.value
            merged.counter(name).inc(total)
        for name in sorted(set(self._gauges) | set(other._gauges)):
            for side in (self, other):
                gauge = side._gauges.get(name)
                if gauge is not None:
                    merged.gauge(name).high(gauge.value)
        for name in sorted(set(self._timers) | set(other._timers)):
            timer = merged._timers[name] = _Timer()
            for side in (self, other):
                part = side._timers.get(name)
                if part is not None:
                    timer.total_s += part.total_s
                    timer.count += part.count
                    timer.max_s = max(timer.max_s, part.max_s)
        for name in sorted(set(self._histograms) | set(other._histograms)):
            mine = self._histograms.get(name)
            theirs = other._histograms.get(name)
            if mine is not None and theirs is not None:
                combined = mine.merge(theirs)
            else:
                source = mine if mine is not None else theirs
                assert source is not None
                combined = source.merge(RunningHistogram(source.edges))
            merged._histograms[name] = combined
        ordered = sorted(
            self.windows.to_list() + other.windows.to_list(),
            key=lambda window: (window.get("start_us", 0), window.get("window", 0)),
        )
        for entry in ordered:
            merged.windows.append(entry)
        return merged

    def snapshot(self) -> Dict[str, Any]:
        """Counters, gauges, span timers and histograms as a JSON-able
        mapping — what the manifest records and the renderer reads."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: gauge.value for name, gauge in sorted(self._gauges.items())
            },
            "timers": {
                name: {
                    "total_s": round(timer.total_s, 6),
                    "count": timer.count,
                    "max_s": round(timer.max_s, 6),
                }
                for name, timer in sorted(self._timers.items())
            },
            "histograms": {
                name: {
                    "edges": [float(edge) for edge in histogram.edges],
                    "counts": [int(count) for count in histogram.counts],
                    "total": histogram.total,
                }
                for name, histogram in sorted(self._histograms.items())
            },
        }


class NullInstrumentation:
    """The disabled twin of :class:`Instrumentation`: every call no-ops.

    Covers the engine's surface (spans, counters, gauges, events,
    snapshots) so engine code never branches on whether observability
    is on; use the shared :data:`NULL_OBS` instance.  The live
    monitor's histograms and window ring have no null twin — a
    disabled monitor is :data:`~repro.obs.live.NULL_MONITOR`.
    """

    enabled = False
    profile = False
    #: Always empty; present so export paths can iterate uniformly.
    events: List[Dict[str, Any]] = []

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def event(self, kind: str, **payload: Any) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "timers": {}}


#: The shared disabled instance — near-free on every call.
NULL_OBS = NullInstrumentation()
