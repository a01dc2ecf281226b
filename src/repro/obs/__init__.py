"""``repro.obs`` — observability for the engine and the online path.

One metrics registry (:class:`Instrumentation`: spans, counters,
gauges, fixed-edge histograms and a window ring, with an exact
``merge``), a structured JSONL event log, one Prometheus-style text
renderer for every ``metrics.prom``, ``--metrics-out`` file and
``/metrics`` port, and the human-readable run report behind
``repro-traffic report``.  Deterministic-safe (no wall-clock values in
event payloads, no RNG interaction), and near-free when disabled
(:data:`NULL_OBS`, for the trace store, the pcap reader, netmon and
alerts; the engine always records into a live registry).  The live monitor that feeds the registry's
histograms and windows is :mod:`repro.obs.live`.

Typical engine-side use::

    obs = Instrumentation(profile=True)
    with obs.span("checkpoint_io"):
        journal.append(...)
    obs.counter("shards_completed").inc()
    obs.event("retry", shard=key, attempt=2, detail="...")
    write_run_dir("runs/sweep-1", obs)

and consumption-side::

    report = RunReport.from_run_dir("runs/sweep-1")
    print(report.render())
"""

from repro.obs.events import (
    EVENTS_FILENAME,
    Event,
    EventLogError,
    SpanNode,
    read_events,
    span_tree,
    write_events,
    write_run_dir,
)
from repro.obs.exposition import render_prometheus
from repro.obs.instrument import (
    NULL_OBS,
    Counter,
    Gauge,
    Instrumentation,
    NullInstrumentation,
    RingBuffer,
    SCHEMA_VERSION,
    WINDOW_HISTORY,
)
from repro.obs.report import RunReport, format_phase_table, render_metrics

__all__ = [
    "Counter",
    "EVENTS_FILENAME",
    "Event",
    "EventLogError",
    "Gauge",
    "Instrumentation",
    "NULL_OBS",
    "NullInstrumentation",
    "RingBuffer",
    "RunReport",
    "SCHEMA_VERSION",
    "SpanNode",
    "WINDOW_HISTORY",
    "format_phase_table",
    "read_events",
    "render_metrics",
    "render_prometheus",
    "span_tree",
    "write_events",
    "write_run_dir",
]
