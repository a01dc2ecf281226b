"""``repro.obs`` — the execution engine's observability layer.

Spans, counters, gauges, a structured JSONL event log, Prometheus-style
text exposition, and the human-readable run report behind
``repro-traffic report``.  Zero dependencies, deterministic-safe (no
wall-clock values in event payloads, no RNG interaction), and near-free
when disabled (:data:`NULL_OBS`).

Typical engine-side use::

    obs = Instrumentation(profile=True)
    with obs.span("checkpoint_io"):
        journal.append(...)
    obs.counter("shards_completed").inc()
    obs.event("retry", shard=key, attempt=2, detail="...")

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
    SCHEMA_VERSION,
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
    "RunReport",
    "SCHEMA_VERSION",
    "SpanNode",
    "format_phase_table",
    "read_events",
    "render_metrics",
    "render_prometheus",
    "span_tree",
    "write_events",
    "write_run_dir",
]
