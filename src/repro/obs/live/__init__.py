"""``repro.obs.live`` — streaming observability for the online path.

Where :mod:`repro.obs` watches the *batch* sweep engine, this
subpackage watches packets as they flow: an online sampled-vs-parent
quality monitor (windowed φ / χ² significance / l₁ cost over the
paper's characterization bins), a threshold + hysteresis alert engine
emitting schema-versioned events through the standard ``events.jsonl``
writer, and OpenMetrics exposition (atomic textfile snapshots plus an
optional ``/metrics`` HTTP endpoint).  The monitor and the alert
engine feed one :class:`~repro.obs.Instrumentation` registry — the
monitor its counters, gauges, histograms and window ring, the alert
engine its events and alert counters — and every exposition path
renders that registry.  Surfaced by the ``repro-traffic monitor`` CLI
subcommand.

Typical monitor-side use::

    obs = Instrumentation()
    monitor = QualityMonitor(window_us=30_000_000, store=obs)
    engine = AlertEngine(
        [AlertRule.from_spec("phi[interarrival]>0.05@3")], obs=obs
    )
    for packet in stream:
        kept = selector.offer(packet.timestamp_us)
        for window in monitor.observe(packet.timestamp_us, packet.size, kept):
            for alert in engine.observe(window):
                ...page someone...

Disabled, :data:`NULL_MONITOR` keeps the same loop near-free and the
keep/skip stream bit-identical.
"""

from repro.obs.live.alerts import AlertEngine, AlertEvent, AlertRule
from repro.obs.live.expose import CONTENT_TYPE, MetricsServer, TextfileExporter
from repro.obs.live.monitor import (
    NULL_MONITOR,
    NullQualityMonitor,
    QualityMonitor,
    WindowStats,
)

__all__ = [
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "CONTENT_TYPE",
    "MetricsServer",
    "NULL_MONITOR",
    "NullQualityMonitor",
    "QualityMonitor",
    "TextfileExporter",
    "WindowStats",
]
