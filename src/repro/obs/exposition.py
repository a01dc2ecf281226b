"""Prometheus-style text exposition of a metrics registry.

Renders an :meth:`~repro.obs.instrument.Instrumentation.snapshot` in
the Prometheus text format (``# TYPE`` comments plus ``name value``
sample lines, span timers as labeled families, histograms as
cumulative ``_bucket`` series), so a run directory's ``metrics.prom``,
a live ``--metrics-out`` textfile and the ``/metrics`` port all carry
the same text — scrapeable by node-exporter's textfile collector or
diffable between runs with ordinary text tools.  Zero dependencies —
it is just careful string assembly.
"""

import math
from typing import Any, Dict

#: Metric-name prefix for everything this module emits.
PREFIX = "repro"


def _fmt(value: Any) -> str:
    """A Prometheus sample value (integers without a trailing .0)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _bucket_le(edge: float) -> str:
    """The ``le`` label of the bucket that ends at ``edge``.

    A bin holds ``[lo, edge)``, but Prometheus reads ``le`` as "at
    most": the label is the largest double below the edge, so a value
    sitting exactly on an edge (a 400 µs clock puts a quarter of the
    calibrated hour's gaps there) is counted where the label says.
    """
    return repr(math.nextafter(edge, -math.inf))


def render_prometheus(snapshot: Dict[str, Any], prefix: str = PREFIX) -> str:
    """The snapshot as Prometheus exposition text.

    Counters become ``<prefix>_<name>_total``, gauges
    ``<prefix>_<name>``, span timers the three families
    ``<prefix>_span_seconds_total``, ``<prefix>_span_count`` and
    ``<prefix>_span_seconds_max`` labeled by span name, and each
    histogram a ``<prefix>_<name>`` family of cumulative
    ``_bucket{le="..."}`` lines, a ``+Inf`` bucket and ``_count``.
    """
    lines = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        metric = "%s_%s_total" % (prefix, name)
        lines.append("# TYPE %s counter" % metric)
        lines.append("%s %s" % (metric, _fmt(value)))
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        metric = "%s_%s" % (prefix, name)
        lines.append("# TYPE %s gauge" % metric)
        lines.append("%s %s" % (metric, _fmt(value)))
    timers = snapshot.get("timers", {})
    if timers:
        families = (
            ("span_seconds_total", "counter", "total_s"),
            ("span_count", "counter", "count"),
            ("span_seconds_max", "gauge", "max_s"),
        )
        for family, kind, field in families:
            metric = "%s_%s" % (prefix, family)
            lines.append("# TYPE %s %s" % (metric, kind))
            for name, stats in sorted(timers.items()):
                lines.append(
                    '%s{span="%s"} %s'
                    % (metric, _escape_label(name), _fmt(stats[field]))
                )
    for name, data in sorted(snapshot.get("histograms", {}).items()):
        metric = "%s_%s" % (prefix, name)
        lines.append("# TYPE %s histogram" % metric)
        cumulative = 0
        for edge, count in zip(data["edges"], data["counts"]):
            cumulative += count
            lines.append(
                '%s_bucket{le="%s"} %d' % (metric, _bucket_le(edge), cumulative)
            )
        lines.append('%s_bucket{le="+Inf"} %d' % (metric, data["total"]))
        lines.append("%s_count %d" % (metric, data["total"]))
    return "\n".join(lines) + "\n" if lines else ""
