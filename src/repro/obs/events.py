"""The run event log: a structured JSONL record of what the engine did.

Every observable occurrence in a run — spans opening and closing,
faults injected, retries, quarantines, pool rebuilds, the fall back to
serial execution — becomes one JSON line in ``events.jsonl`` under the
run directory.  The log is the raw material for ``repro-traffic
report`` and for any external tooling that wants the run's timeline
without re-parsing human-oriented output.

Schema (version 1)
------------------
Each line is one JSON object:

========  ==============================================================
field     meaning
========  ==============================================================
``v``     schema version (currently ``1``)
``seq``   monotone event sequence number, 1-based; total order of the
          run's events (durations are monotonic-clock deltas, so
          ``seq`` — not a timestamp — is the timeline)
``kind``  event type: ``run_start``, ``run_end``, ``span_start``,
          ``span_end``, ``fault_injected``, ``retry``, ``quarantine``,
          ``pool_rebuild``, ``serial_fallback``, ``shard_done``
(rest)    kind-specific payload; span events carry ``name``, ``span``
          (id), ``parent`` (id or absent for roots) and, on
          ``span_end``, ``dur_s``
========  ==============================================================

Like the checkpoint journal, the reader tolerates a torn final line
(the writing process died mid-write) but refuses interior corruption.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.exposition import render_prometheus
from repro.obs.instrument import SCHEMA_VERSION, Instrumentation

#: File name of the event log inside a run directory.
EVENTS_FILENAME = "events.jsonl"
#: File name of the Prometheus exposition inside a run directory.
METRICS_FILENAME = "metrics.prom"


class EventLogError(ValueError):
    """Raised when an event log is structurally unusable."""


@dataclass(frozen=True)
class Event:
    """One decoded event-log line."""

    seq: int
    kind: str
    data: Dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        return self.data.get(key, default)


def write_events(path: str, events: List[Dict[str, Any]]) -> str:
    """Write an in-memory event list as JSONL (one object per line)."""
    with open(path, "w") as stream:
        for entry in events:
            stream.write(json.dumps(entry, sort_keys=True))
            stream.write("\n")
    return path


def write_run_dir(run_dir: str, obs: Instrumentation) -> None:
    """Write a run directory (created if missing): ``obs``'s event log,
    and the registry rendered by
    :func:`~repro.obs.exposition.render_prometheus` as its metrics file."""
    os.makedirs(run_dir, exist_ok=True)
    write_events(os.path.join(run_dir, EVENTS_FILENAME), obs.events)
    with open(os.path.join(run_dir, METRICS_FILENAME), "w") as stream:
        stream.write(render_prometheus(obs.snapshot()))


def read_events(path: str) -> List[Event]:
    """Decode an event log back into :class:`Event` objects.

    A garbled *final* line is dropped (torn write); a garbled interior
    line or a schema-version mismatch raises :class:`EventLogError`.
    Returns an empty list when the file does not exist — an
    uninstrumented run simply has no events.
    """
    if not os.path.exists(path):
        return []
    with open(path, "r") as stream:
        lines = stream.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    events: List[Event] = []
    for i, line in enumerate(lines):
        last = i == len(lines) - 1
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            if last:
                break
            raise EventLogError(
                "corrupt event line %d in %s" % (i + 1, path)
            )
        if not isinstance(entry, dict) or "kind" not in entry or "seq" not in entry:
            if last:
                break
            raise EventLogError(
                "malformed event line %d in %s" % (i + 1, path)
            )
        if entry.get("v") != SCHEMA_VERSION:
            raise EventLogError(
                "event schema version %r unsupported (want %d)"
                % (entry.get("v"), SCHEMA_VERSION)
            )
        data = {
            key: value
            for key, value in entry.items()
            if key not in ("v", "seq", "kind")
        }
        events.append(Event(seq=int(entry["seq"]), kind=str(entry["kind"]), data=data))
    return events


@dataclass
class SpanNode:
    """One span in the reconstructed tree."""

    name: str
    span_id: int
    parent_id: Optional[int]
    dur_s: Optional[float] = None
    children: List["SpanNode"] = field(default_factory=list)


def span_tree(events: List[Event]) -> List[SpanNode]:
    """Reconstruct the span hierarchy from paired start/end events.

    Enforces stack discipline: every ``span_end`` must close the most
    recently opened span, and parents recorded on the events must match
    the reconstruction.  Raises :class:`EventLogError` on violations —
    this is the invariant the schema tests pin.  Returns the root
    spans; spans still open at the end of the log (the run died inside
    them) are kept, with ``dur_s`` left ``None``.
    """
    roots: List[SpanNode] = []
    stack: List[SpanNode] = []
    for event in events:
        if event.kind == "span_start":
            node = SpanNode(
                name=str(event.get("name")),
                span_id=int(event.get("span")),
                parent_id=event.get("parent"),
            )
            expected_parent = stack[-1].span_id if stack else None
            if node.parent_id != expected_parent:
                raise EventLogError(
                    "span %d (%s) opened under parent %r but span %r was "
                    "active" % (node.span_id, node.name, node.parent_id,
                                expected_parent)
                )
            (stack[-1].children if stack else roots).append(node)
            stack.append(node)
        elif event.kind == "span_end":
            if not stack or stack[-1].span_id != event.get("span"):
                raise EventLogError(
                    "span_end for %r does not close the innermost open span"
                    % (event.get("span"),)
                )
            node = stack.pop()
            node.dur_s = event.get("dur_s")
    return roots
