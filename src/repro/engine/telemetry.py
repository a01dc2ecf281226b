"""Run-level observability: where did the sweep's time go?

Every shard's :class:`~repro.engine.worker.ShardResult` reports its
wall time, window size, and the worker that ran it;
:class:`RunTelemetry` aggregates these into the run manifest
(``manifest.json`` in the run directory) so scaling problems — a
straggler granularity, an idle worker, a window whose extraction
dominates — are visible without re-instrumenting anything.

Utilization is the classic pool metric: summed busy time across
workers divided by (run wall time × worker count).  A perfectly packed
pool scores ~1.0; long tails and serialization stalls pull it down.
"""

import json
import os
import time
from typing import Dict, List, Optional

from repro.engine.worker import ShardResult
from repro.obs.instrument import Instrumentation

#: Counter names incremented per recovery event kind (see
#: :meth:`RunTelemetry.record_event`).
_EVENT_COUNTERS = {
    "retry": "shards_retried",
    "quarantine": "shards_quarantined",
    "pool_rebuild": "pool_rebuilds",
    "serial_fallback": "serial_fallbacks",
    "fault_injected": "faults_injected",
}


class RunTelemetry:
    """Collects shard results and renders the run manifest.

    ``obs`` is the run's :class:`~repro.obs.instrument.Instrumentation`
    and the one record of its recovery events: the manifest's retry,
    quarantine and rebuild fields are read back from the events this
    run logged there, so the manifest, the event log, and the
    Prometheus exposition never disagree about what happened.
    """

    def __init__(self, jobs: int, obs: Instrumentation) -> None:
        self.jobs = jobs
        self.obs = obs
        #: Every shard's result, replayed ones included, in completion
        #: order.
        self.timings: List[ShardResult] = []
        #: Description of the run's fault plan, when chaos was injected.
        self.chaos: Optional[dict] = None
        # A registry passed in may hold events of earlier work.
        self._first_event = len(obs.events)
        self._started = time.perf_counter()
        self._wall_s: Optional[float] = None

    def add(self, result: ShardResult) -> None:
        self.timings.append(result)
        if result.maxrss_kb:
            self.obs.gauge("worker_peak_rss_kb").high(result.maxrss_kb)

    def record_event(
        self,
        kind: str,
        shard: Optional[str] = None,
        attempt: Optional[int] = None,
        detail: str = "",
    ) -> None:
        """Log one recovery-path occurrence — a retry, a quarantine, a
        pool rebuild, the fallback to serial execution, or an injected
        fault — and count it."""
        self.obs.counter(_EVENT_COUNTERS[kind]).inc()
        self.obs.event(
            kind, shard=shard, attempt=attempt, detail=detail or None
        )

    def finish(self) -> None:
        """Stop the run clock (idempotent; first call wins)."""
        if self._wall_s is None:
            self._wall_s = time.perf_counter() - self._started

    @property
    def wall_s(self) -> float:
        return (
            self._wall_s
            if self._wall_s is not None
            else time.perf_counter() - self._started
        )

    def summary(self) -> dict:
        """The manifest payload."""
        executed = [t for t in self.timings if not t.cached]
        busy_by_worker: Dict[int, float] = {}
        phase_totals: Dict[str, float] = {}
        for timing in executed:
            busy_by_worker[timing.worker] = (
                busy_by_worker.get(timing.worker, 0.0) + timing.wall_s
            )
            for phase, seconds in timing.phases.items():
                phase_totals[phase] = phase_totals.get(phase, 0.0) + seconds
        busy_s = sum(busy_by_worker.values())
        packets = sum(t.packets for t in executed)
        wall = self.wall_s
        events = [
            e
            for e in self.obs.events[self._first_event:]
            if e["kind"] in _EVENT_COUNTERS
        ]
        kinds = [e["kind"] for e in events]
        payload = {
            "retries": kinds.count("retry"),
            "quarantined": sorted(
                {e["shard"] for e in events if e["kind"] == "quarantine"}
            ),
            "pool_rebuilds": kinds.count("pool_rebuild"),
            "degraded_to_serial": "serial_fallback" in kinds,
            "events": [
                {
                    "kind": e["kind"],
                    "shard": e.get("shard"),
                    "attempt": e.get("attempt"),
                    "detail": e.get("detail", ""),
                }
                for e in events
            ],
            "obs": self.obs.snapshot(),
        }
        if self.chaos is not None:
            payload["chaos"] = self.chaos
        payload.update({
            "jobs": self.jobs,
            "wall_s": wall,
            "shards_total": len(self.timings),
            "shards_executed": len(executed),
            "shards_skipped": len(self.timings) - len(executed),
            "busy_s": busy_s,
            "worker_utilization": (
                busy_s / (wall * self.jobs) if wall > 0 and self.jobs else 0.0
            ),
            "workers": {
                str(pid): round(busy, 6)
                for pid, busy in sorted(busy_by_worker.items())
            },
            "packets_sampled_from": packets,
            "packets_per_s": packets / wall if wall > 0 else 0.0,
            "phase_totals": {
                phase: round(seconds, 6)
                for phase, seconds in sorted(phase_totals.items())
            },
            "shards": [
                self._shard_entry(t) for t in self.timings
            ],
        })
        return payload

    @staticmethod
    def _shard_entry(t: ShardResult) -> dict:
        """One shard's manifest entry (flow summary only when present)."""
        entry = {
            "key": t.key,
            "worker": t.worker,
            "wall_s": round(t.wall_s, 6),
            "packets": t.packets,
            "packets_per_s": round(
                t.packets / t.wall_s if t.wall_s > 0 else 0.0, 3
            ),
            "cached": t.cached,
            "phases": {
                phase: round(seconds, 6)
                for phase, seconds in sorted(t.phases.items())
            },
            "maxrss_kb": t.maxrss_kb,
        }
        if t.flows is not None:
            entry["flows"] = {
                name: t.flows[name] for name in sorted(t.flows)
            }
        return entry

    def write_manifest(self, run_dir: str) -> str:
        """Write ``manifest.json`` under the run directory."""
        path = os.path.join(run_dir, "manifest.json")
        with open(path, "w") as stream:
            json.dump(self.summary(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        return path
