"""Human-readable run reports assembled from a run directory.

``repro-traffic report <run-dir>`` answers the operational questions a
manifest full of raw numbers does not: where the wall-clock went
(per-phase breakdown across engine spans and worker phases), which
shards were slowest, and the exact retry/fault timeline of a run that
survived failures.  Everything is sourced from the two observability
artifacts the engine writes — ``manifest.json`` and ``events.jsonl`` —
so a report can be produced long after the run, on another machine,
with no recomputation.
"""

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.events import EVENTS_FILENAME, METRICS_FILENAME, Event, read_events

#: Event kinds shown on the retry/fault timeline, in display order of
#: their ``seq`` numbers.
TIMELINE_KINDS = (
    "fault_injected",
    "retry",
    "quarantine",
    "pool_rebuild",
    "serial_fallback",
)

#: Manifest fields the report formats as numbers: the run's counts and
#: times, each shard's, and each span timer's.
_RUN_NUMBERS = (
    "shards_total",
    "shards_executed",
    "shards_skipped",
    "wall_s",
    "worker_utilization",
    "packets_per_s",
)
_SHARD_NUMBERS = ("wall_s", "packets")
_TIMER_NUMBERS = ("total_s", "count", "max_s")


def _numbers(mapping: Dict[str, Any], names: Any) -> bool:
    """Whether each of ``names`` that ``mapping`` holds is a finite number."""
    return all(
        isinstance(mapping[name], (int, float)) and math.isfinite(mapping[name])
        for name in names
        if name in mapping
    )


def _is_shard(shard: Any) -> bool:
    """Whether a manifest's shard entry has numbers where they belong."""
    phases = (shard.get("phases") or {}) if isinstance(shard, dict) else None
    return (
        isinstance(phases, dict)
        and _numbers(shard, _SHARD_NUMBERS)
        and _numbers(phases, phases)
    )


def _shape_error(manifest: Any) -> Optional[str]:
    """What in a manifest the report cannot read, or ``None``."""
    if not isinstance(manifest, dict):
        return "not a JSON object"
    if not _numbers(manifest, _RUN_NUMBERS):
        return "a count or time is not a number"
    if not isinstance(manifest.get("quarantined", []), list):
        return "'quarantined' is not a list"
    shards = manifest.get("shards", [])
    if not isinstance(shards, list) or not all(_is_shard(s) for s in shards):
        return "'shards' is not a list of shard objects"
    obs = manifest.get("obs", {})
    timers = obs.get("timers", {}) if isinstance(obs, dict) else None
    if not isinstance(timers, dict) or not all(
        isinstance(timer, dict) and _numbers(timer, _TIMER_NUMBERS)
        for timer in timers.values()
    ):
        return "'obs.timers' is not an object of timer objects"
    return None


def _human_count(value: float) -> str:
    """A compact count: 1234 -> '1234', 1234567 -> '1.23M'."""
    if value >= 1e9:
        return "%.2fG" % (value / 1e9)
    if value >= 1e6:
        return "%.2fM" % (value / 1e6)
    if value >= 1e4:
        return "%.1fk" % (value / 1e3)
    return "%d" % value


def format_phase_table(phases: Dict[str, Dict[str, float]]) -> str:
    """Render a per-phase timing table (shared by report and --profile).

    ``phases`` maps phase name to ``{"total_s", "count", "max_s"}``;
    the share column is each phase's fraction of the summed totals.
    """
    if not phases:
        return "  (no phase timings recorded)"
    busy = sum(stats.get("total_s", 0.0) for stats in phases.values())
    lines = [
        "  %-24s %9s %7s %7s %9s"
        % ("phase", "total_s", "share", "count", "max_s")
    ]
    ordered = sorted(
        phases.items(), key=lambda item: -item[1].get("total_s", 0.0)
    )
    for name, stats in ordered:
        total = stats.get("total_s", 0.0)
        share = 100.0 * total / busy if busy > 0 else 0.0
        lines.append(
            "  %-24s %9.3f %6.1f%% %7d %9.4f"
            % (
                name,
                total,
                share,
                stats.get("count", 0),
                stats.get("max_s", 0.0),
            )
        )
    return "\n".join(lines)


def _timeline_line(event: Event) -> str:
    parts = []
    for key in ("shard", "attempt", "fault"):
        value = event.get(key)
        if value is not None:
            parts.append("%s=%s" % (key, value))
    detail = event.get("detail")
    if detail:
        parts.append(str(detail))
    return "  [%4d] %-15s %s" % (event.seq, event.kind, " ".join(parts))


@dataclass
class RunReport:
    """A run directory's observability data, ready to render."""

    run_dir: str
    manifest: Dict[str, Any]
    events: List[Event] = field(default_factory=list)

    @classmethod
    def from_run_dir(cls, run_dir: str) -> "RunReport":
        """Load ``manifest.json`` (required) and ``events.jsonl`` (if any).

        A manifest that is not JSON, or whose fields the report cannot
        read as the types it renders, raises ``ValueError`` naming the
        file.
        """
        manifest_path = os.path.join(run_dir, "manifest.json")
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(
                "%s has no manifest.json: only experiment and reproduce "
                "write one; for a monitor or adapt run dir use "
                "'repro-traffic report --metrics %s'" % (run_dir, run_dir)
            )
        with open(manifest_path) as stream:
            manifest = json.load(stream)
        problem = _shape_error(manifest)
        if problem is not None:
            raise ValueError("%s: %s" % (manifest_path, problem))
        events = read_events(os.path.join(run_dir, EVENTS_FILENAME))
        return cls(run_dir=run_dir, manifest=manifest, events=events)

    # ------------------------------------------------------------------
    # sections

    def phase_breakdown(self) -> Dict[str, Dict[str, float]]:
        """Engine span timers merged with summed worker phase timings."""
        phases: Dict[str, Dict[str, float]] = {}
        obs = self.manifest.get("obs", {})
        for name, stats in obs.get("timers", {}).items():
            phases["engine:%s" % name] = dict(stats)
        for shard in self.manifest.get("shards", ()):
            for name, seconds in (shard.get("phases") or {}).items():
                stats = phases.setdefault(
                    "worker:%s" % name,
                    {"total_s": 0.0, "count": 0, "max_s": 0.0},
                )
                stats["total_s"] += seconds
                stats["count"] += 1
                if seconds > stats["max_s"]:
                    stats["max_s"] = seconds
        return phases

    def slowest_shards(self, top: int = 10) -> List[Dict[str, Any]]:
        executed = [
            shard
            for shard in self.manifest.get("shards", ())
            if not shard.get("cached")
        ]
        executed.sort(key=lambda shard: -shard.get("wall_s", 0.0))
        return executed[:top]

    def timeline(self) -> List[Event]:
        return [e for e in self.events if e.kind in TIMELINE_KINDS]

    # ------------------------------------------------------------------
    # rendering

    def render(self, top: int = 10) -> str:
        manifest = self.manifest
        total = manifest.get("shards_total", 0)
        executed = manifest.get("shards_executed", 0)
        replayed = manifest.get("shards_skipped", 0)
        quarantined = manifest.get("quarantined", [])
        wall = manifest.get("wall_s", 0.0)
        lines = [
            "run report — %s" % self.run_dir,
            "  shards      : %d total / %d executed / %d replayed / "
            "%d quarantined" % (total, executed, replayed, len(quarantined)),
            "  jobs        : %-6s wall-clock : %.3f s"
            % (manifest.get("jobs", "?"), wall),
            "  utilization : %-6.2f throughput : %s packets/s"
            % (
                manifest.get("worker_utilization", 0.0),
                _human_count(manifest.get("packets_per_s", 0.0)),
            ),
        ]
        if manifest.get("degraded_to_serial"):
            lines.append("  NOTE: the pool collapsed repeatedly and the run "
                         "degraded to serial execution")
        if manifest.get("chaos") is not None:
            lines.append("  chaos       : fault injection was active "
                         "(see manifest 'chaos')")

        lines.append("")
        lines.append("phase breakdown (busy seconds, engine spans + worker "
                     "phases)")
        lines.append(format_phase_table(self.phase_breakdown()))

        slowest = self.slowest_shards(top)
        lines.append("")
        lines.append(
            "slowest shards (top %d of %d executed)" % (len(slowest), executed)
        )
        if slowest:
            lines.append(
                "  %-32s %9s %10s %8s"
                % ("key", "wall_s", "packets", "worker")
            )
            for shard in slowest:
                lines.append(
                    "  %-32s %9.4f %10d %8s"
                    % (
                        shard.get("key", "?"),
                        shard.get("wall_s", 0.0),
                        shard.get("packets", 0),
                        shard.get("worker", "?"),
                    )
                )
        else:
            lines.append("  (no shards executed)")

        timeline = self.timeline()
        lines.append("")
        lines.append("retry / fault timeline (%d event%s)"
                     % (len(timeline), "" if len(timeline) == 1 else "s"))
        if timeline:
            lines.extend(_timeline_line(event) for event in timeline)
        else:
            lines.append("  (clean run: no faults, retries, or rebuilds)")

        if quarantined:
            lines.append("")
            lines.append("quarantined shards (excluded from the merged result)")
            lines.extend("  %s" % key for key in quarantined)
        return "\n".join(lines)


def render_metrics(run_dir: str) -> Optional[str]:
    """The run's Prometheus exposition text, if the run wrote one."""
    path = os.path.join(run_dir, METRICS_FILENAME)
    if not os.path.exists(path):
        return None
    with open(path) as stream:
        return stream.read()
