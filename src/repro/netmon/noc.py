"""The NOC's central collection agent.

"Every fifteen minutes, the central agent at the NOC running the
collection software queries each of the backbone nodes, which report
and then reset their object counters" (Section 2).
:class:`CollectionAgent` drives a set of nodes through their
interfaces' traffic in poll-cycle chunks and accumulates the per-cycle
reports.
"""

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.netmon.node import Node
from repro.obs.instrument import NULL_OBS
from repro.trace.filters import time_window
from repro.trace.trace import Trace

#: The operational NOC polling period.
POLL_PERIOD_S = 15 * 60


@dataclass(frozen=True)
class PollRecord:
    """One node's report for one poll cycle."""

    cycle: int
    node: str
    snapshot: Dict

    @property
    def snmp_packets(self) -> int:
        """Forwarding-path packet count for the cycle, all interfaces."""
        return sum(i["packets"] for i in self.snapshot["interfaces"].values())


class CollectionAgent:
    """Polls nodes on a fixed cycle and stores their reports."""

    def __init__(
        self,
        nodes: List[Node],
        poll_period_s: int = POLL_PERIOD_S,
        obs: Any = NULL_OBS,
    ) -> None:
        if not nodes:
            raise ValueError("the agent needs at least one node")
        if poll_period_s < 1:
            raise ValueError("poll period must be at least a second")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise ValueError("node names must be unique: %r" % (names,))
        self.nodes = list(nodes)
        self.poll_period_s = poll_period_s
        self.obs = obs
        self.records: List[PollRecord] = []

    def run(self, traffic: Dict[str, Dict[str, Trace]]) -> List[PollRecord]:
        """Drive each node through its traffic, polling on the cycle.

        ``traffic`` maps node name to ``{interface name: trace}``, the
        traffic entering that node.  All traces share a time origin;
        cycles are aligned wall-clock windows of ``poll_period_s``.
        """
        unknown = set(traffic) - {n.name for n in self.nodes}
        if unknown:
            raise ValueError("traffic for unknown nodes: %s" % sorted(unknown))
        horizon_us = max(
            (
                int(t.timestamps_us[-1]) + 1
                for node_traffic in traffic.values()
                for t in node_traffic.values()
                if len(t)
            ),
            default=0,
        )
        n_cycles = -(-horizon_us // (self.poll_period_s * 1_000_000))
        for cycle in range(int(n_cycles)):
            start = cycle * self.poll_period_s * 1_000_000
            stop = start + self.poll_period_s * 1_000_000
            for node in self.nodes:
                node.process_traces(
                    {
                        iface: time_window(trace, start, stop)
                        for iface, trace in traffic.get(node.name, {}).items()
                    }
                )
                record = PollRecord(cycle, node.name, node.snapshot())
                self.records.append(record)
                self._record_poll_telemetry(record)
                node.reset()
        return self.records

    def _record_poll_telemetry(self, record: PollRecord) -> None:
        """Per-poll counters and a structured event through ``obs``.

        Free when observability is off (``obs`` defaults to the shared
        null instrumentation); with it on, every poll cycle becomes a
        ``poll`` event carrying the node's forwarding-path count and
        its CPU's characterized/dropped counts — the live drop-rate
        feedback Section 2 says operators were missing.
        """
        characterized = record.snapshot["characterized_packets"]
        dropped = record.snapshot["dropped_packets"]
        packets = record.snmp_packets
        obs = self.obs
        obs.counter("netmon_polls").inc()
        obs.counter("netmon_forwarded_packets").inc(packets)
        obs.counter("netmon_examined_packets").inc(characterized)
        obs.counter("netmon_dropped_packets").inc(dropped)
        offered = characterized + dropped
        if offered:
            obs.gauge("netmon_drop_rate").set(dropped / offered)
        obs.event(
            "poll",
            cycle=record.cycle,
            node=record.node,
            packets=packets,
            examined=characterized,
            dropped=dropped,
        )

    def node_series(self, node: str) -> List[PollRecord]:
        """All poll records of one node, in cycle order."""
        return [r for r in self.records if r.node == node]
