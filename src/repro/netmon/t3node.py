"""A full T3 node: parallel interface subsystems feeding one main CPU.

"The T3 network design offloaded the packet forwarding process onto
intelligent subsystems ... Each subsystem forwards its selected
packets, currently every fiftieth, to the main CPU, where the ARTS
software package performs the traffic characterization based on these
sampled packets.  Note that multiple subsystems, including those
connected to T3, Ethernet, and FDDI external interfaces, forward to
the RS/6000 processor in parallel."  (Section 2)

:class:`T3Node` models exactly that: per-interface SNMP counters and
firmware 1-in-N selectors, whose selected streams are time-merged and
offered to a single capacity-limited characterization CPU.
"""

from typing import Any, Dict, List, Optional

import numpy as np

from repro.netmon.arts import Subsystem, T3_SAMPLING_GRANULARITY
from repro.netmon.objects import StatisticalObject, t3_object_set
from repro.netmon.snmp import InterfaceCounters
from repro.obs.instrument import NULL_OBS
from repro.trace.trace import Trace


class T3Interface:
    """One external interface: forwarding counters + firmware selector."""

    def __init__(self, name: str, granularity: int) -> None:
        self.name = name
        self.counters = InterfaceCounters()
        self.subsystem = Subsystem(granularity)

    def forward_second(self, batch: Trace) -> Trace:
        """Forward one second of traffic; return the selected packets."""
        self.counters.forward(batch)
        return self.subsystem.select(batch)


class T3Node:
    """A T3 backbone node with multiple parallel subsystems.

    Parameters
    ----------
    name:
        Node identifier.
    interfaces:
        External interface names (e.g. ``("t3", "ethernet", "fddi")``).
    granularity:
        Firmware selection granularity applied in every subsystem.
    cpu_capacity_pps:
        Selected packets the main CPU can characterize per second,
        across all subsystems together.
    objects:
        Statistical objects; defaults to the T3 subset of Table 1.
    obs:
        Observability sink (an :class:`repro.obs.Instrumentation` or
        the shared null instance).  Records offered/characterized/
        dropped counters and the high-water per-second load on the
        characterization CPU — the budget telemetry the live monitor
        exposes.
    """

    def __init__(
        self,
        name: str,
        interfaces: tuple = ("t3", "ethernet", "fddi"),
        granularity: int = T3_SAMPLING_GRANULARITY,
        cpu_capacity_pps: int = 2000,
        objects: Optional[List[StatisticalObject]] = None,
        obs: Any = NULL_OBS,
    ) -> None:
        if not interfaces:
            raise ValueError("a node needs at least one interface")
        if len(set(interfaces)) != len(interfaces):
            raise ValueError("interface names must be unique")
        if cpu_capacity_pps < 1:
            raise ValueError("CPU capacity must be at least 1 packet/s")
        self.name = name
        self.granularity = granularity
        self.cpu_capacity_pps = cpu_capacity_pps
        self.interfaces: Dict[str, T3Interface] = {
            iface: T3Interface(iface, granularity) for iface in interfaces
        }
        self.objects = objects if objects is not None else t3_object_set()
        self.obs = obs
        self.characterized_packets = 0
        self.dropped_packets = 0
        self.ht_estimated_packets = 0.0

    def process_second(self, traffic: Dict[str, Trace]) -> None:
        """One second of traffic per interface, in parallel.

        Each subsystem selects from its own stream; the selected
        packets are merged in time order and offered to the CPU, whose
        per-second budget applies to the merged stream.
        """
        unknown = set(traffic) - set(self.interfaces)
        if unknown:
            raise ValueError("traffic for unknown interfaces: %s" % sorted(unknown))
        selected = [
            self.interfaces[iface].forward_second(batch)
            for iface, batch in traffic.items()
        ]
        merged = Trace.merge(selected)
        characterized = merged
        if len(merged) > self.cpu_capacity_pps:
            characterized = merged.slice_packets(0, self.cpu_capacity_pps)
            dropped = len(merged) - self.cpu_capacity_pps
            self.dropped_packets += dropped
            self.obs.counter("t3_cpu_dropped_packets").inc(dropped)
        self.obs.counter("t3_cpu_offered_packets").inc(len(merged))
        self.obs.counter("t3_characterized_packets").inc(len(characterized))
        self.obs.gauge("t3_cpu_offered_pps_max").high(len(merged))
        self.obs.gauge("t3_sampling_granularity").set(self.granularity)
        self.characterized_packets += len(characterized)
        # Horvitz-Thompson: each second's characterized packets carry
        # the inverse of the selection probability in force *now*, so
        # the total stays unbiased when the granularity is re-keyed
        # mid-run (repro.adaptive.T3BudgetDriver).
        self.ht_estimated_packets += len(characterized) * self.granularity
        for obj in self.objects:
            obj.observe(characterized)

    def process_traces(self, traffic: Dict[str, Trace]) -> None:
        """Run whole traces through the node, second-aligned."""
        if not traffic:
            return
        horizon_us = max(
            (int(t.timestamps_us[-1]) + 1 for t in traffic.values() if len(t)),
            default=0,
        )
        n_seconds = -(-horizon_us // 1_000_000)
        boundaries = {}
        for iface, trace in traffic.items():
            seconds = trace.timestamps_us // 1_000_000
            boundaries[iface] = np.searchsorted(
                seconds, np.arange(n_seconds + 1), side="left"
            )
        for s in range(int(n_seconds)):
            batches = {
                iface: trace.slice_packets(
                    int(boundaries[iface][s]), int(boundaries[iface][s + 1])
                )
                for iface, trace in traffic.items()
            }
            self.process_second(batches)

    def set_granularity(self, granularity: int) -> None:
        """Re-key every subsystem's firmware selector to 1-in-k.

        Applied between seconds by the adaptive budget driver; each
        subsystem is re-keyed as the streaming selectors are at
        quality-window boundaries, its phase carried modulo the new k.
        """
        for iface in self.interfaces.values():
            iface.subsystem.rekey(granularity)
        self.granularity = granularity

    def snmp_total_packets(self) -> int:
        """Forwarding-path packet total across all interfaces."""
        return sum(i.counters.packets for i in self.interfaces.values())

    def estimated_total_packets(self) -> int:
        """Characterized count scaled back up by the granularity.

        Exact only while the granularity never changed; after adaptive
        re-keying use :meth:`horvitz_thompson_total`.
        """
        return self.characterized_packets * self.granularity

    def horvitz_thompson_total(self) -> float:
        """Unbiased packet-total estimate across granularity changes."""
        return self.ht_estimated_packets

    def snapshot(self) -> Dict:
        """Per-interface counters, pipeline health, object snapshots."""
        return {
            "node": self.name,
            "interfaces": {
                name: iface.counters.snapshot()
                for name, iface in self.interfaces.items()
            },
            "characterized_packets": self.characterized_packets,
            "dropped_packets": self.dropped_packets,
            "objects": {obj.name: obj.snapshot() for obj in self.objects},
        }

    def reset(self) -> None:
        """Poll-cycle reset of counters, health, and objects."""
        for iface in self.interfaces.values():
            iface.counters.reset()
        self.characterized_packets = 0
        self.dropped_packets = 0
        self.ht_estimated_packets = 0.0
        for obj in self.objects:
            obj.reset()
