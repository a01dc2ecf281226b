"""A backbone collection node: the one pipeline of Section 2.

Both NSFNET backbones collected statistics the same way.  Every
forwarded packet increments the SNMP interface counters ("incremented
in the mainstream of packet forwarding, they are more reliable").
Packets are selected 1-in-k for characterization: on the T1 NSS,
k = 1 until September 1991 and 50 after ("only every fiftieth packet
header is captured"); on the T3, k = 50 "in the firmware of the
subsystems themselves", where "multiple subsystems, including those
connected to T3, Ethernet, and FDDI external interfaces, forward to
the RS/6000 processor in parallel".  A processor then characterizes
only what its per-second budget allows — by mid-1991 the T1's "was
unable to keep up with the total nodal traffic flow", which is
Figure 1's SNMP-vs-NNStat gap.

:class:`Node` models that: named :class:`Interface` s, each counting
every packet and selecting 1-in-k with its phase carried across
seconds; their selections merged in time order and offered to one CPU
that characterizes at most ``capacity_pps`` of them per second into
the Table 1 objects.  A T1 NSS is a one-interface node with k = 1 (or
50) and :func:`~repro.netmon.objects.t1_object_set`; a T3 node is a
three-interface node with k = 50.
"""

from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.sampling.streaming import StreamingSystematic
from repro.netmon.objects import StatisticalObject, t3_object_set
from repro.netmon.snmp import InterfaceCounters
from repro.obs.instrument import NULL_OBS
from repro.trace.trace import Trace

_US_PER_S = 1_000_000


class Interface:
    """One external interface: SNMP counters and a firmware selector."""

    def __init__(self, granularity: int) -> None:
        self.counters = InterfaceCounters()
        self.selector = StreamingSystematic(granularity)

    def forward_second(self, batch: Trace) -> Trace:
        """Count every packet of ``batch``; return the selected ones."""
        self.counters.forward(batch)
        return batch.select(self.selector.kept_positions(batch.timestamps_us))


class Node:
    """A backbone node: interfaces feeding one characterization CPU.

    Parameters
    ----------
    name:
        Node identifier.
    interfaces:
        External interface names, each with its own counters and
        firmware selector.
    granularity:
        The k of the 1-in-k selection in every interface.
    capacity_pps:
        Selected packets the CPU can characterize per second, across
        all interfaces together.
    objects:
        Statistical objects; defaults to the T3 subset of Table 1.
    obs:
        Observability sink (an :class:`repro.obs.Instrumentation` or
        the shared null instance).  Records offered/characterized/
        dropped counters and the high-water per-second load on the CPU
        — the budget telemetry the live monitor exposes.
    """

    def __init__(
        self,
        name: str,
        interfaces: Sequence[str] = ("t3", "ethernet", "fddi"),
        granularity: int = 50,
        capacity_pps: int = 2000,
        objects: Optional[List[StatisticalObject]] = None,
        obs: Any = NULL_OBS,
    ) -> None:
        if not interfaces:
            raise ValueError("a node needs at least one interface")
        if len(set(interfaces)) != len(interfaces):
            raise ValueError("interface names must be unique")
        if capacity_pps < 1:
            raise ValueError("capacity must be at least 1 packet/s")
        self.name = name
        self.granularity = granularity
        self.capacity_pps = capacity_pps
        self.interfaces: Dict[str, Interface] = {
            iface: Interface(granularity) for iface in interfaces
        }
        self.objects = objects if objects is not None else t3_object_set()
        self.obs = obs
        self.characterized_packets = 0
        self.dropped_packets = 0
        self.ht_estimated_packets = 0.0

    def _reject_unknown(self, traffic: Mapping[str, Trace]) -> None:
        if not traffic.keys() <= self.interfaces.keys():
            unknown = sorted(traffic.keys() - self.interfaces.keys())
            raise ValueError("traffic for unknown interfaces: %s" % unknown)

    def process_second(self, traffic: Mapping[str, Trace]) -> None:
        """One second of traffic, mapped by interface name.

        The interfaces select from their own streams; the selections
        merge in time order and the CPU characterizes the first
        ``capacity_pps`` of them.  The rest are the second's tail: the
        processor falls behind and never catches up before the next
        second's arrivals.
        """
        self._reject_unknown(traffic)
        offered = Trace.merge(
            [
                self.interfaces[iface].forward_second(batch)
                for iface, batch in traffic.items()
            ]
        )
        n_offered = len(offered)
        n_characterized = min(n_offered, self.capacity_pps)
        characterized = offered
        obs = self.obs
        if n_characterized < n_offered:
            characterized = offered.slice_packets(0, n_characterized)
            self.dropped_packets += n_offered - n_characterized
            obs.counter("t3_cpu_dropped_packets").inc(n_offered - n_characterized)
        obs.counter("t3_cpu_offered_packets").inc(n_offered)
        obs.counter("t3_characterized_packets").inc(n_characterized)
        obs.gauge("t3_cpu_offered_pps_max").high(n_offered)
        obs.gauge("t3_sampling_granularity").set(self.granularity)
        self.characterized_packets += n_characterized
        # Horvitz-Thompson: each second's characterized packets carry
        # the inverse of the selection probability in force *now*, so
        # the total stays unbiased when the granularity is re-keyed
        # mid-run (repro.adaptive.T3BudgetDriver).
        self.ht_estimated_packets += n_characterized * self.granularity
        for obj in self.objects:
            obj.observe(characterized)

    def process_traces(self, traffic: Mapping[str, Trace]) -> None:
        """Forward whole traces, mapped by interface name, second by second.

        Seconds count from the earliest packet offered to any
        interface in this call.
        """
        self._reject_unknown(traffic)
        live = {iface: trace for iface, trace in traffic.items() if len(trace)}
        if not live:
            return
        origin = min(int(t.timestamps_us[0]) for t in live.values())
        last = max(int(t.timestamps_us[-1]) for t in live.values())
        edges = origin + _US_PER_S * np.arange((last - origin) // _US_PER_S + 2)
        bounds = {
            iface: np.searchsorted(trace.timestamps_us, edges).tolist()
            for iface, trace in live.items()
        }
        for s in range(len(edges) - 1):
            self.process_second(
                {
                    iface: trace.slice_packets(bounds[iface][s], bounds[iface][s + 1])
                    for iface, trace in live.items()
                }
            )

    def set_granularity(self, granularity: int) -> None:
        """Re-key every interface's firmware selector to 1-in-k.

        Applied between seconds by the adaptive budget driver; each
        selector is re-keyed as the streaming selectors are at
        quality-window boundaries, its phase carried modulo the new k.
        """
        for iface in self.interfaces.values():
            iface.selector.rekey(granularity)
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
        """Per-interface counters, CPU health and object snapshots."""
        return {
            "node": self.name,
            "interfaces": {
                name: iface.counters.snapshot()
                for name, iface in self.interfaces.items()
            },
            "granularity": self.granularity,
            "characterized_packets": self.characterized_packets,
            "dropped_packets": self.dropped_packets,
            "objects": {obj.name: obj.snapshot() for obj in self.objects},
        }

    def reset(self) -> None:
        """Poll-cycle reset of counters, CPU health and objects."""
        for iface in self.interfaces.values():
            iface.counters.reset()
        self.characterized_packets = 0
        self.dropped_packets = 0
        self.ht_estimated_packets = 0.0
        for obj in self.objects:
            obj.reset()
