"""NNStat-style dedicated statistics collector with finite capacity.

On the T1 backbone, one RT/PC processor per node examined the header
of every packet crossing the node and fed the NNStat statistical
objects.  "By mid-1991 ... the processor collecting the NNStat data
was unable to keep up with the total nodal traffic flow" (Section 2):
under load, categorization silently loses packets while forwarding
(and SNMP counting) continues.

:class:`NNStatCollector` models that: a per-second packet-examination
budget; packets beyond the budget are never categorized.  With
``sampling_granularity`` > 1 it models the September 1991 fix — only
every fiftieth packet header is captured for categorization, cutting
the examination load by the same factor.
"""

from typing import Dict, List, Optional

from repro.netmon.arts import Subsystem
from repro.netmon.objects import StatisticalObject, t1_object_set
from repro.trace.trace import Trace


class NNStatCollector:
    """A dedicated categorization processor.

    Parameters
    ----------
    capacity_pps:
        Packet headers the processor can examine per second.
    objects:
        Statistical objects to maintain; defaults to the full T1 set.
    sampling_granularity:
        1 examines every packet (pre-September-1991 operation);
        k > 1 selects every k-th packet before examination, reducing
        offered load by k.
    """

    def __init__(
        self,
        capacity_pps: int,
        objects: Optional[List[StatisticalObject]] = None,
        sampling_granularity: int = 1,
    ) -> None:
        if capacity_pps < 1:
            raise ValueError("capacity must be at least 1 packet/s")
        self.capacity_pps = capacity_pps
        self.sampling_granularity = sampling_granularity
        self.firmware = Subsystem(sampling_granularity)
        self.objects = objects if objects is not None else t1_object_set()
        self.examined_packets = 0
        self.dropped_packets = 0

    def process_second(self, batch: Trace) -> None:
        """Feed one second of nodal traffic to the collector.

        Sampling (if configured) happens first, in firmware, at no
        examination cost; the examination budget then applies to the
        selected packets.  Within an overloaded second the excess
        packets are the tail — the processor falls behind and never
        catches up before the next second's arrivals.
        """
        selected = self.firmware.select(batch)
        examined = selected
        if len(selected) > self.capacity_pps:
            examined = selected.slice_packets(0, self.capacity_pps)
            self.dropped_packets += len(selected) - self.capacity_pps
        self.examined_packets += len(examined)
        for obj in self.objects:
            obj.observe(examined)

    def snapshot(self) -> Dict:
        """All object snapshots plus collector health counters."""
        return {
            "examined_packets": self.examined_packets,
            "dropped_packets": self.dropped_packets,
            "objects": {obj.name: obj.snapshot() for obj in self.objects},
        }

    def reset(self) -> None:
        """Poll-cycle reset: objects and health counters."""
        self.examined_packets = 0
        self.dropped_packets = 0
        for obj in self.objects:
            obj.reset()

    def estimated_total_packets(self) -> int:
        """Scale examined counts back up by the sampling granularity."""
        return self.examined_packets * self.sampling_granularity
