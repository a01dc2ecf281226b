"""ARTS-style sampled collection (the T3 design).

On the T3 backbone, packet forwarding happens in intelligent interface
subsystems; "accommodating the statistics collection required placing
the software which selects IP packets for traffic characterization
into the firmware of the subsystems themselves.  Each subsystem
forwards its selected packets, currently every fiftieth, to the main
CPU, where the ARTS software package performs the traffic
characterization" (Section 2).  Multiple subsystems forward to the
node processor in parallel.

:class:`ArtsCollector` models one node's ARTS pipeline: per-subsystem
1-in-N firmware selection, a main-CPU characterization budget (far
smaller than line rate — the whole point of the design), and
scale-by-N estimation of totals.
"""

from typing import Dict, List, Optional

from repro.core.sampling.streaming import StreamingSystematic
from repro.netmon.objects import StatisticalObject, t3_object_set
from repro.trace.trace import Trace

#: The operational setting on the T3 backbone: every fiftieth packet.
T3_SAMPLING_GRANULARITY = 50


class Subsystem(StreamingSystematic):
    """One interface card's firmware packet selector.

    Every granularity-th packet, the count carried from one batch to
    the next: the streaming systematic selector, one batch at a time.
    """

    def __init__(self, granularity: int) -> None:
        super().__init__(granularity)
        self.forwarded_packets = 0

    def select(self, batch: Trace) -> Trace:
        """The batch's selected packets, phase carried across batches."""
        selected = batch.select(self.kept_positions(batch.timestamps_us))
        self.forwarded_packets += len(selected)
        return selected


class ArtsCollector:
    """A T3 node's sampled characterization pipeline.

    Parameters
    ----------
    granularity:
        Firmware selection granularity N (production value 50).
    cpu_capacity_pps:
        Selected packets the main CPU can characterize per second.
    objects:
        Statistical objects; defaults to the T3 subset of Table 1.
    """

    def __init__(
        self,
        granularity: int = T3_SAMPLING_GRANULARITY,
        cpu_capacity_pps: int = 2000,
        objects: Optional[List[StatisticalObject]] = None,
    ) -> None:
        if cpu_capacity_pps < 1:
            raise ValueError("CPU capacity must be at least 1 packet/s")
        self.granularity = granularity
        self.cpu_capacity_pps = cpu_capacity_pps
        self.objects = objects if objects is not None else t3_object_set()
        self.subsystem = Subsystem(granularity)
        self.characterized_packets = 0
        self.dropped_packets = 0

    def process_second(self, batch: Trace) -> None:
        """One second of interface traffic through firmware + CPU."""
        selected = self.subsystem.select(batch)
        characterized = selected
        if len(selected) > self.cpu_capacity_pps:
            characterized = selected.slice_packets(0, self.cpu_capacity_pps)
            self.dropped_packets += len(selected) - self.cpu_capacity_pps
        self.characterized_packets += len(characterized)
        for obj in self.objects:
            obj.observe(characterized)

    def snapshot(self) -> Dict:
        """Object snapshots plus pipeline health counters."""
        return {
            "characterized_packets": self.characterized_packets,
            "dropped_packets": self.dropped_packets,
            "granularity": self.granularity,
            "objects": {obj.name: obj.snapshot() for obj in self.objects},
        }

    def reset(self) -> None:
        """Poll-cycle reset of objects and health counters."""
        self.characterized_packets = 0
        self.dropped_packets = 0
        for obj in self.objects:
            obj.reset()

    def estimated_total_packets(self) -> int:
        """Characterized count scaled back up by the granularity."""
        return self.characterized_packets * self.granularity
