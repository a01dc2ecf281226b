"""Statistics-collection substrate: the NSFNET environment of Section 2.

The paper motivates sampling with the operational history of NSFNET
statistics collection: SNMP interface counters incremented in the
packet-forwarding path (reliable), versus the NNStat categorization
processor that could not keep up with nodal traffic (Figure 1's
growing discrepancy), versus the T3 ARTS design that samples every
fiftieth packet in interface firmware precisely to survive load.

This subpackage is a discrete-event-style simulation of that
environment, driven by the same traces the sampling study uses:

* :mod:`repro.netmon.objects` — the statistical objects of Table 1;
* :mod:`repro.netmon.snmp` — forwarding-path interface counters;
* :mod:`repro.netmon.node` — the one collection node of both
  backbones: interfaces that count every packet and select 1-in-k in
  firmware, feeding one CPU whose per-second budget drops the excess
  (a T1 NSS is one interface at k = 1 or 50, a T3 node three at 50);
* :mod:`repro.netmon.noc` — the central agent polling nodes every
  fifteen minutes and accumulating report series.
"""

from repro.netmon.objects import (
    ArrivalRateHistogram,
    PacketLengthHistogram,
    PortDistribution,
    ProtocolDistribution,
    SizeQuantileObject,
    SourceDestMatrix,
    StatisticalObject,
    VolumeCounter,
    t1_object_set,
    t3_object_set,
)
from repro.netmon.snmp import InterfaceCounters
from repro.netmon.node import Interface, Node
from repro.netmon.noc import CollectionAgent, PollRecord
from repro.netmon.estimation import aligned_counts, object_phi, scale_up_counts
from repro.netmon.heavyhitters import MisraGries, TopNMatrix
from repro.netmon.figure1 import CollectionMonth, simulate_collection_history

__all__ = [
    "ArrivalRateHistogram",
    "PacketLengthHistogram",
    "PortDistribution",
    "ProtocolDistribution",
    "SizeQuantileObject",
    "SourceDestMatrix",
    "StatisticalObject",
    "VolumeCounter",
    "t1_object_set",
    "t3_object_set",
    "InterfaceCounters",
    "Interface",
    "Node",
    "CollectionAgent",
    "PollRecord",
    "aligned_counts",
    "object_phi",
    "scale_up_counts",
    "MisraGries",
    "TopNMatrix",
    "CollectionMonth",
    "simulate_collection_history",
]
