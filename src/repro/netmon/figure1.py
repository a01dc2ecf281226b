"""The Figure 1 simulation as a reusable function.

Figure 1 of the paper plots the T1 backbone's packet totals as counted
by SNMP (forwarding path, reliable) and by NNStat (dedicated collector,
lossy under load) across months of traffic growth, with the September
1991 deployment of 1-in-50 sampling closing the gap.

:func:`simulate_collection_history` replays the mechanism over a
configurable load schedule; the Figure 1 benchmark and the
``nsfnet_collection`` example are thin wrappers around it.
"""

from dataclasses import dataclass
from typing import List, Sequence

from repro.netmon.node import Node
from repro.netmon.objects import t1_object_set
from repro.workload.generator import TraceGenerator
from repro.workload.rates import RateProcess


@dataclass(frozen=True)
class CollectionMonth:
    """One simulated month of the Figure 1 series."""

    month: int
    offered_pps: float
    snmp_packets: int
    categorized_packets: int
    sampled: bool

    @property
    def discrepancy(self) -> float:
        """Relative shortfall of the categorized estimate vs SNMP."""
        if self.snmp_packets == 0:
            return 0.0
        return (self.snmp_packets - self.categorized_packets) / self.snmp_packets


def simulate_collection_history(
    monthly_loads: Sequence[float],
    collector_capacity_pps: int = 500,
    sampling_deployed_at: int = 5,
    sampling_granularity: int = 50,
    seconds_per_month: int = 60,
    seed: int = 500,
) -> List[CollectionMonth]:
    """Replay the SNMP-vs-NNStat history over a load schedule.

    Parameters
    ----------
    monthly_loads:
        Mean offered packet rate (pps) for each simulated month.
    collector_capacity_pps:
        The dedicated processor's examination budget.
    sampling_deployed_at:
        Zero-based month index at which 1-in-k selection is enabled in
        front of the collector (the September 1991 fix).  Use a value
        past the schedule's end to simulate never deploying it.
    sampling_granularity:
        The k of the deployed selection.
    seconds_per_month:
        Simulated traffic per month; the phenomenon is rate-driven, so
        a minute per month reproduces the shape of years.
    seed:
        Base seed; each month draws from ``seed + month``.
    """
    if not monthly_loads:
        raise ValueError("need at least one month of load")
    if any(load <= 0 for load in monthly_loads):
        raise ValueError("monthly loads must be positive")
    if seconds_per_month < 1:
        raise ValueError("need at least one second per month")
    if sampling_deployed_at < 0:
        raise ValueError("deployment month cannot be negative")

    months: List[CollectionMonth] = []
    for month, load in enumerate(monthly_loads):
        sampled = month >= sampling_deployed_at
        trace = TraceGenerator(
            seed=seed + month,
            duration_s=seconds_per_month,
            rate_process=RateProcess(
                mean=float(load), std=float(load) * 0.2, skewness=0.96
            ),
        ).generate()
        node = Node(
            "t1-nss",
            interfaces=("t1",),
            granularity=sampling_granularity if sampled else 1,
            capacity_pps=collector_capacity_pps,
            objects=t1_object_set(),
        )
        node.process_traces({"t1": trace})
        months.append(
            CollectionMonth(
                month=month,
                offered_pps=float(load),
                snmp_packets=node.snmp_total_packets(),
                categorized_packets=node.estimated_total_packets(),
                sampled=sampled,
            )
        )
    return months
