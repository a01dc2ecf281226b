"""Backbone node wiring and NOC polling."""

import numpy as np
import pytest

from repro.netmon.node import Node
from repro.netmon.noc import CollectionAgent, PollRecord
from repro.netmon.objects import t1_object_set
from repro.trace.trace import Trace


def steady_trace(seconds=4, pps=100):
    n = seconds * pps
    return Trace(
        timestamps_us=np.linspace(
            0, seconds * 1_000_000 - 1, n
        ).astype(np.int64),
        sizes=[200] * n,
    )


def t1_node(name, capacity_pps, granularity=1):
    """An NNStat-era T1 NSS: one interface, the full Table 1 set."""
    return Node(
        name,
        interfaces=("t1",),
        granularity=granularity,
        capacity_pps=capacity_pps,
        objects=t1_object_set(),
    )


def t3_node(name):
    """An ARTS node with a single T3 interface subsystem."""
    return Node(name, interfaces=("t3",))


def recorded_batches(node, iface):
    """Record the size of every batch ``iface`` forwards."""
    sizes = []
    interface = node.interfaces[iface]
    forward = interface.forward_second

    def forward_and_record(batch):
        sizes.append(len(batch))
        return forward(batch)

    interface.forward_second = forward_and_record
    return sizes


class TestBackboneNode:
    def test_snmp_counts_everything(self):
        node = t1_node("n", capacity_pps=10)
        node.process_traces({"t1": steady_trace(seconds=3, pps=100)})
        assert node.snmp_total_packets() == 300

    def test_collector_limited_by_capacity(self):
        node = t1_node("n", capacity_pps=60)
        node.process_traces({"t1": steady_trace(seconds=3, pps=100)})
        assert node.characterized_packets == 180
        assert node.dropped_packets == 120

    def test_per_second_batching(self):
        """process_traces must feed whole-second batches."""
        node = t1_node("n", capacity_pps=10_000)
        sizes = recorded_batches(node, "t1")
        node.process_traces({"t1": steady_trace(seconds=4, pps=50)})
        assert sizes == [50, 50, 50, 50]

    def test_seconds_count_from_the_first_packet(self):
        """A trace starting mid-second is cut from its first packet."""
        trace = Trace(
            timestamps_us=[600_000, 900_000, 1_500_000, 1_700_000],
            sizes=[100] * 4,
        )
        node = t1_node("n", capacity_pps=2)
        sizes = recorded_batches(node, "t1")
        node.process_traces({"t1": trace})
        assert sizes == [3, 1]
        assert node.characterized_packets == 3
        assert node.dropped_packets == 1

    def test_seconds_count_from_the_earliest_interface(self):
        node = Node("n", interfaces=("a", "b"), granularity=1)
        sizes = {name: recorded_batches(node, name) for name in ("a", "b")}
        node.process_traces(
            {
                "a": Trace(timestamps_us=[1_400_000, 2_300_000], sizes=[40] * 2),
                "b": Trace(timestamps_us=[500_000, 1_600_000], sizes=[40] * 2),
            }
        )
        assert sizes == {"a": [1, 1], "b": [1, 1]}

    def test_empty_trace(self):
        node = t1_node("n", capacity_pps=10)
        node.process_traces({"t1": Trace.empty()})
        assert node.snmp_total_packets() == 0

    def test_unknown_interface_rejected_even_when_empty(self):
        node = t1_node("n", capacity_pps=10)
        with pytest.raises(ValueError, match="unknown"):
            node.process_traces({"atm": Trace.empty()})

    def test_snapshot_and_reset(self):
        node = t3_node("n")
        node.process_traces({"t3": steady_trace(seconds=2)})
        snap = node.snapshot()
        assert snap["node"] == "n"
        assert snap["interfaces"]["t3"]["packets"] == 200
        node.reset()
        assert node.snmp_total_packets() == 0
        assert node.characterized_packets == 0


class TestCollectionAgent:
    def test_poll_cycle_records(self):
        node = t3_node("enss")
        agent = CollectionAgent([node], poll_period_s=2)
        records = agent.run({"enss": {"t3": steady_trace(seconds=4, pps=100)}})
        assert len(records) == 2
        assert all(isinstance(r, PollRecord) for r in records)
        assert [r.snmp_packets for r in records] == [200, 200]

    def test_counters_reset_between_cycles(self):
        node = t1_node("enss", capacity_pps=10_000)
        agent = CollectionAgent([node], poll_period_s=1)
        records = agent.run({"enss": {"t1": steady_trace(seconds=3, pps=50)}})
        assert [r.snmp_packets for r in records] == [50, 50, 50]

    def test_multiple_nodes(self):
        nodes = [t3_node("a"), t3_node("b")]
        agent = CollectionAgent(nodes, poll_period_s=2)
        records = agent.run(
            {
                "a": {"t3": steady_trace(seconds=2)},
                "b": {"t3": steady_trace(seconds=2)},
            }
        )
        assert {r.node for r in records} == {"a", "b"}

    def test_polls_a_multi_interface_node(self):
        node = Node("enss", interfaces=("t3", "fddi"), granularity=10)
        agent = CollectionAgent([node], poll_period_s=2)
        records = agent.run(
            {
                "enss": {
                    "t3": steady_trace(seconds=4, pps=100),
                    "fddi": steady_trace(seconds=4, pps=50),
                }
            }
        )
        assert [r.snmp_packets for r in records] == [300, 300]
        for record in records:
            assert record.snapshot["interfaces"] == {
                "t3": {"packets": 200, "bytes": 40_000},
                "fddi": {"packets": 100, "bytes": 20_000},
            }
            assert record.snapshot["characterized_packets"] == 30
            assert record.snapshot["dropped_packets"] == 0

    def test_node_series(self):
        nodes = [t3_node("a"), t3_node("b")]
        agent = CollectionAgent(nodes, poll_period_s=1)
        agent.run(
            {
                "a": {"t3": steady_trace(seconds=2)},
                "b": {"t3": steady_trace(seconds=2)},
            }
        )
        series = agent.node_series("a")
        assert [r.cycle for r in series] == [0, 1]

    def test_node_without_traffic_still_polled(self):
        nodes = [t3_node("a"), t3_node("idle")]
        agent = CollectionAgent(nodes, poll_period_s=2)
        records = agent.run({"a": {"t3": steady_trace(seconds=2)}})
        idle = [r for r in records if r.node == "idle"]
        assert idle[0].snmp_packets == 0

    def test_unknown_node_traffic_rejected(self):
        agent = CollectionAgent([t3_node("a")])
        with pytest.raises(ValueError, match="unknown"):
            agent.run({"ghost": {"t3": steady_trace()}})

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            CollectionAgent([])
        with pytest.raises(ValueError, match="period"):
            CollectionAgent([t3_node("a")], poll_period_s=0)
        node = t3_node("a")
        with pytest.raises(ValueError, match="unique"):
            CollectionAgent([node, t3_node("a")])


class TestFigure1Mechanism:
    """The paper's Figure 1 story, end to end on synthetic traffic."""

    def test_discrepancy_grows_with_load_and_sampling_fixes_it(
        self, minute_trace
    ):
        # Unsampled collector below peak load: categorization loses
        # a visible fraction of traffic relative to SNMP.
        lossy = t1_node("t1", capacity_pps=300)
        lossy.process_traces({"t1": minute_trace})
        snmp = lossy.snmp_total_packets()
        seen = lossy.characterized_packets
        assert (snmp - seen) / snmp > 0.1

        # The September 1991 fix: 1-in-50 selection before examination.
        sampled = t1_node("t1s", capacity_pps=300, granularity=50)
        sampled.process_traces({"t1": minute_trace})
        estimate = sampled.estimated_total_packets()
        assert abs(estimate - snmp) / snmp < 0.01
