"""Full NOC pipeline on realistic traffic: multi-cycle collection."""

import numpy as np
import pytest

from repro.netmon.node import Node
from repro.netmon.noc import CollectionAgent
from repro.netmon.objects import t1_object_set


@pytest.fixture(scope="module")
def noc_run(request):
    """Five minutes of real synthetic traffic through two nodes,
    polled on a one-minute cycle."""
    trace = request.getfixturevalue("five_minute_trace")
    nodes = [
        Node("t3-enss", interfaces=("t3",), granularity=50),
        Node(
            "t1-nss",
            interfaces=("t1",),
            granularity=1,
            capacity_pps=300,
            objects=t1_object_set(),
        ),
    ]
    agent = CollectionAgent(nodes, poll_period_s=60)
    records = agent.run({"t3-enss": {"t3": trace}, "t1-nss": {"t1": trace}})
    return trace, agent, records


class TestMultiCycleCollection:
    def test_five_cycles_per_node(self, noc_run):
        _trace, agent, records = noc_run
        # Five full one-minute cycles, plus possibly a near-empty sixth
        # (trace generation commits the packet that crosses the 300 s
        # boundary).
        assert len(records) in (10, 12)
        assert len(agent.node_series("t3-enss")) in (5, 6)

    def test_snmp_totals_sum_to_trace(self, noc_run):
        trace, agent, _records = noc_run
        total = sum(r.snmp_packets for r in agent.node_series("t3-enss"))
        assert total == len(trace)

    def test_sampled_estimates_track_each_cycle(self, noc_run):
        _trace, agent, _records = noc_run
        full_cycles = [
            r for r in agent.node_series("t3-enss") if r.snmp_packets > 1000
        ]
        assert len(full_cycles) == 5
        for record in full_cycles:
            characterized = record.snapshot["characterized_packets"]
            estimate = characterized * 50
            assert estimate == pytest.approx(record.snmp_packets, rel=0.03)

    def test_overloaded_t1_loses_categorization_each_cycle(self, noc_run):
        _trace, agent, _records = noc_run
        full_cycles = [
            r for r in agent.node_series("t1-nss") if r.snmp_packets > 1000
        ]
        assert len(full_cycles) == 5
        for record in full_cycles:
            characterized = record.snapshot["characterized_packets"]
            # The 300 pps budget is below the ~425 pps offered load.
            assert characterized < record.snmp_packets
            assert record.snapshot["dropped_packets"] > 0

    def test_objects_reset_between_cycles(self, noc_run):
        """Matrix totals per cycle match that cycle's characterized count."""
        _trace, agent, _records = noc_run
        for record in agent.node_series("t3-enss"):
            matrix_pkts = sum(
                record.snapshot["objects"]["net-matrix"]["packets"].values()
            )
            assert matrix_pkts == record.snapshot["characterized_packets"]

    def test_port_mix_stable_across_cycles(self, noc_run):
        """The sampled port mix is consistent cycle to cycle."""
        _trace, agent, _records = noc_run
        telnet_shares = []
        for record in agent.node_series("t3-enss"):
            ports = record.snapshot["objects"]["port-distribution"]["packets"]
            total = sum(ports.values())
            if total:
                telnet_shares.append(ports.get(23, 0) / total)
        assert len(telnet_shares) >= 5
        assert np.std(telnet_shares) < 0.05
