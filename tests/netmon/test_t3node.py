"""A T3 node: several interface subsystems feeding one CPU."""

import numpy as np
import pytest

from repro.core.sampling.streaming import StreamingSystematic
from repro.netmon.node import Node
from repro.trace.trace import Trace


def second_of_packets(n, start_us=0, size=100):
    return Trace(
        timestamps_us=start_us
        + np.linspace(0, 999_999, n).astype(np.int64),
        sizes=[size] * n,
    )


class TestTraceMerge:
    def test_merge_orders_by_time(self):
        a = Trace(timestamps_us=[0, 2000], sizes=[40, 41])
        b = Trace(timestamps_us=[1000, 3000], sizes=[50, 51])
        merged = Trace.merge([a, b])
        assert list(merged.timestamps_us) == [0, 1000, 2000, 3000]
        assert list(merged.sizes) == [40, 50, 41, 51]

    def test_merge_tie_stability(self):
        a = Trace(timestamps_us=[1000], sizes=[40])
        b = Trace(timestamps_us=[1000], sizes=[50])
        merged = Trace.merge([a, b])
        assert list(merged.sizes) == [40, 50]

    def test_merge_empty_inputs(self):
        assert len(Trace.merge([])) == 0
        assert len(Trace.merge([Trace.empty(), Trace.empty()])) == 0

    def test_merge_returns_a_lone_input_as_is(self, tiny_trace):
        assert Trace.merge([Trace.empty(), tiny_trace]) is tiny_trace

    def test_merge_preserves_columns(self, tiny_trace):
        merged = Trace.merge([tiny_trace.slice_packets(0, 5),
                              tiny_trace.slice_packets(5)])
        assert merged == tiny_trace


class TestT3Node:
    def test_parallel_subsystems_select_independently(self):
        node = Node("enss", granularity=10, capacity_pps=10_000)
        node.process_second(
            {
                "t3": second_of_packets(100),
                "ethernet": second_of_packets(50),
                "fddi": second_of_packets(30),
            }
        )
        assert node.snmp_total_packets() == 180
        assert node.characterized_packets == 10 + 5 + 3

    def test_estimated_total(self):
        node = Node("enss", granularity=10, capacity_pps=10_000)
        node.process_second({"t3": second_of_packets(1000)})
        assert node.estimated_total_packets() == 1000

    def test_cpu_budget_applies_to_merged_stream(self):
        node = Node("enss", granularity=2, capacity_pps=60)
        node.process_second(
            {"t3": second_of_packets(100), "ethernet": second_of_packets(100)}
        )
        assert node.characterized_packets == 60
        assert node.dropped_packets == 40

    def test_subsystem_phase_continuity(self):
        node = Node("enss", interfaces=("t3",), granularity=50,
                    capacity_pps=10_000)
        for s in range(4):
            node.process_second(
                {"t3": second_of_packets(75, start_us=s * 1_000_000)}
            )
        assert node.characterized_packets == 6  # 300 / 50

    def test_process_traces_equivalent_to_seconds(self):
        whole = Trace(
            timestamps_us=np.linspace(0, 2_999_999, 300).astype(np.int64),
            sizes=[100] * 300,
        )
        node_a = Node("a", interfaces=("t3",), granularity=10,
                      capacity_pps=10_000)
        node_a.process_traces({"t3": whole})
        assert node_a.snmp_total_packets() == 300
        assert node_a.characterized_packets == 30

    def test_unknown_interface_rejected(self):
        node = Node("enss", interfaces=("t3",))
        with pytest.raises(ValueError, match="unknown"):
            node.process_second({"atm": second_of_packets(10)})

    def test_snapshot_and_reset(self):
        node = Node("enss", interfaces=("t3", "fddi"), granularity=10,
                    capacity_pps=10_000)
        node.process_second(
            {"t3": second_of_packets(100), "fddi": second_of_packets(50)}
        )
        snap = node.snapshot()
        assert snap["interfaces"]["t3"]["packets"] == 100
        assert snap["interfaces"]["fddi"]["packets"] == 50
        assert "net-matrix" in snap["objects"]
        node.reset()
        assert node.snmp_total_packets() == 0
        assert node.characterized_packets == 0

    def test_missing_interface_traffic_allowed(self):
        node = Node("enss", interfaces=("t3", "fddi"))
        node.process_second({"t3": second_of_packets(100)})
        assert node.snmp_total_packets() == 100

    def test_validation(self):
        with pytest.raises(ValueError, match="interface"):
            Node("x", interfaces=())
        with pytest.raises(ValueError, match="unique"):
            Node("x", interfaces=("t3", "t3"))
        with pytest.raises(ValueError, match="capacity"):
            Node("x", capacity_pps=0)

    def test_accurate_under_realistic_load(self, minute_trace):
        """Three-way split of the minute: estimates still track SNMP."""
        third = len(minute_trace) // 3
        node = Node("enss", capacity_pps=2000)
        node.process_traces(
            {
                "t3": minute_trace.select(np.arange(0, len(minute_trace), 3)),
                "ethernet": minute_trace.select(
                    np.arange(1, len(minute_trace), 3)
                ),
                "fddi": minute_trace.select(
                    np.arange(2, len(minute_trace), 3)
                ),
            }
        )
        snmp = node.snmp_total_packets()
        estimate = node.estimated_total_packets()
        assert snmp == len(minute_trace)
        assert abs(estimate - snmp) / snmp < 0.01


class TestRekeying:
    def test_set_granularity_matches_per_packet_reference(self, minute_trace):
        """Re-keyed firmware selects what a re-keyed per-packet
        StreamingSystematic selects, interface by interface."""
        traffic = {
            "t3": minute_trace.select(np.arange(0, len(minute_trace), 2)),
            "fddi": minute_trace.select(np.arange(1, len(minute_trace), 2)),
        }
        rekeys = {7: 16, 19: 3, 31: 64, 44: 1, 50: 37}
        node = Node("enss", interfaces=tuple(traffic), granularity=50,
                    capacity_pps=10**9)
        selected = {name: [] for name in traffic}

        def recording(name, forward_second):
            def forward_and_record(batch):
                chosen = forward_second(batch)
                selected[name].append(chosen)
                return chosen
            return forward_and_record

        for name, iface in node.interfaces.items():
            iface.forward_second = recording(name, iface.forward_second)

        references = {name: StreamingSystematic(50) for name in traffic}
        decisions = {name: [] for name in traffic}
        n_seconds = int(minute_trace.timestamps_us[-1]) // 1_000_000 + 1
        edges = {
            name: np.searchsorted(
                trace.timestamps_us // 1_000_000, np.arange(n_seconds + 1)
            )
            for name, trace in traffic.items()
        }
        for second in range(n_seconds):
            if second in rekeys:
                node.set_granularity(rekeys[second])
                for reference in references.values():
                    reference.rekey(rekeys[second])
            batches = {
                name: trace.slice_packets(
                    int(edges[name][second]), int(edges[name][second + 1])
                )
                for name, trace in traffic.items()
            }
            node.process_second(batches)
            for name, batch in batches.items():
                decisions[name].extend(
                    references[name].offer(int(t)) for t in batch.timestamps_us
                )

        assert node.granularity == 37
        for name, trace in traffic.items():
            expected = trace.select(np.flatnonzero(decisions[name]))
            assert Trace.concat(selected[name]) == expected
