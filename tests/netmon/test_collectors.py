"""The collection node's building blocks, in both backbones' settings.

NNStat (the T1 NSS) is a one-interface node with k = 1, or 50 after
September 1991, and the full Table 1 object set.  ARTS (the T3) is a
node whose interface subsystems select 1-in-50 in firmware, with the
T3 subset of the objects.  Both are :class:`~repro.netmon.node.Node`.
"""

import numpy as np
import pytest

from repro.netmon.node import Interface, Node
from repro.netmon.objects import t1_object_set
from repro.netmon.snmp import InterfaceCounters
from repro.trace.trace import Trace


def second_of_packets(n, size=100):
    return Trace(
        timestamps_us=np.linspace(0, 999_999, n).astype(np.int64),
        sizes=[size] * n,
    )


def nnstat_node(capacity_pps, granularity=1):
    """A T1 NSS: one interface, the full Table 1 object set."""
    return Node(
        "t1-nss",
        interfaces=("t1",),
        granularity=granularity,
        capacity_pps=capacity_pps,
        objects=t1_object_set(),
    )


def arts_node(**kwargs):
    """One T3 interface subsystem feeding the ARTS CPU."""
    return Node("t3-enss", interfaces=("t3",), **kwargs)


class TestInterfaceCounters:
    def test_never_drops(self):
        counters = InterfaceCounters()
        counters.forward(second_of_packets(100_000))
        assert counters.packets == 100_000

    def test_snapshot_and_reset(self):
        counters = InterfaceCounters()
        counters.forward(second_of_packets(10))
        assert counters.snapshot() == {"packets": 10, "bytes": 1000}
        counters.reset()
        assert counters.packets == 0


class TestNNStatCollector:
    """The T1 NSS setting: one interface, k = 1 or 50, all objects."""

    def test_under_capacity_examines_all(self):
        node = nnstat_node(capacity_pps=500)
        node.process_second({"t1": second_of_packets(300)})
        assert node.characterized_packets == 300
        assert node.dropped_packets == 0

    def test_over_capacity_drops_excess(self):
        node = nnstat_node(capacity_pps=500)
        node.process_second({"t1": second_of_packets(800)})
        assert node.characterized_packets == 500
        assert node.dropped_packets == 300

    def test_objects_see_only_examined(self):
        node = nnstat_node(capacity_pps=100)
        node.process_second({"t1": second_of_packets(400)})
        matrix = node.objects[0]
        assert matrix.total_packets() == 100

    def test_sampling_reduces_offered_load(self):
        node = nnstat_node(capacity_pps=100, granularity=50)
        node.process_second({"t1": second_of_packets(4000)})
        assert node.characterized_packets == 80
        assert node.dropped_packets == 0

    def test_sampling_phase_continuity(self):
        """Every 50th packet overall, across second boundaries."""
        node = nnstat_node(capacity_pps=10_000, granularity=50)
        node.process_second({"t1": second_of_packets(75)})
        node.process_second({"t1": second_of_packets(75)})
        # Packets 0, 50 from the first batch; global packet 100 is
        # local index 25 of the second batch.
        assert node.characterized_packets == 3

    def test_estimated_total(self):
        node = nnstat_node(capacity_pps=10_000, granularity=50)
        node.process_second({"t1": second_of_packets(5000)})
        assert node.estimated_total_packets() == 5000

    def test_reset(self):
        node = nnstat_node(capacity_pps=100)
        node.process_second({"t1": second_of_packets(400)})
        node.reset()
        assert node.characterized_packets == 0
        assert node.dropped_packets == 0
        assert node.objects[0].total_packets() == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity must be at least 1"):
            nnstat_node(capacity_pps=0)
        with pytest.raises(ValueError):
            nnstat_node(capacity_pps=10, granularity=0)


class TestSubsystem:
    """One interface card: SNMP counters and the firmware selector."""

    def test_selects_every_nth(self):
        iface = Interface(granularity=10)
        selected = iface.forward_second(second_of_packets(100))
        assert len(selected) == 10
        assert iface.counters.packets == 100

    def test_phase_carries_across_batches(self):
        iface = Interface(granularity=50)
        total = 0
        for _ in range(4):
            total += len(iface.forward_second(second_of_packets(75)))
        assert total == 6  # 300 packets / 50

    def test_granularity_one_passthrough(self):
        iface = Interface(granularity=1)
        batch = second_of_packets(42)
        assert iface.forward_second(batch) == batch

    def test_validation(self):
        with pytest.raises(ValueError):
            Interface(granularity=0)


class TestArtsCollector:
    """The T3 setting: 1-in-50 firmware selection, the T3 objects."""

    def test_default_granularity_is_fifty(self):
        assert arts_node().granularity == 50

    def test_characterizes_selected_packets(self):
        node = arts_node(granularity=50, capacity_pps=2000)
        node.process_second({"t3": second_of_packets(5000)})
        assert node.characterized_packets == 100
        assert node.dropped_packets == 0

    def test_cpu_capacity_limits(self):
        node = arts_node(granularity=2, capacity_pps=100)
        node.process_second({"t3": second_of_packets(1000)})
        assert node.characterized_packets == 100
        assert node.dropped_packets == 400

    def test_estimated_total(self):
        node = arts_node(granularity=50, capacity_pps=2000)
        node.process_second({"t3": second_of_packets(5000)})
        assert node.estimated_total_packets() == 5000

    def test_t3_objects_by_default(self):
        names = [o.name for o in arts_node().objects]
        assert names == ["net-matrix", "port-distribution", "protocol-distribution"]

    def test_snapshot_structure(self):
        node = arts_node()
        node.process_second({"t3": second_of_packets(500)})
        snap = node.snapshot()
        assert snap["granularity"] == 50
        assert snap["interfaces"] == {"t3": {"packets": 500, "bytes": 50_000}}
        assert snap["characterized_packets"] == 10
        assert snap["dropped_packets"] == 0
        assert "net-matrix" in snap["objects"]

    def test_reset(self):
        node = arts_node()
        node.process_second({"t3": second_of_packets(500)})
        node.reset()
        assert node.characterized_packets == 0

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity must be at least 1"):
            arts_node(capacity_pps=0)
