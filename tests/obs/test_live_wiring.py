"""Telemetry wiring: NOC polls, T3 CPU budget, and pcap ingest counters."""

import io

import numpy as np
import pytest

from repro.netmon.node import Node
from repro.netmon.noc import CollectionAgent
from repro.netmon.objects import t1_object_set
from repro.obs import Instrumentation
from repro.trace.pcap import iter_pcap, write_pcap
from repro.trace.trace import Trace


def steady_trace(n=4000, iat_us=500, size=100):
    return Trace(
        timestamps_us=np.arange(n, dtype=np.int64) * iat_us,
        sizes=np.full(n, size, dtype=np.int32),
    )


def nnstat_node(name, capacity_pps, granularity=1):
    return Node(
        name,
        interfaces=("t1",),
        granularity=granularity,
        capacity_pps=capacity_pps,
        objects=t1_object_set(),
    )


class TestCollectionAgentTelemetry:
    def overloaded_run(self, obs):
        # 2000 pps offered against a 500 pps collector: drops guaranteed.
        node = nnstat_node("ann", capacity_pps=500)
        agent = CollectionAgent([node], poll_period_s=1, obs=obs)
        return agent.run({"ann": {"t1": steady_trace()}})

    def test_poll_counters_and_drop_rate(self):
        obs = Instrumentation()
        records = self.overloaded_run(obs)

        assert obs.counter("netmon_polls").value == len(records)
        assert obs.counter("netmon_forwarded_packets").value == 4000
        examined = obs.counter("netmon_examined_packets").value
        dropped = obs.counter("netmon_dropped_packets").value
        assert examined + dropped == 4000
        assert dropped > 0
        assert obs.gauge("netmon_drop_rate").value == pytest.approx(
            dropped / 4000
        )

    @pytest.mark.parametrize(
        "make_node",
        [
            lambda: nnstat_node("n", capacity_pps=100, granularity=2),
            lambda: Node("n", interfaces=("t3",), granularity=2, capacity_pps=100),
        ],
        ids=["nnstat", "arts"],
    )
    def test_sampled_node_drop_accounting(self, make_node):
        """1-in-2 of 1,000 pps for 2 s against a 100 pps CPU: the CPU
        is offered 1,000 packets, characterizes 200 and drops 800."""
        node = make_node()
        obs = Instrumentation()
        agent = CollectionAgent([node], poll_period_s=2, obs=obs)
        traffic = steady_trace(n=2000, iat_us=1000)
        records = agent.run({"n": {iface: traffic for iface in node.interfaces}})
        assert len(records) == 1
        assert obs.counter("netmon_examined_packets").value == 200
        assert obs.counter("netmon_dropped_packets").value == 800
        assert obs.gauge("netmon_drop_rate").value == pytest.approx(0.8)
        (poll,) = [e for e in obs.events if e["kind"] == "poll"]
        assert (poll["examined"], poll["dropped"]) == (200, 800)

    def test_drop_rate_is_the_cycles_over_all_nodes(self):
        """A node dropping 800 of 1,000 offered packets is polled before
        one dropping none: the cycle dropped 800 of 2,000."""
        lossy = nnstat_node("lossy", capacity_pps=100, granularity=2)
        ample = nnstat_node("ample", capacity_pps=10_000, granularity=2)
        obs = Instrumentation()
        agent = CollectionAgent([lossy, ample], poll_period_s=2, obs=obs)
        traffic = steady_trace(n=2000, iat_us=1000)
        records = agent.run({"lossy": {"t1": traffic}, "ample": {"t1": traffic}})
        assert [(r.node, r.snapshot["dropped_packets"]) for r in records] == [
            ("lossy", 800),
            ("ample", 0),
        ]
        assert obs.counter("netmon_examined_packets").value == 1200
        assert obs.gauge("netmon_drop_rate").value == pytest.approx(0.4)

    def test_poll_events_mirror_the_records(self):
        obs = Instrumentation()
        records = self.overloaded_run(obs)
        polls = [e for e in obs.events if e["kind"] == "poll"]
        assert len(polls) == len(records)
        for event, record in zip(polls, records):
            assert event["cycle"] == record.cycle
            assert event["node"] == "ann"
            assert event["packets"] == record.snmp_packets

    def test_silent_by_default(self, capsys):
        """Without an obs the agent runs exactly as before: no sink, no cost."""
        plain = CollectionAgent(
            [nnstat_node("ann", capacity_pps=500)], poll_period_s=1
        )
        observed_records = self.overloaded_run(Instrumentation())
        plain_records = plain.run({"ann": {"t1": steady_trace()}})
        assert len(plain_records) == len(observed_records)
        for mine, theirs in zip(plain_records, observed_records):
            assert mine.snmp_packets == theirs.snmp_packets
            for key in ("characterized_packets", "dropped_packets"):
                assert mine.snapshot[key] == theirs.snapshot[key]


class TestT3NodeTelemetry:
    def test_cpu_budget_counters(self):
        obs = Instrumentation()
        node = Node(
            "t3",
            interfaces=("t3",),
            granularity=1,
            capacity_pps=100,
            obs=obs,
        )
        node.process_traces({"t3": steady_trace(n=1000, iat_us=500)})

        offered = obs.counter("t3_cpu_offered_packets").value
        characterized = obs.counter("t3_characterized_packets").value
        dropped = obs.counter("t3_cpu_dropped_packets").value
        assert offered == 1000  # granularity 1: everything reaches the CPU
        assert characterized + dropped == offered
        assert dropped == node.dropped_packets > 0
        # 500us IAT for 1000 packets: everything lands in one second.
        assert obs.gauge("t3_cpu_offered_pps_max").value == 1000

    def test_results_identical_with_and_without_obs(self):
        trace = steady_trace(n=1000)
        plain = Node("a", interfaces=("t3",), capacity_pps=5)
        observed = Node(
            "b", interfaces=("t3",), capacity_pps=5, obs=Instrumentation()
        )
        plain.process_traces({"t3": trace})
        observed.process_traces({"t3": trace})
        assert plain.characterized_packets == observed.characterized_packets
        assert plain.dropped_packets == observed.dropped_packets


class TestIterPcapTelemetry:
    def test_ingest_counters_track_chunks_and_packets(self):
        trace = steady_trace(n=250)
        buffer = io.BytesIO()
        write_pcap(trace, buffer)
        buffer.seek(0)

        obs = Instrumentation()
        chunks = list(iter_pcap(buffer, chunk_packets=100, obs=obs))
        assert [len(c) for c in chunks] == [100, 100, 50]
        assert obs.counter("pcap_chunks").value == 3
        assert obs.counter("pcap_packets").value == 250

    def test_obs_defaults_to_null(self):
        trace = steady_trace(n=10)
        buffer = io.BytesIO()
        write_pcap(trace, buffer)
        buffer.seek(0)
        assert sum(len(c) for c in iter_pcap(buffer)) == 10
