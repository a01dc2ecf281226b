"""Sampled-flow populations and the streaming accountant."""

import numpy as np
import pytest

from repro.core.sampling.factory import METHOD_NAMES, make_sampler
from repro.core.sampling.streaming import StreamingSystematic
from repro.flows.sampled import (
    FLOW_SIZE_BINS,
    NULL_ACCOUNTANT,
    FlowSet,
    NullFlowAccountant,
    StreamFlowAccountant,
    flow_study,
    parent_flows,
    sampled_flows,
    shard_flow_summary,
    study_from_result,
)
from repro.flows.table import FlowTable, aggregate_trace, iter_flow_keys
from repro.obs import Instrumentation
from repro.trace.filters import prefix_interval


class TestFlowSet:
    def test_summaries(self, tiny_trace):
        population = parent_flows(tiny_trace)
        assert len(population) == len(population.records)
        assert population.total_packets == len(tiny_trace)
        assert population.total_bytes == int(tiny_trace.sizes.sum())
        assert population.mean_size() == pytest.approx(
            len(tiny_trace) / len(population)
        )
        assert population.sizes().dtype == np.int64

    def test_empty(self):
        empty = FlowSet(records=())
        assert len(empty) == 0
        assert empty.total_packets == 0
        assert empty.mean_size() == 0.0
        assert empty.keys() == frozenset()

    def test_size_counts_over_bins(self, minute_trace):
        population = parent_flows(minute_trace)
        counts = population.size_counts()
        assert counts.shape == (FLOW_SIZE_BINS.n_bins,)
        assert counts.sum() == len(population)


class TestSampledFlows:
    def test_sampled_is_subset_of_parent(self, minute_trace):
        sampler = make_sampler("systematic", granularity=50)
        result = sampler.sample(minute_trace)
        parent = parent_flows(minute_trace)
        sampled = sampled_flows(minute_trace, result)
        assert sampled.keys() <= parent.keys()
        assert sampled.total_packets == len(result.indices)

    def test_flow_study_summary(self, minute_trace):
        sampler = make_sampler("systematic", granularity=50)
        study = flow_study(
            minute_trace, sampler, rng=np.random.default_rng(0)
        )
        assert study.method == "systematic"
        assert study.granularity == 50.0
        assert 0.0 < study.detected_fraction < 1.0
        summary = study.summary()
        assert summary["parent_flows"] == float(len(study.parent))
        assert summary["sampled_flows"] == float(len(study.sampled))
        # Sampling shrinks surviving flows, never grows them.
        assert (
            summary["sampled_mean_packets"] < summary["parent_mean_packets"]
        )

    def test_study_matches_harness_selection(self, minute_trace):
        """The study's sample is the one the harness would draw."""
        sampler = make_sampler("stratified", granularity=64)
        direct = sampler.sample(minute_trace, rng=np.random.default_rng(7))
        study = study_from_result(minute_trace, direct)
        assert study.sampled.total_packets == len(direct.indices)
        again = flow_study(
            minute_trace,
            make_sampler("stratified", granularity=64),
            rng=np.random.default_rng(7),
        )
        assert again.sampled.records == study.sampled.records

    def test_shard_flow_summary_pure_function(self, minute_trace):
        sampler = make_sampler("systematic", granularity=50)
        result = sampler.sample(minute_trace)
        bare = shard_flow_summary(minute_trace, result.indices)
        cached = shard_flow_summary(
            minute_trace, result.indices, parent=parent_flows(minute_trace)
        )
        assert bare == cached
        assert set(bare) == {
            "parent_flows",
            "sampled_flows",
            "detected_fraction",
            "parent_mean_packets",
            "sampled_mean_packets",
        }


class TestDefaultAggregation:
    """The default populations aggregate through the vectorized kernel;
    their records equal the per-packet ``aggregate_trace``'s."""

    @pytest.fixture(scope="class")
    def window(self, five_minute_trace):
        return prefix_interval(five_minute_trace, 150_000_000)

    def test_parent_flows(self, window):
        expected = tuple(aggregate_trace(window))
        assert parent_flows(window).records == expected

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_sampled_flows_and_shard_summary(self, window, method, per_packet):
        rng = np.random.default_rng(11)
        sampler = make_sampler(method, granularity=8, trace=window, rng=rng)
        result = sampler.sample(window, rng=rng)
        expected = tuple(aggregate_trace(result.apply(window)))
        assert sampled_flows(window, result).records == expected
        with per_packet("flows"):
            reference = study_from_result(window, result)
        assert shard_flow_summary(window, result.indices) == reference.summary()

    def test_flow_study(self, window, per_packet):
        def study():
            rng = np.random.default_rng(5)
            sampler = make_sampler("timer-stratified", 16, trace=window, rng=rng)
            return flow_study(window, sampler, rng=rng)

        with per_packet("flows"):
            reference = study()
        assert study() == reference

    def test_eviction_fallback_with_a_small_table(self, window):
        # 16 entries against hundreds of concurrent flows: every chunk
        # evicts, so the kernel replays it through the per-packet table.
        reference_table, table = FlowTable(max_flows=16), FlowTable(max_flows=16)
        expected = tuple(aggregate_trace(window, table=reference_table))
        assert parent_flows(window, table=table).records == expected
        assert table.stats() == reference_table.stats()
        assert table.stats()["exported_evicted"] > 0
        result = make_sampler("systematic", 4).sample(window)
        assert (
            sampled_flows(window, result, table=FlowTable(max_flows=16)).records
            == tuple(aggregate_trace(result.apply(window), table=FlowTable(max_flows=16)))
        )


class TestStreamFlowAccountant:
    def _run(self, trace, granularity=10, store=None):
        accountant = StreamFlowAccountant(store=store)
        selector = StreamingSystematic(granularity)
        for timestamp, size, key in iter_flow_keys(trace):
            kept = selector.offer(timestamp)
            accountant.observe(timestamp, size, key, kept)
        accountant.flush()
        return accountant

    def test_matches_batch_aggregation(self, tiny_trace):
        """Streaming accounting equals batch aggregation of both sides."""
        accountant = self._run(tiny_trace, granularity=2)
        assert accountant.parent().records == tuple(
            aggregate_trace(tiny_trace)
        )
        selector = StreamingSystematic(2)
        indices = selector.offer_all(tiny_trace.timestamps_us)
        assert accountant.sampled().records == tuple(
            aggregate_trace(tiny_trace.select(indices))
        )

    def test_metrics_exposed(self, tiny_trace):
        store = Instrumentation()
        accountant = self._run(tiny_trace, granularity=2, store=store)
        snapshot = {
            name: value for name, value in store.snapshot()["counters"].items()
        }
        assert snapshot["flow_cache_exported_parent"] == len(
            accountant.parent()
        )
        assert snapshot["flow_cache_exported_sampled"] == len(
            accountant.sampled()
        )
        gauges = dict(store.snapshot()["gauges"])
        assert gauges["flow_cache_occupancy_parent"] == 0.0
        assert gauges["flow_cache_peak_occupancy_parent"] >= 1.0

    def test_skip_only_stream_never_touches_sampled_table(self, tiny_trace):
        accountant = StreamFlowAccountant()
        for timestamp, size, key in iter_flow_keys(tiny_trace):
            accountant.observe(timestamp, size, key, kept=False)
        accountant.flush()
        assert len(accountant.parent()) > 0
        assert len(accountant.sampled()) == 0

    def test_null_twin_is_inert(self, tiny_trace):
        assert NULL_ACCOUNTANT.enabled is False
        assert isinstance(NULL_ACCOUNTANT, NullFlowAccountant)
        for timestamp, size, key in iter_flow_keys(tiny_trace):
            assert NULL_ACCOUNTANT.observe(timestamp, size, key, True) is None
        assert NULL_ACCOUNTANT.flush() is None

    def test_enabled_flag(self):
        assert StreamFlowAccountant.enabled is True
        assert NullFlowAccountant.enabled is False
