"""Sampled-object estimation utilities."""

import numpy as np
import pytest

from repro.core.metrics.registry import evaluate_all
from repro.netmon.arts import ArtsCollector
from repro.netmon.estimation import aligned_counts, object_phi, scale_up_counts
from repro.netmon.objects import PortDistribution, ProtocolDistribution


class TestScaleUp:
    def test_multiplies_counts(self):
        scaled = scale_up_counts({"TCP": 10, "UDP": 3}, 50)
        assert scaled == {"TCP": 500, "UDP": 150}

    def test_granularity_one_identity(self):
        counts = {(1, 1001): 7}
        assert scale_up_counts(counts, 1) == counts

    def test_validation(self):
        with pytest.raises(ValueError):
            scale_up_counts({}, 0)


class TestAlignedCounts:
    def test_union_of_keys(self):
        full, sampled = aligned_counts({"a": 5, "b": 2}, {"b": 1, "c": 3})
        assert full.tolist() == [5, 2, 0]
        assert sampled.tolist() == [0, 1, 3]

    def test_deterministic_order(self):
        a1, b1 = aligned_counts({"x": 1, "y": 2}, {"y": 3})
        a2, b2 = aligned_counts({"y": 2, "x": 1}, {"y": 3})
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    def test_tuple_keys(self):
        full, sampled = aligned_counts({(1, 2): 4}, {(1, 2): 1, (3, 4): 1})
        assert full.tolist() == [4, 0]


class TestObjectPhi:
    def test_proportional_sample_scores_zero(self):
        full = {"TCP": 800, "UDP": 200}
        sampled = {"TCP": 80, "UDP": 20}
        assert object_phi(full, sampled) == pytest.approx(0.0, abs=1e-12)

    def test_skewed_sample_scores_positive(self):
        full = {"TCP": 500, "UDP": 500}
        sampled = {"TCP": 90, "UDP": 10}
        assert object_phi(full, sampled) > 0.3

    def test_unsampled_categories_allowed(self):
        full = {"TCP": 990, "ICMP": 10}
        sampled = {"TCP": 10}  # the rare category missed entirely
        assert object_phi(full, sampled) > 0.0

    def test_is_evaluate_all_of_the_aligned_counts(self):
        full = {"TCP": 800, "UDP": 150, "ICMP": 50}
        sampled = {"TCP": 70, "UDP": 20}
        # Aligned in sorted-key order: ICMP, TCP, UDP.
        scores = evaluate_all([0, 70, 20], np.array([50, 800, 150]) / 1000.0, 1.0)
        assert object_phi(full, sampled) == scores.phi

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="lacks"):
            object_phi({"TCP": 10}, {"UDP": 1})

    def test_empty_full_object_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            object_phi({}, {})


class TestEndToEnd:
    def test_sampled_protocol_object_faithful(self, minute_trace):
        full_obj = ProtocolDistribution()
        full_obj.observe(minute_trace)
        collector = ArtsCollector(granularity=50, cpu_capacity_pps=10_000)
        import numpy as np

        # Feed the minute in one big "second" (capacity is ample).
        collector.process_second(minute_trace)
        sampled_obj = next(
            o for o in collector.objects if isinstance(o, ProtocolDistribution)
        )
        phi = object_phi(
            full_obj.snapshot()["packets"], sampled_obj.snapshot()["packets"]
        )
        assert phi < 0.1

    def test_scaled_port_volumes_accurate(self, minute_trace):
        full_obj = PortDistribution()
        full_obj.observe(minute_trace)
        collector = ArtsCollector(granularity=50, cpu_capacity_pps=10**9)
        collector.process_second(minute_trace)
        sampled_obj = next(
            o for o in collector.objects if isinstance(o, PortDistribution)
        )
        estimates = scale_up_counts(
            sampled_obj.snapshot()["packets"], collector.granularity
        )
        truth = full_obj.snapshot()["packets"]
        for port, true_count in truth.items():
            if true_count > 2000:  # only well-observed ports
                assert estimates.get(port, 0) == pytest.approx(
                    true_count, rel=0.15
                )
