"""Categorical (proportion) characterization targets."""

import numpy as np
import pytest

from repro.analysis.proportions import (
    CategoricalTarget,
    estimate_proportions,
    port_target,
    protocol_target,
    score_categorical,
)
from repro.core.metrics.registry import evaluate_all
from repro.core.sampling.simple import SimpleRandomSampler
from repro.core.sampling.systematic import SystematicSampler
from repro.trace.trace import Trace


class TestProtocolTarget:
    def test_categorization(self, tiny_trace):
        target = protocol_target()
        counts = target.counts(tiny_trace)
        by_label = dict(zip(target.labels, counts))
        assert by_label["TCP"] == 8
        assert by_label["UDP"] == 1
        assert by_label["ICMP"] == 1
        assert by_label["other"] == 0

    def test_unknown_protocol_other(self):
        trace = Trace(timestamps_us=[0], sizes=[40], protocols=[89])
        target = protocol_target()
        counts = target.counts(trace)
        assert counts[-1] == 1

    def test_proportions(self, tiny_trace):
        props = protocol_target().proportions(tiny_trace)
        assert props.sum() == pytest.approx(1.0)


class TestPortTarget:
    def test_well_known_ports(self, tiny_trace):
        target = port_target(ports=(23, 20, 53))
        counts = dict(zip(target.labels, target.counts(tiny_trace)))
        assert counts["port-23"] == 6
        assert counts["port-20"] == 2
        assert counts["port-53"] == 1
        assert counts["no-port"] == 1  # the ICMP packet

    def test_unlisted_port_is_other(self, tiny_trace):
        target = port_target(ports=(999,))
        counts = dict(zip(target.labels, target.counts(tiny_trace)))
        assert counts["other"] == 9

    def test_first_listed_port_wins(self):
        trace = Trace(
            timestamps_us=[0],
            sizes=[40],
            src_ports=[20],
            dst_ports=[23],
        )
        counts = port_target(ports=(23, 20)).counts(trace)
        assert counts[0] == 1  # port-23 listed first
        assert counts[1] == 0

    def test_subset_counts(self, tiny_trace):
        target = port_target(ports=(23,))
        counts = target.counts(tiny_trace, indices=np.array([0, 6]))
        by_label = dict(zip(target.labels, counts))
        assert by_label["port-23"] == 1
        assert by_label["no-port"] == 1


class TestScoring:
    def test_full_sample_perfect(self, minute_trace):
        result = SystematicSampler(granularity=1).sample(minute_trace)
        scores = score_categorical(minute_trace, result, protocol_target())
        assert scores.phi == pytest.approx(0.0, abs=1e-10)

    def test_sampled_protocol_mix_accurate(self, minute_trace, rng):
        # Pure multinomial noise gives phi ~ sqrt(dof / 2n) ~ 0.05 at
        # this sample size; anything well under 0.1 is a faithful mix.
        result = SimpleRandomSampler(granularity=50).sample(minute_trace, rng)
        scores = score_categorical(minute_trace, result, protocol_target())
        assert scores.phi < 0.1

    def test_port_mix_scores(self, minute_trace, rng):
        result = SystematicSampler(granularity=50).sample(minute_trace)
        scores = score_categorical(minute_trace, result, port_target())
        assert 0 <= scores.phi < 0.1

    @pytest.mark.parametrize("make_target", [protocol_target, port_target])
    def test_is_evaluate_all_of_the_category_counts(self, minute_trace, make_target):
        target = make_target()
        result = SystematicSampler(granularity=50).sample(minute_trace)
        assert score_categorical(minute_trace, result, target) == evaluate_all(
            target.counts(minute_trace, result.indices),
            target.proportions(minute_trace),
            result.fraction,
        )

    def test_precomputed_proportions(self, minute_trace, rng):
        target = protocol_target()
        result = SystematicSampler(granularity=64).sample(minute_trace)
        props = target.proportions(minute_trace)
        a = score_categorical(minute_trace, result, target)
        b = score_categorical(minute_trace, result, target, proportions=props)
        assert a.phi == b.phi


class TestEstimates:
    def test_estimate_proportions(self, minute_trace, rng):
        result = SimpleRandomSampler(granularity=20).sample(minute_trace, rng)
        estimates = estimate_proportions(minute_trace, result, protocol_target())
        truth = protocol_target().proportions(minute_trace)
        assert estimates["TCP"] == pytest.approx(truth[1], abs=0.02)

    def test_empty_sample_rejected(self, minute_trace):
        from repro.core.sampling.base import SamplingResult

        empty = SamplingResult(
            indices=np.empty(0, dtype=np.int64),
            population_size=len(minute_trace),
            method="x",
            parameters={},
        )
        with pytest.raises(ValueError, match="empty"):
            estimate_proportions(minute_trace, empty, protocol_target())


class TestValidation:
    def test_categorizer_shape_checked(self, tiny_trace):
        bad = CategoricalTarget(
            name="bad",
            labels=("a",),
            categorize=lambda trace: np.array([0]),
        )
        with pytest.raises(ValueError, match="codes"):
            bad.counts(tiny_trace)

    def test_code_range_checked(self, tiny_trace):
        bad = CategoricalTarget(
            name="bad",
            labels=("a",),
            categorize=lambda trace: np.full(len(trace), 5),
        )
        with pytest.raises(ValueError, match="range"):
            bad.counts(tiny_trace)

    def test_empty_trace_proportions_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            protocol_target().proportions(Trace.empty())
