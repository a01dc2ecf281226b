"""Performance baselines for the library's hot kernels.

Unlike the table/figure benchmarks (which assert reproduction shapes),
these exist purely to track speed: trace generation, each sampling
method on the full hour, scoring, and the netmon per-second pipeline.
Timings here are what pytest-benchmark was built for — regressions in
any kernel show up as slower rounds, not failed assertions.
"""

import numpy as np
import pytest

from repro.core.evaluation.comparison import population_proportions, score_sample
from repro.core.evaluation.targets import PACKET_SIZE_TARGET
from repro.core.sampling.factory import make_sampler
from repro.netmon.node import Node
from repro.workload.generator import TraceGenerator


def test_perf_trace_generation(benchmark):
    def run():
        return TraceGenerator(seed=3, duration_s=300).generate()

    trace = benchmark(run)
    assert len(trace) > 50_000


@pytest.mark.parametrize(
    "method", ["systematic", "stratified", "random", "timer-systematic"]
)
def test_perf_sampling_full_hour(benchmark, hour_trace, method):
    rng = np.random.default_rng(5)
    sampler = make_sampler(method, 50, trace=hour_trace, rng=rng)

    def run():
        return sampler.sample(hour_trace, rng=rng)

    result = benchmark(run)
    assert result.sample_size > 10_000


def test_perf_scoring(benchmark, hour_trace):
    sampler = make_sampler("systematic", 50)
    result = sampler.sample(hour_trace)
    proportions = population_proportions(hour_trace, PACKET_SIZE_TARGET)
    values = PACKET_SIZE_TARGET.attribute_values(hour_trace)

    def run():
        return score_sample(
            hour_trace,
            result,
            PACKET_SIZE_TARGET,
            proportions=proportions,
            attribute_values=values,
        )

    score = benchmark(run)
    assert score.phi >= 0


def test_perf_netmon_minute(benchmark, hour_trace):
    window = hour_trace.slice_packets(0, 30_000)

    def run():
        node = Node("perf", interfaces=("t3",))
        node.process_traces({"t3": window})
        return node

    node = benchmark(run)
    assert node.snmp_total_packets() == len(window)
