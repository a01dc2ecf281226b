"""Figure 4 — packet-size histograms at five sampling granularities.

"Distribution of packet sizes as a function of five sampling
granularities (1024 second interval, systematic sampling)": the bin
proportions of systematic samples at 1/4 ... 1/32768 next to the
population's, showing the sampled histograms drifting as the fraction
falls while remaining recognizably bimodal.
"""

import numpy as np

from repro.core.evaluation.comparison import population_proportions, score_sample
from repro.core.evaluation.report import format_histogram_table
from repro.core.evaluation.targets import PACKET_SIZE_TARGET
from repro.core.sampling.systematic import SystematicSampler
from repro.trace.filters import prefix_interval

GRANULARITIES = (4, 64, 1024, 8192, 32768)


def histograms(window):
    proportions = population_proportions(window, PACKET_SIZE_TARGET)
    bin_ids = PACKET_SIZE_TARGET.bin_ids(window)
    rows = {"population": proportions}
    phis = {}
    for granularity in GRANULARITIES:
        result = SystematicSampler(granularity=granularity, phase=1).sample(
            window
        )
        score = score_sample(
            window,
            result,
            PACKET_SIZE_TARGET,
            proportions=proportions,
            bin_ids=bin_ids,
        )
        label = "1/%d" % granularity
        rows[label] = score.observed / score.observed.sum()
        phis[label] = score.phi
    return rows, phis


def test_fig4_size_histograms(benchmark, hour_trace, emit):
    window = prefix_interval(hour_trace, 1024 * 1_000_000)
    rows, phis = benchmark.pedantic(
        histograms, args=(window,), rounds=1, iterations=1
    )

    emit(
        format_histogram_table(
            "Figure 4: packet-size proportions, systematic sampling "
            "(1024 s interval)",
            labels=PACKET_SIZE_TARGET.bins.labels(),
            rows=rows,
            phi_scores={**phis, "population": 0.0},
        )
    )

    population = rows["population"]
    # Fine samples hug the population bin-for-bin.
    assert np.abs(rows["1/4"] - population).max() < 0.01
    # Coarse samples drift visibly more...
    assert (
        np.abs(rows["1/32768"] - population).max()
        > np.abs(rows["1/4"] - population).max()
    )
    # ...and phi reports exactly that ordering.
    assert phis["1/32768"] > phis["1/4"]
