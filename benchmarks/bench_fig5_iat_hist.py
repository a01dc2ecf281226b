"""Figure 5 — interarrival-time histograms at five granularities.

"Distribution of packet interarrival times as a function of five
systematic sampling granularities (1024 second interval)" with the
per-sample phi scores in the legend ("the increasing phi-value scores
shown in the legend reflect the divergence in the sample accuracy as
the sampling fraction decreases").
"""

from repro.core.evaluation.comparison import population_proportions, score_sample
from repro.core.evaluation.report import format_histogram_table
from repro.core.evaluation.targets import INTERARRIVAL_TARGET
from repro.core.sampling.systematic import SystematicSampler
from repro.trace.filters import prefix_interval

GRANULARITIES = (4, 64, 1024, 8192, 32768)


def histograms(window):
    proportions = population_proportions(window, INTERARRIVAL_TARGET)
    bin_ids = INTERARRIVAL_TARGET.bin_ids(window)
    rows = {"population": proportions}
    phis = {"population": 0.0}
    for granularity in GRANULARITIES:
        result = SystematicSampler(granularity=granularity, phase=1).sample(
            window
        )
        score = score_sample(
            window,
            result,
            INTERARRIVAL_TARGET,
            proportions=proportions,
            bin_ids=bin_ids,
        )
        label = "1/%d" % granularity
        rows[label] = score.observed / score.observed.sum()
        phis[label] = score.phi
    return rows, phis


def test_fig5_interarrival_histograms(benchmark, hour_trace, emit):
    window = prefix_interval(hour_trace, 1024 * 1_000_000)
    rows, phis = benchmark.pedantic(
        histograms, args=(window,), rounds=1, iterations=1
    )

    emit(
        format_histogram_table(
            "Figure 5: interarrival proportions, systematic sampling "
            "(1024 s interval; phi in legend)",
            labels=INTERARRIVAL_TARGET.bins.labels(),
            rows=rows,
            phi_scores=phis,
        )
    )

    # phi increases as the fraction decreases (the figure's legend).
    ordered = ["1/%d" % g for g in GRANULARITIES]
    assert phis[ordered[-1]] > phis[ordered[0]]
    # The fine sample is near-perfect.
    assert phis["1/4"] < 0.01
