"""Figure 6 — boxplots of systematic phi scores vs sampling fraction.

"The boxplots ... show the range of phi-value scores for each
systematic sample for the packet size distribution assessment" over a
1024-second interval, with replications manufactured by varying the
starting phase.  Two effects appear as the fraction decreases:
phi grows, and the spread across replications grows.
"""

import numpy as np

from repro.core.evaluation.comparison import population_proportions, score_sample
from repro.core.evaluation.report import format_boxplots
from repro.core.evaluation.targets import PACKET_SIZE_TARGET
from repro.core.sampling.factory import systematic_phases
from repro.core.sampling.systematic import SystematicSampler
from repro.stats.boxplot import boxplot_stats
from repro.trace.filters import prefix_interval

GRANULARITIES = (4, 16, 64, 256, 1024, 4096, 16384)
REPLICATIONS = 20


def collect_boxplots(window):
    proportions = population_proportions(window, PACKET_SIZE_TARGET)
    bin_ids = PACKET_SIZE_TARGET.bin_ids(window)
    rng = np.random.default_rng(6)
    boxes = {}
    for granularity in GRANULARITIES:
        phis = []
        for phase in systematic_phases(granularity, REPLICATIONS, rng):
            result = SystematicSampler(
                granularity=granularity, phase=phase
            ).sample(window)
            score = score_sample(
                window,
                result,
                PACKET_SIZE_TARGET,
                proportions=proportions,
                bin_ids=bin_ids,
            )
            phis.append(score.phi)
        boxes[granularity] = boxplot_stats(phis)
    return boxes


def test_fig6_phi_boxplots(benchmark, hour_trace, emit):
    window = prefix_interval(hour_trace, 1024 * 1_000_000)
    boxes = benchmark.pedantic(
        collect_boxplots, args=(window,), rounds=1, iterations=1
    )

    header = "%-8s %9s %9s %9s %9s %9s %9s %5s" % (
        "1/x",
        "whisk-lo",
        "q1",
        "median",
        "q3",
        "whisk-hi",
        "mean",
        "n",
    )
    lines = [
        "Figure 6: systematic phi boxplots, packet sizes (1024 s interval)",
        header,
        "-" * len(header),
    ]
    for granularity in GRANULARITIES:
        b = boxes[granularity]
        lines.append(
            "%-8d %9.5f %9.5f %9.5f %9.5f %9.5f %9.5f %5d"
            % (
                granularity,
                b.whisker_low,
                b.q1,
                b.median,
                b.q3,
                b.whisker_high,
                b.mean,
                b.count,
            )
        )
    emit("\n".join(lines))
    emit(
        format_boxplots(
            "Figure 6 (rendered): phi by sampling granularity",
            {"1/%d" % g: boxes[g] for g in GRANULARITIES},
        )
    )

    # "most of the scores are near perfect zeros" at 1/4...
    assert boxes[4].median < 0.005
    # ...phi grows and the replication spread grows with granularity.
    assert boxes[16384].median > boxes[4].median
    assert boxes[16384].iqr > boxes[4].iqr


def test_fig7_boxplot_means(benchmark, hour_trace, emit):
    """Figure 7 is the means of Figure 6's boxplots."""
    window = prefix_interval(hour_trace, 1024 * 1_000_000)
    boxes = benchmark.pedantic(
        collect_boxplots, args=(window,), rounds=1, iterations=1
    )

    lines = [
        "Figure 7: mean systematic phi vs sampling fraction "
        "(packet sizes, 1024 s interval)",
        "%-8s %10s" % ("1/x", "mean phi"),
    ]
    means = {}
    for granularity in GRANULARITIES:
        means[granularity] = boxes[granularity].mean
        lines.append("%-8d %10.5f" % (granularity, means[granularity]))
    emit("\n".join(lines))

    ordered = [means[g] for g in GRANULARITIES]
    # Broadly increasing: the coarse end is far above the fine end.
    assert ordered[-1] > 5 * ordered[0]
