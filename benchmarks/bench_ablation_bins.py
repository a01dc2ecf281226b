"""Ablation — bin-placement sensitivity (DESIGN.md call-out).

The paper chose protocol-motivated size bins (<41 / 41-180 / >180)
and equal-occupancy interarrival bins.  This ablation re-scores the
same systematic samples under alternative edge placements and checks
the methodology's conclusions are bin-robust: phi grows with
granularity under every binning, and the orderings agree.
"""

import numpy as np

from repro.core.evaluation.targets import CharacterizationTarget
from repro.core.evaluation.comparison import population_proportions, score_sample
from repro.core.metrics.bins import BinSpec
from repro.core.sampling.systematic import SystematicSampler

GRANULARITIES = (16, 256, 4096)

SIZE_BINNINGS = {
    "paper (41/181)": (41, 181),
    "coarse (101)": (101,),
    "fine (41/101/181/553)": (41, 101, 181, 553),
    "shifted (65/301)": (65, 301),
}


def size_target_with(edges):
    return CharacterizationTarget(
        name="packet-size",
        bins=BinSpec(name="packet-size", edges=edges),
        attribute=lambda trace: trace.sizes.astype(np.float64),
    )


def run_ablation(window):
    table = {}
    for label, edges in SIZE_BINNINGS.items():
        target = size_target_with(edges)
        proportions = population_proportions(window, target)
        bin_ids = target.bin_ids(window)
        series = {}
        for granularity in GRANULARITIES:
            result = SystematicSampler(granularity=granularity, phase=1).sample(
                window
            )
            series[granularity] = score_sample(
                window,
                result,
                target,
                proportions=proportions,
                bin_ids=bin_ids,
            ).phi
        table[label] = series
    return table


def test_ablation_bin_placement(benchmark, half_hour_window, emit):
    table = benchmark.pedantic(
        run_ablation, args=(half_hour_window,), rounds=1, iterations=1
    )

    lines = [
        "Ablation: packet-size bin placement (systematic sampling phi)",
        "%-24s" % "binning"
        + "".join("%12s" % ("1/%d" % g) for g in GRANULARITIES),
    ]
    for label, series in table.items():
        lines.append(
            "%-24s" % label
            + "".join("%12.4f" % series[g] for g in GRANULARITIES)
        )
    emit("\n".join(lines))

    for label, series in table.items():
        # The headline trend survives every binning.
        assert series[4096] > series[16], label
