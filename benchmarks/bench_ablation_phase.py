"""Ablation — systematic sampling's phase sensitivity (DESIGN.md).

The paper manufactures systematic replications by "varying the point
within the data set at which to begin the sampling procedure".  This
ablation quantifies how much the phase actually matters: the spread of
phi across all fifty 1-in-50 phases versus the spread across fifty
stratified-random replications at the same fraction.

Expected shape: comparable spreads — the population is close to
randomly ordered at the 50-packet scale, which is also why systematic
and stratified sampling perform alike in Figures 8-9.
"""

import numpy as np

from repro.core.evaluation.comparison import population_proportions, score_sample
from repro.core.evaluation.targets import PACKET_SIZE_TARGET
from repro.core.sampling.stratified import StratifiedRandomSampler
from repro.core.sampling.systematic import SystematicSampler

GRANULARITY = 50
REPLICATIONS = 50


def run_ablation(window):
    proportions = population_proportions(window, PACKET_SIZE_TARGET)
    bin_ids = PACKET_SIZE_TARGET.bin_ids(window)

    def phi_of(result):
        return score_sample(
            window,
            result,
            PACKET_SIZE_TARGET,
            proportions=proportions,
            bin_ids=bin_ids,
        ).phi

    systematic = [
        phi_of(SystematicSampler(GRANULARITY, phase=p).sample(window))
        for p in range(REPLICATIONS)
    ]
    rng = np.random.default_rng(12)
    stratified = [
        phi_of(StratifiedRandomSampler(GRANULARITY).sample(window, rng=rng))
        for _ in range(REPLICATIONS)
    ]
    return np.array(systematic), np.array(stratified)


def test_ablation_systematic_phase_effect(benchmark, half_hour_window, emit):
    systematic, stratified = benchmark.pedantic(
        run_ablation, args=(half_hour_window,), rounds=1, iterations=1
    )

    emit(
        "\n".join(
            [
                "Ablation: phase effect at 1-in-%d (packet sizes, %d replications)"
                % (GRANULARITY, REPLICATIONS),
                "%-22s %10s %10s %10s"
                % ("method", "mean phi", "std phi", "max phi"),
                "%-22s %10.5f %10.5f %10.5f"
                % (
                    "systematic (phases)",
                    systematic.mean(),
                    systematic.std(),
                    systematic.max(),
                ),
                "%-22s %10.5f %10.5f %10.5f"
                % (
                    "stratified (random)",
                    stratified.mean(),
                    stratified.std(),
                    stratified.max(),
                ),
            ]
        )
    )

    # Phase choice matters no more than stratified randomness does:
    # the two spreads are the same order of magnitude, and neither
    # method's mean dominates the other by a wide margin.
    assert systematic.std() < 5 * stratified.std() + 1e-6
    assert stratified.std() < 5 * systematic.std() + 1e-6
    assert systematic.mean() < 2.5 * stratified.mean()
    assert stratified.mean() < 2.5 * systematic.mean()
