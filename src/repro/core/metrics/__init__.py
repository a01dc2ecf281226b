"""Disparity metrics between a sample and its parent population.

Section 5.2 of the paper surveys metrics for scoring how well a
sampled distribution reflects the population over a fixed set of bins:

* Pearson's chi-square statistic and its significance level;
* the *cost* (l1 distance between observed and expected bin counts)
  and *relative cost* (cost times the sampling fraction);
* the phi coefficient ``phi = sqrt(chi2 / n)`` (Fleiss), the paper's
  chosen metric, free of sample-size influence;
* Paxson's ``X2 = sum (O-E)^2 / E^2`` and the average normalized
  deviation ``k = sqrt(X2 / B)``.

All metrics consume the same inputs: observed bin counts of the sample
and the parent population's bin *proportions* (the paper uses the
actual parent parameters rather than estimates, since the parent is
fully known).  One private routine validates that pair and builds the
expected counts ``E = p * n`` once, and each metric is one formula
over it, so every metric raises the same ``ValueError`` for invalid
input, empty sample or not: :func:`expected_counts`'s checks, then
one count per bin, then none in a zero-proportion bin.  An empty
sample scores 0 (significance 1); relative cost's fraction is checked
only for a non-empty one.
"""

from repro.core.metrics.bins import (
    BinSpec,
    INTERARRIVAL_BINS_US,
    PACKET_SIZE_BINS,
)
from repro.core.metrics.chisquare import (
    chi_square,
    chi_square_significance,
    chi_square_test,
    expected_counts,
)
from repro.core.metrics.cost import cost, relative_cost
from repro.core.metrics.phi import phi_coefficient
from repro.core.metrics.paxson import normalized_deviation, x_square
from repro.core.metrics.bootstrap import (
    phi_null_quantiles,
    phi_null_samples,
    phi_pvalue,
)
from repro.core.metrics.registry import (
    DisparityScores,
    METRIC_NAMES,
    evaluate_all,
)

__all__ = [
    "BinSpec",
    "INTERARRIVAL_BINS_US",
    "PACKET_SIZE_BINS",
    "chi_square",
    "chi_square_significance",
    "chi_square_test",
    "expected_counts",
    "cost",
    "relative_cost",
    "phi_coefficient",
    "phi_null_quantiles",
    "phi_null_samples",
    "phi_pvalue",
    "normalized_deviation",
    "x_square",
    "DisparityScores",
    "METRIC_NAMES",
    "evaluate_all",
]
