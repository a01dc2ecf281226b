"""The cost (l1) and relative-cost disparity metrics.

Section 5.2 motivates the cost metric with a billing scenario: a
provider charging by sampled traffic wants the absolute difference
between observed and expected counts —
``cost = sum |O_i - E_i|`` — not a shape comparison, because every
mis-counted packet is money.  *Relative cost* multiplies by the
sampling fraction "to account for the resource savings of sampling
less often".

Normalization note (an ablation in this reproduction, see DESIGN.md):
the paper does not state whether the l1 distance is taken at sample
scale or scaled up to population counts.  We follow the same
convention as the chi-square family — expected counts at sample scale
(``E_i = p_i * n``) — and expose ``scale_up=True`` for the
alternative reading, where observed counts are multiplied by the
granularity before differencing against the population's own counts.
"""

from typing import Sequence

import numpy as np

from repro.core.metrics.chisquare import _pair, _Pair


def _cost(pair: _Pair, population_size: int = 0, scale_up: bool = False) -> float:
    if not scale_up:
        return float(np.abs(pair.observed - pair.expected).sum())
    if population_size <= 0:
        raise ValueError("scale_up requires the population size")
    if pair.size == 0:
        raise ValueError("cannot scale up an empty sample")
    factor = population_size / pair.size
    expected = pair.proportions * float(population_size)
    return float(np.abs(pair.observed * factor - expected).sum())


def _relative_cost(pair: _Pair, cost_value: float, fraction: float) -> float:
    """``fraction * cost``; an empty sample's is 0 at any fraction."""
    if pair.size == 0:
        return 0.0
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1], got %r" % (fraction,))
    return fraction * cost_value


def cost(
    observed: Sequence[float],
    population_proportions: Sequence[float],
    population_size: int = 0,
    scale_up: bool = False,
) -> float:
    """l1 distance between observed and expected bin counts.

    With ``scale_up`` the sample counts are first multiplied by
    ``population_size / sample_size`` and compared against the
    population's own counts, which is the billing interpretation
    (estimated total traffic vs. real total traffic).
    """
    return _cost(_pair(observed, population_proportions), population_size, scale_up)


def relative_cost(
    observed: Sequence[float],
    population_proportions: Sequence[float],
    fraction: float,
    population_size: int = 0,
    scale_up: bool = False,
) -> float:
    """Cost multiplied by the sampling fraction.

    ``fraction`` is the achieved sampling fraction (sample size over
    population size); smaller fractions earn a proportional discount
    for the resources they save; an empty sample's is 0 at any fraction.
    """
    pair = _pair(observed, population_proportions)
    return _relative_cost(pair, _cost(pair, population_size, scale_up), fraction)
