"""Paxson's sample-size-invariant chi-square variant.

Section 5.2 cites Paxson (1992) for ``X2 = sum (O_i - E_i)^2 / E_i^2``,
which remains invariant with increasing sample size, and the derived
"average normalized deviation" across bins, ``k = sqrt(X2 / B)``.
"""

import math
from typing import Sequence

from repro.core.metrics.chisquare import _pair, _Pair


def _x2(pair: _Pair) -> float:
    scored = pair.expected > 0
    expected = pair.expected[scored]
    return float((((pair.observed[scored] - expected) / expected) ** 2).sum())


def _normalized_deviation(pair: _Pair, x2: float) -> float:
    return math.sqrt(x2 / pair.occupied)


def x_square(
    observed: Sequence[float], population_proportions: Sequence[float]
) -> float:
    """X2 = sum (O_i - E_i)^2 / E_i^2 with E at sample scale."""
    return _x2(_pair(observed, population_proportions))


def normalized_deviation(
    observed: Sequence[float], population_proportions: Sequence[float]
) -> float:
    """k = sqrt(X2 / B): average normalized deviation across bins."""
    pair = _pair(observed, population_proportions)
    return _normalized_deviation(pair, _x2(pair))
