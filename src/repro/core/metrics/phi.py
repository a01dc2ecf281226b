"""The phi coefficient — the paper's chosen disparity metric.

Fleiss's phi is derived from chi-square as ``phi = sqrt(chi2 / n)``
with ``n = sum_i (E_i + O_i)`` (Section 5.2's definition, which makes
n twice the sample size when expected counts are taken at sample
scale).  Unlike chi-square itself, phi is free of the influence of the
sample size, which is what lets the paper compare samples at sampling
fractions spanning four orders of magnitude.

A phi of 0 is "consistent with a sample which perfectly reflects the
parent population"; larger values correspond to poorer samples
(Section 6).
"""

import math
from typing import Sequence

from repro.core.metrics.chisquare import _chi2, _pair, _Pair


def _phi(pair: _Pair, chi2: float) -> float:
    if pair.size == 0:
        return 0.0
    return math.sqrt(chi2 / float(pair.expected.sum() + pair.observed.sum()))


def phi_coefficient(
    observed: Sequence[float], population_proportions: Sequence[float]
) -> float:
    """phi = sqrt(chi2 / n), n = sum(E_i + O_i).

    Returns 0 for an empty sample by convention (an empty sample has
    no measurable disparity — and no information).
    """
    pair = _pair(observed, population_proportions)
    return _phi(pair, _chi2(pair))
