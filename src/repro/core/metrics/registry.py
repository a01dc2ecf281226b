"""Evaluate every disparity metric at once.

Figure 3 of the paper plots all the Section 5.2 metrics side by side
as a function of sampling granularity.  :func:`evaluate_all` validates
one (observed counts, population proportions) pair once and computes
them all from it, and :class:`DisparityScores` carries the named results.
"""

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.metrics.chisquare import _chi2, _pair, _significance
from repro.core.metrics.cost import _cost, _relative_cost
from repro.core.metrics.paxson import _normalized_deviation, _x2
from repro.core.metrics.phi import _phi

#: Metric identifiers, in Figure 3's legend order.
METRIC_NAMES = (
    "chi2",
    "one_minus_significance",
    "cost",
    "rcost",
    "x2",
    "k",
    "phi",
)


@dataclass(frozen=True)
class DisparityScores:
    """All disparity metrics for one sample against one population."""

    chi2: float
    significance: float
    cost: float
    rcost: float
    x2: float
    k: float
    phi: float
    sample_size: int
    fraction: float

    @property
    def one_minus_significance(self) -> float:
        """Figure 3 plots 1 - significance "for ease of comparison"."""
        return 1.0 - self.significance

    def as_dict(self) -> Dict[str, float]:
        """Scores keyed by :data:`METRIC_NAMES`."""
        return {
            "chi2": self.chi2,
            "one_minus_significance": self.one_minus_significance,
            "cost": self.cost,
            "rcost": self.rcost,
            "x2": self.x2,
            "k": self.k,
            "phi": self.phi,
        }


def evaluate_all(
    observed: Sequence[float],
    population_proportions: Sequence[float],
    fraction: float,
) -> DisparityScores:
    """Compute every Section 5.2 metric for one sample.

    Each field equals its metric's own function, value or error.

    Parameters
    ----------
    observed:
        The sample's bin counts.
    population_proportions:
        The parent population's bin proportions (actual, not
        estimated: the parent is fully known in this methodology).
    fraction:
        Achieved sampling fraction, needed by relative cost; checked
        only for a non-empty sample.
    """
    pair = _pair(observed, population_proportions)
    chi2 = _chi2(pair)
    l1 = _cost(pair)
    x2 = _x2(pair)
    return DisparityScores(
        chi2=chi2,
        significance=_significance(chi2, pair.occupied - 1),
        cost=l1,
        rcost=_relative_cost(pair, l1, fraction),
        x2=x2,
        k=_normalized_deviation(pair, x2),
        phi=_phi(pair, chi2),
        sample_size=int(pair.size),
        fraction=fraction,
    )
