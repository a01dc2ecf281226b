"""Pearson's chi-square statistic, significance level, and test.

``chi2 = sum (O_i - E_i)^2 / E_i`` over B bins, where O are the
sample's observed counts and E the counts expected under the parent
population's bin proportions at the sample's size (Section 5.2).

Because the parent population is fully known — no parameters are
fitted — the statistic has B - 1 degrees of freedom, and the
significance level comes from the chi-square survival function.
"""

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.stats.distributions import chi2_sf


def expected_counts(
    population_proportions: Sequence[float], sample_size: float
) -> np.ndarray:
    """Expected bin counts for a sample of ``sample_size`` packets."""
    props = np.asarray(population_proportions, dtype=np.float64)
    if props.ndim != 1 or props.size < 2:
        raise ValueError("need at least two bin proportions")
    if np.any(props < 0):
        raise ValueError("bin proportions must be non-negative")
    total = float(props.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError("bin proportions must sum to 1, got %r" % (total,))
    if sample_size < 0:
        raise ValueError("sample size must be non-negative")
    return props * float(sample_size)


class _Pair(NamedTuple):
    """A sample's counts O, its parent's E = p * n, n = sum(O) unrounded, and B = #(p > 0)."""

    observed: np.ndarray
    proportions: np.ndarray
    expected: np.ndarray
    size: float
    occupied: int


def _pair(
    observed: Sequence[float], population_proportions: Sequence[float]
) -> _Pair:
    """Validate a sample against its parent, empty or not, and build E once.

    The sample cannot contain what the parent lacks: no count where E = 0.
    """
    obs = np.asarray(observed, dtype=np.float64)
    size = float(obs.sum())
    props = np.asarray(population_proportions, dtype=np.float64)
    expected = expected_counts(props, size)
    if obs.shape != expected.shape:
        raise ValueError(
            "observed has %d bins, proportions %d" % (obs.size, expected.size)
        )
    if np.any(obs[expected == 0] > 0):
        raise ValueError(
            "observed counts in bins with zero population proportion"
        )
    return _Pair(obs, props, expected, size, int((props > 0).sum()))


def _chi2(pair: _Pair) -> float:
    scored = pair.expected > 0
    expected = pair.expected[scored]
    return float(((pair.observed[scored] - expected) ** 2 / expected).sum())


def _significance(statistic: float, dof: int) -> float:
    return chi2_sf(statistic, dof) if dof >= 1 else 1.0


def chi_square(
    observed: Sequence[float], population_proportions: Sequence[float]
) -> float:
    """The chi-square statistic of a sample against parent proportions.

    Bins whose expected count is zero must also be observed zero (the
    sample cannot contain what the population lacks); such bins
    contribute nothing.
    """
    return _chi2(_pair(observed, population_proportions))


def chi_square_significance(
    observed: Sequence[float], population_proportions: Sequence[float]
) -> float:
    """The significance level (p-value) of the chi-square statistic.

    Degrees of freedom are the number of non-empty bins minus one; no
    parameters are fitted since the parent is fully known.  A
    population with a single occupied bin has nothing to test — any
    support-respecting sample matches it trivially, so the
    significance is 1.
    """
    pair = _pair(observed, population_proportions)
    return _significance(_chi2(pair), pair.occupied - 1)


@dataclass(frozen=True)
class ChiSquareTest:
    """Outcome of a goodness-of-fit hypothesis test."""

    statistic: float
    dof: int
    significance: float
    alpha: float

    @property
    def rejected(self) -> bool:
        """Whether the null (sample drawn from parent) is rejected."""
        return self.significance < self.alpha


def chi_square_test(
    observed: Sequence[float],
    population_proportions: Sequence[float],
    alpha: float = 0.05,
) -> ChiSquareTest:
    """Run the chi-square goodness-of-fit test at level ``alpha``.

    This is the test of Section 5.2/6: for systematic 1-in-50 samples
    the paper found "only two or three out of the fifty possible
    replications" rejected at the 0.05 level.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1), got %r" % (alpha,))
    pair = _pair(observed, population_proportions)
    statistic, dof = _chi2(pair), pair.occupied - 1
    significance = _significance(statistic, dof)
    return ChiSquareTest(
        statistic=statistic, dof=dof, significance=significance, alpha=alpha
    )
