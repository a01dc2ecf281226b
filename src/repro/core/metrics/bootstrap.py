"""A bootstrap null distribution for the phi coefficient.

The paper chose phi for its sample-size invariance but noted the cost:
"Unlike the chi-square statistic, which uses the associated chi-square
distribution for hypothesis testing, we are aware of no such
corresponding distribution for the phi metric" — so it could rank
methods but not say *how much* phi is just sampling noise.

This module supplies the missing piece by simulation.  Under the null
hypothesis that a sample of size n is drawn bin-independently from the
population's proportions, the bin counts are multinomial; drawing many
such multinomials and scoring each gives phi's exact-null Monte Carlo
distribution for that (proportions, n) pair.

(Analytically, chi-square is asymptotically chi^2_{B-1}, so
phi ~ sqrt(chi^2_{B-1} / (2n)); the bootstrap agrees with that limit —
see the tests — while also being honest at small expected counts where
the asymptotics wobble.)

Uses:

* :func:`phi_null_quantiles` — "what phi should I expect from pure
  sampling noise at this fraction?" — the floor curve under Figures
  6-9;
* :func:`phi_pvalue` — a significance level for an observed phi,
  giving the paper's metric the hypothesis test it lacked.
"""

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.metrics.chisquare import expected_counts

#: Default resampling effort: enough for stable 5%/95% quantiles.
DEFAULT_RESAMPLES = 2000


def phi_null_samples(
    population_proportions: Sequence[float],
    sample_size: int,
    n_resamples: int = DEFAULT_RESAMPLES,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Draw phi values under the multinomial null.

    Each resample draws ``sample_size`` observations into the bins
    with the population's proportions and scores the result with phi,
    equal to its row's ``phi_coefficient``: the rows share one size, so
    the proportions are checked and E is built once for all of them.
    """
    props = np.asarray(population_proportions, dtype=np.float64)
    expected = expected_counts(props, sample_size)
    if sample_size < 1:
        raise ValueError("sample size must be positive")
    if n_resamples < 1:
        raise ValueError("need at least one resample")
    rng = rng if rng is not None else np.random.default_rng()
    counts = rng.multinomial(sample_size, props, size=n_resamples)
    # Bins with E = 0 are never drawn.  C order keeps each row's sum in
    # the pairwise order phi_coefficient sums it in.
    scored = expected > 0
    observed = np.ascontiguousarray(counts[:, scored], dtype=np.float64)
    chi2 = ((observed - expected[scored]) ** 2 / expected[scored]).sum(axis=1)
    return np.sqrt(chi2 / (expected.sum() + sample_size))


def phi_null_quantiles(
    population_proportions: Sequence[float],
    sample_size: int,
    quantiles: Tuple[float, ...] = (0.5, 0.95, 0.99),
    n_resamples: int = DEFAULT_RESAMPLES,
    rng: Optional[np.random.Generator] = None,
) -> Dict[float, float]:
    """Null-phi quantiles: the noise floor for a given sample size.

    An observed mean phi *below* the 0.95 entry is indistinguishable
    from a perfectly faithful sampling method at that fraction; the
    gaps the paper's figures show above this floor are the part that
    method choice can influence.
    """
    for q in quantiles:
        if not 0.0 < q < 1.0:
            raise ValueError("quantiles must be in (0, 1)")
    values = phi_null_samples(
        population_proportions, sample_size, n_resamples=n_resamples, rng=rng
    )
    return {q: float(np.quantile(values, q)) for q in quantiles}


def phi_pvalue(
    observed_phi: float,
    population_proportions: Sequence[float],
    sample_size: int,
    n_resamples: int = DEFAULT_RESAMPLES,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Monte Carlo p-value for an observed phi under the null.

    The add-one estimator ``(1 + #{null >= observed}) / (1 + N)``
    keeps the p-value honest (never exactly zero) at finite resampling
    effort.
    """
    if observed_phi < 0:
        raise ValueError("phi cannot be negative")
    values = phi_null_samples(
        population_proportions, sample_size, n_resamples=n_resamples, rng=rng
    )
    exceed = int((values >= observed_phi).sum())
    return (1 + exceed) / (1 + values.size)
