"""Recovering parent flow statistics from sampled flows.

1-in-N packet sampling maps a parent flow of j packets to a sampled
flow of k ~ Binomial(j, p) packets (p = 1/N), and hides it entirely
when k = 0.  The sampled flow-size distribution is therefore a doubly
distorted image of the parent's: shrunk ~N-fold *and* truncated at
zero, with small flows vanishing almost surely.  Two estimator
families from the paper's flow-level successors undo the distortion:

* **Tail rescaling** (Chabchoub et al., "Inference of Flow Statistics
  via Packet Sampling in the Internet"): for a heavy, Pareto-like tail
  ``P(S >= x) ~ C x^-a`` the binomial thinning acts asymptotically as
  the deterministic map ``S -> pS``, so the sampled tail has the *same
  exponent* and the parent tail is the sampled one read at ``px``:
  ``P(S >= x) ~ C (px)^-a``.  :func:`chabchoub_estimate` fits the
  sampled tail and rescales it.

* **Binned EM inversion** (Clegg et al., "Towards Informative
  Statistical Flow Inversion"; the EM is Duffield et al.'s): treat the
  parent flow-size counts ``n_j`` over a size grid as the unknowns of
  a missing-data problem — each observed sampled flow of size k >= 1
  came from some parent size j with posterior ``n_j B(k | j, p)``, and
  flows sampled to k = 0 are unobserved.  The EM update

  ``n_j <- sum_k m_k * n_j B(k|j,p) / sum_j' n_j' B(k|j',p)
  + n_j B(0|j,p)``

  ascends the likelihood; :func:`em_invert` iterates it to
  convergence on a linear-then-geometric size grid (exact small sizes,
  log-scale bins for the tail — the "binned" in binned inversion).

The **naive** estimator — multiply every sampled size *and* the flow
count by N (:func:`naive_estimate`) — is the baseline both papers beat
and the control the repo's acceptance test pins the inversion against,
using the paper's own disparity metrics (φ, l₁ cost, χ² significance)
over :data:`~repro.flows.sampled.FLOW_SIZE_BINS`.
"""

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.metrics.bins import BinSpec
from repro.core.metrics.registry import evaluate_all
from repro.flows.sampled import FLOW_SIZE_BINS


# ----------------------------------------------------------------------
# size grids and the binomial kernel

def size_grid(
    max_size: int, linear_until: int = 128, growth: float = 1.2
) -> np.ndarray:
    """Candidate parent flow sizes: exact small sizes, geometric tail.

    Sizes ``1..linear_until`` appear individually (small flows carry
    most of the count mass and need exact resolution); above that the
    grid grows by ``growth`` per step, giving log-scale resolution for
    the tail at a bounded number of unknowns.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1, got %d" % max_size)
    if growth <= 1.0:
        raise ValueError("growth must be > 1, got %g" % growth)
    sizes = list(range(1, min(linear_until, max_size) + 1))
    value = float(sizes[-1])
    while sizes[-1] < max_size:
        value *= growth
        candidate = min(int(math.ceil(value)), max_size)
        if candidate > sizes[-1]:
            sizes.append(candidate)
    return np.asarray(sizes, dtype=np.int64)


def binomial_kernel(
    sizes: np.ndarray, p: float, max_k: int
) -> np.ndarray:
    """``A[k, i] = P(Binomial(sizes[i], p) = k)`` for ``k = 0..max_k``.

    Computed by the stable multiplicative recurrence
    ``B(k+1) = B(k) * (j-k)/(k+1) * p/(1-p)`` — no factorials, no
    overflow; terms beyond ``j`` are exactly zero.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("sampling probability must be in (0, 1), got %g" % p)
    if max_k < 0:
        raise ValueError("max_k must be >= 0, got %d" % max_k)
    sizes_f = np.asarray(sizes, dtype=np.float64)
    kernel = np.zeros((max_k + 1, sizes_f.size), dtype=np.float64)
    kernel[0] = np.power(1.0 - p, sizes_f)
    odds = p / (1.0 - p)
    for k in range(max_k):
        factor = np.maximum(sizes_f - k, 0.0) / (k + 1.0) * odds
        kernel[k + 1] = kernel[k] * factor
    return kernel


# ----------------------------------------------------------------------
# estimates

@dataclass(frozen=True)
class FlowSizeEstimate:
    """Estimated parent flow counts over a flow-size grid.

    ``counts[i]`` is the estimated number of parent flows of size
    ``sizes[i]`` packets; counts are real-valued (estimators spread
    fractional mass across the grid).
    """

    method: str
    sizes: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        if self.sizes.shape != self.counts.shape:
            raise ValueError("sizes and counts must align")

    @property
    def total_flows(self) -> float:
        """Estimated parent flow count, unseen flows included."""
        return float(self.counts.sum())

    def bin_counts(self, bins: BinSpec = FLOW_SIZE_BINS) -> np.ndarray:
        """Estimated flow counts over the comparison bins."""
        indices = np.searchsorted(
            np.asarray(bins.edges, dtype=np.float64),
            self.sizes.astype(np.float64),
            side="right",
        )
        out = np.zeros(bins.n_bins, dtype=np.float64)
        np.add.at(out, indices, self.counts)
        return out

    def mean_size(self) -> float:
        """Estimated mean packets per parent flow."""
        total = self.total_flows
        if total <= 0.0:
            return 0.0
        return float((self.sizes * self.counts).sum() / total)


def naive_estimate(
    sampled_sizes: Sequence[int], granularity: int
) -> FlowSizeEstimate:
    """The uninverted baseline: scale sizes and counts by N.

    Each sampled flow of k packets is read as a parent flow of k*N
    packets, and each stands in for N parent flows.  Both moves are
    wrong in instructive ways: small parent flows (never sampled) are
    entirely absent, and every surviving flow is pushed into the tail.
    """
    if granularity < 1:
        raise ValueError("granularity must be >= 1, got %d" % granularity)
    sizes = np.asarray(sampled_sizes, dtype=np.int64)
    if sizes.size == 0:
        return FlowSizeEstimate(
            method="naive",
            sizes=np.zeros(0, dtype=np.int64),
            counts=np.zeros(0, dtype=np.float64),
        )
    unique, counts = np.unique(sizes, return_counts=True)
    return FlowSizeEstimate(
        method="naive",
        sizes=unique * granularity,
        counts=counts.astype(np.float64) * granularity,
    )


def em_invert(
    sampled_sizes: Sequence[int],
    granularity: int,
    grid: Optional[np.ndarray] = None,
    max_iterations: int = 500,
    tol: float = 1e-7,
) -> FlowSizeEstimate:
    """Binned EM/MLE inversion of the sampled flow-size distribution.

    Parameters
    ----------
    sampled_sizes:
        Packet counts of the observed (sampled) flows, each >= 1.
    granularity:
        The sampler's N (sampling probability p = 1/N); must be >= 2
        (at N = 1 the sample *is* the parent and there is nothing to
        invert).
    grid:
        Candidate parent sizes; defaults to :func:`size_grid` spanning
        up to roughly ``N * (k_max + 4 sqrt(k_max))``, the upper range
        a binomial k_max is plausibly thinned from.
    max_iterations, tol:
        EM stops when the relative L1 change of the count vector drops
        below ``tol`` (or at the iteration cap).

    Returns the estimated parent counts — including the flows sampling
    never saw, which is the entire point.
    """
    if granularity < 2:
        raise ValueError(
            "inversion needs granularity >= 2, got %d" % granularity
        )
    sizes = np.asarray(sampled_sizes, dtype=np.int64)
    if sizes.size and int(sizes.min()) < 1:
        raise ValueError("sampled flow sizes must be >= 1")
    if sizes.size == 0:
        return FlowSizeEstimate(
            method="em",
            sizes=np.zeros(0, dtype=np.int64),
            counts=np.zeros(0, dtype=np.float64),
        )
    p = 1.0 / granularity
    max_k = int(sizes.max())
    observed = np.bincount(sizes, minlength=max_k + 1).astype(np.float64)
    observed[0] = 0.0
    if grid is None:
        reach = max_k + 4.0 * math.sqrt(max_k) + 4.0
        grid = size_grid(int(math.ceil(reach * granularity)))
    kernel = binomial_kernel(grid, p, max_k)
    visible = 1.0 - kernel[0]
    total_observed = float(observed.sum())
    counts = np.full(grid.size, total_observed / grid.size, dtype=np.float64)
    for _ in range(max_iterations):
        weighted = kernel[1:] * counts  # (k, j) joint up to normalization
        denominators = weighted.sum(axis=1)
        safe = denominators > 0.0
        responsibilities = np.zeros_like(weighted)
        responsibilities[safe] = (
            weighted[safe] / denominators[safe, np.newaxis]
        )
        updated = (
            observed[1:, np.newaxis] * responsibilities
        ).sum(axis=0) + counts * kernel[0]
        delta = float(np.abs(updated - counts).sum())
        counts = updated
        if delta <= tol * (float(counts.sum()) + 1.0):
            break
    # Consistency note: at the fixed point, counts * visible matches
    # the observed flow total exactly (every observed flow attributed).
    del visible
    return FlowSizeEstimate(method="em", sizes=grid, counts=counts)


# ----------------------------------------------------------------------
# tail rescaling (Chabchoub)

@dataclass(frozen=True)
class TailFit:
    """A fitted Pareto-like tail ``P(S >= x) ~ amplitude * x**-exponent``."""

    exponent: float
    amplitude: float
    kmin: int

    def ccdf(self, x: np.ndarray) -> np.ndarray:
        """The fitted tail probability at (an array of) sizes."""
        values = np.asarray(x, dtype=np.float64)
        return np.minimum(
            1.0, self.amplitude * np.power(values, -self.exponent)
        )


def fit_tail(sizes: Sequence[int], kmin: int = 2) -> TailFit:
    """Least-squares power-law fit to the empirical CCDF above kmin.

    The discrete CCDF ``P(S >= v)`` is evaluated at every distinct
    observed size ``v >= kmin`` and fitted as a line in log-log space.
    Needs at least two distinct sizes in the tail.
    """
    if kmin < 1:
        raise ValueError("kmin must be >= 1, got %d" % kmin)
    arr = np.asarray(sizes, dtype=np.int64)
    values = np.unique(arr[arr >= kmin])
    if values.size < 2:
        raise ValueError(
            "tail fit needs >= 2 distinct sizes above kmin=%d, got %d"
            % (kmin, values.size)
        )
    n = float(arr.size)
    ccdf = np.asarray(
        [(arr >= value).sum() / n for value in values], dtype=np.float64
    )
    slope, intercept = np.polyfit(np.log(values), np.log(ccdf), 1)
    return TailFit(
        exponent=float(-slope), amplitude=float(np.exp(intercept)), kmin=kmin
    )


@dataclass(frozen=True)
class TailRescaling:
    """Chabchoub tail-rescaling output: the fit plus the rescaled tail.

    ``estimate`` carries parent flow counts only for sizes at or above
    ``threshold_size`` — the method recovers the *tail*, deliberately
    claiming nothing about small flows (that is the EM's job).
    """

    fit: TailFit
    threshold_size: int
    estimate: FlowSizeEstimate


def chabchoub_estimate(
    sampled_sizes: Sequence[int],
    granularity: int,
    kmin: int = 2,
    grid: Optional[np.ndarray] = None,
) -> TailRescaling:
    """Rescale the sampled tail into the parent tail.

    Fits ``P(S_sampled >= k) ~ C k^-a`` above ``kmin``, then reads the
    parent tail as the same law at ``pk``: ``P(S >= j) ~ C (pj)^-a``
    for ``j >= kmin * N``.  Tail flow *counts* are anchored on the
    observed tail population: a sampled flow of ``>= kmin`` packets
    corresponds (with high probability, for heavy tails) to a parent
    flow of ``>= kmin * N`` packets, so the observed tail count carries
    over and is distributed across sizes by the rescaled law.
    """
    if granularity < 2:
        raise ValueError(
            "tail rescaling needs granularity >= 2, got %d" % granularity
        )
    arr = np.asarray(sampled_sizes, dtype=np.int64)
    fit = fit_tail(arr, kmin=kmin)
    threshold = kmin * granularity
    if grid is None:
        grid = size_grid(
            int(arr.max()) * granularity * 2, linear_until=threshold
        )
    tail_grid = grid[grid >= threshold]
    if tail_grid.size == 0:
        raise ValueError("grid contains no sizes above the tail threshold")
    p = 1.0 / granularity
    ccdf = fit.ccdf(tail_grid.astype(np.float64) * p)
    # Per-size mass: successive CCDF differences, closed by the last value.
    mass = np.empty(tail_grid.size, dtype=np.float64)
    mass[:-1] = ccdf[:-1] - ccdf[1:]
    mass[-1] = ccdf[-1]
    mass = np.maximum(mass, 0.0)
    tail_count = float((arr >= kmin).sum())
    total_mass = float(mass.sum())
    counts = (
        mass * (tail_count / total_mass)
        if total_mass > 0.0
        else np.zeros_like(mass)
    )
    return TailRescaling(
        fit=fit,
        threshold_size=threshold,
        estimate=FlowSizeEstimate(
            method="chabchoub-tail", sizes=tail_grid, counts=counts
        ),
    )


# ----------------------------------------------------------------------
# scoring against ground truth

@dataclass(frozen=True)
class EstimateScore:
    """The repo's disparity metrics for one estimate vs. ground truth."""

    method: str
    phi: float
    l1_cost: float
    chi2_significance: float


def score_estimate(
    estimate: FlowSizeEstimate,
    parent_sizes: Sequence[int],
    bins: BinSpec = FLOW_SIZE_BINS,
    min_size: int = 0,
) -> EstimateScore:
    """Score an estimated flow-size distribution against the truth.

    Both distributions are reduced to the comparison bins; the parent's
    occupied bins define the support (exactly as the evaluation harness
    scores packet samples), and the estimate's bin counts play the role
    of the observed sample.  ``min_size`` restricts the comparison to
    bins entirely at or above it — tail estimators are scored only on
    the region they claim.
    """
    parent = np.asarray(parent_sizes, dtype=np.float64)
    lower_bounds = np.concatenate(([0.0], np.asarray(bins.edges)))
    keep = lower_bounds >= float(min_size)
    if min_size <= 1:
        keep[:] = True
    parent_counts = bins.counts(parent)[keep]
    observed = estimate.bin_counts(bins)[keep]
    support = parent_counts > 0
    if int(support.sum()) < 2:
        raise ValueError(
            "parent occupies fewer than two comparison bins; "
            "choose finer bins or a smaller min_size"
        )
    # The estimate is a full-scale count, not a subsample of the parent.
    scores = evaluate_all(
        observed[support],
        parent_counts[support] / float(parent_counts.sum()),
        fraction=1.0,
    )
    return EstimateScore(
        method=estimate.method,
        phi=scores.phi,
        l1_cost=scores.cost,
        chi2_significance=scores.significance,
    )


def compare_estimators(
    parent_sizes: Sequence[int],
    sampled_sizes: Sequence[int],
    granularity: int,
    bins: BinSpec = FLOW_SIZE_BINS,
) -> Dict[str, EstimateScore]:
    """Naive vs. EM, scored on the same ground truth and bins.

    The dict is keyed by estimator name; the acceptance criterion of
    the flow subsystem is ``scores["em"].phi < scores["naive"].phi``
    (and likewise for l₁ cost) on a seeded synthetic trace.
    """
    estimates = (
        naive_estimate(sampled_sizes, granularity),
        em_invert(sampled_sizes, granularity),
    )
    return {
        estimate.method: score_estimate(estimate, parent_sizes, bins=bins)
        for estimate in estimates
    }


def detected_flow_fraction(
    parent_sizes: Sequence[int], granularity: int
) -> Tuple[float, float]:
    """(expected, per-flow-average) probability a parent flow is seen.

    Expected detections under Bernoulli 1-in-N thinning:
    ``1 - (1-p)^j`` per flow of size j.  Returned as (mean detection
    probability, expected detected count / parent count) — equal by
    definition, kept separate for readability at call sites.
    """
    sizes = np.asarray(parent_sizes, dtype=np.float64)
    if sizes.size == 0:
        return 0.0, 0.0
    p = 1.0 / float(granularity)
    seen = 1.0 - np.power(1.0 - p, sizes)
    mean = float(seen.mean())
    return mean, mean
