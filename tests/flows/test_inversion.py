"""Flow-size inversion: kernel, EM, tail rescaling, scoring."""

import numpy as np
import pytest

from repro.core.metrics.registry import evaluate_all
from repro.core.sampling.factory import make_sampler
from repro.flows.inversion import (
    FlowSizeEstimate,
    binomial_kernel,
    chabchoub_estimate,
    compare_estimators,
    detected_flow_fraction,
    em_invert,
    fit_tail,
    naive_estimate,
    score_estimate,
    size_grid,
)
from repro.flows.sampled import FLOW_SIZE_BINS, flow_study


class TestSizeGrid:
    def test_small_grid_is_exact(self):
        assert size_grid(10).tolist() == list(range(1, 11))

    def test_tail_is_geometric_and_capped(self):
        grid = size_grid(10_000, linear_until=16, growth=1.5)
        assert grid[:16].tolist() == list(range(1, 17))
        assert grid[-1] == 10_000
        tail = grid[16:]
        assert np.all(np.diff(tail) > 0)
        # Geometric spacing: the tail needs far fewer points than linear.
        assert tail.size < 30

    def test_validation(self):
        with pytest.raises(ValueError):
            size_grid(0)
        with pytest.raises(ValueError):
            size_grid(10, growth=1.0)


class TestBinomialKernel:
    def test_matches_exact_pmf(self):
        sizes = np.asarray([1, 2, 5], dtype=np.int64)
        p = 0.25
        kernel = binomial_kernel(sizes, p, max_k=5)
        # Hand-computed B(k | j, 0.25) entries.
        assert kernel[0, 0] == pytest.approx(0.75)
        assert kernel[1, 0] == pytest.approx(0.25)
        assert kernel[2, 0] == pytest.approx(0.0)
        assert kernel[2, 1] == pytest.approx(0.25**2)
        assert kernel[3, 2] == pytest.approx(
            10 * 0.25**3 * 0.75**2
        )

    def test_columns_sum_to_one(self):
        sizes = size_grid(200)
        kernel = binomial_kernel(sizes, 0.1, max_k=200)
        assert np.allclose(kernel.sum(axis=0), 1.0)

    def test_validation(self):
        sizes = np.asarray([1, 2])
        for bad_p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                binomial_kernel(sizes, bad_p, max_k=1)
        with pytest.raises(ValueError):
            binomial_kernel(sizes, 0.5, max_k=-1)


class TestNaiveEstimate:
    def test_scales_sizes_and_counts(self):
        estimate = naive_estimate([1, 1, 3], granularity=10)
        assert estimate.method == "naive"
        assert estimate.sizes.tolist() == [10, 30]
        assert estimate.counts.tolist() == [20.0, 10.0]
        assert estimate.total_flows == 30.0
        assert estimate.mean_size() == pytest.approx((200 + 300) / 30)

    def test_empty(self):
        estimate = naive_estimate([], granularity=10)
        assert estimate.total_flows == 0.0
        assert estimate.mean_size() == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            naive_estimate([1], granularity=0)


class TestEmInvert:
    def test_recovers_known_parent(self, rng):
        """Thin a known monodisperse parent; EM must find its census."""
        granularity = 10
        parent_size = 200
        n_flows = 500
        sampled = rng.binomial(parent_size, 1.0 / granularity, size=n_flows)
        sampled = sampled[sampled > 0]
        estimate = em_invert(sampled, granularity)
        # Total flow count within 15% (zero-truncation correction works:
        # at j=200, p=0.1 almost every flow is seen).
        assert estimate.total_flows == pytest.approx(n_flows, rel=0.15)
        # Mass concentrates near the true size.
        assert estimate.mean_size() == pytest.approx(parent_size, rel=0.15)

    def test_mass_conservation_at_fixed_point(self):
        """counts * P(seen) must equal the observed flow count."""
        sampled = [1, 1, 2, 3, 5, 8, 13, 21]
        granularity = 5
        estimate = em_invert(
            sampled, granularity, tol=1e-12, max_iterations=20_000
        )
        kernel = binomial_kernel(
            estimate.sizes, 1.0 / granularity, max_k=0
        )
        visible = 1.0 - kernel[0]
        assert float((estimate.counts * visible).sum()) == pytest.approx(
            len(sampled), rel=1e-6
        )

    def test_counts_nonnegative(self):
        estimate = em_invert([1, 2, 2, 7], granularity=4)
        assert np.all(estimate.counts >= 0.0)

    def test_custom_grid_respected(self):
        grid = size_grid(50)
        estimate = em_invert([1, 2], granularity=3, grid=grid)
        assert estimate.sizes is grid

    def test_empty_sample(self):
        estimate = em_invert([], granularity=10)
        assert estimate.total_flows == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            em_invert([1], granularity=1)
        with pytest.raises(ValueError):
            em_invert([0, 1], granularity=10)


class TestTailFit:
    def test_recovers_pareto_exponent(self, rng):
        """Sizes drawn from a discrete Pareto: the fit finds its slope."""
        exponent = 1.5
        u = rng.uniform(size=20_000)
        sizes = np.floor(u ** (-1.0 / exponent)).astype(np.int64)
        sizes = sizes[(sizes >= 1) & (sizes <= 100_000)]
        fit = fit_tail(sizes, kmin=3)
        assert fit.exponent == pytest.approx(exponent, rel=0.2)
        assert fit.kmin == 3

    def test_ccdf_capped_at_one(self):
        fit = fit_tail([2, 2, 3, 4, 8, 16], kmin=2)
        assert np.all(fit.ccdf(np.asarray([0.01, 1.0, 100.0])) <= 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_tail([1, 2, 3], kmin=0)
        with pytest.raises(ValueError):
            fit_tail([1, 1, 2], kmin=2)  # one distinct tail size


class TestChabchoubEstimate:
    def test_tail_only_claim(self, rng):
        exponent = 1.2
        u = rng.uniform(size=50_000)
        sizes = np.floor(u ** (-1.0 / exponent)).astype(np.int64)
        sizes = sizes[sizes >= 1]
        granularity = 10
        rescaled = chabchoub_estimate(sizes, granularity, kmin=2)
        assert rescaled.threshold_size == 2 * granularity
        assert np.all(rescaled.estimate.sizes >= rescaled.threshold_size)
        # Anchoring: estimated tail count equals the observed tail count.
        observed_tail = int((sizes >= 2).sum())
        assert rescaled.estimate.total_flows == pytest.approx(
            observed_tail, rel=1e-6
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            chabchoub_estimate([2, 3, 4], granularity=1)


class TestScoring:
    def test_identical_distributions_score_zero_phi(self, rng):
        parent = rng.integers(1, 200, size=2_000)
        estimate = FlowSizeEstimate(
            method="oracle",
            sizes=np.sort(np.unique(parent)),
            counts=np.unique(parent, return_counts=True)[1].astype(
                np.float64
            ),
        )
        score = score_estimate(estimate, parent)
        assert score.method == "oracle"
        assert score.phi == pytest.approx(0.0, abs=1e-9)
        assert score.l1_cost == pytest.approx(0.0, abs=1e-6)

    def test_min_size_restricts_to_tail_bins(self, rng):
        parent = rng.integers(1, 1000, size=5_000)
        estimate = naive_estimate(
            rng.integers(1, 10, size=200).tolist(), granularity=100
        )
        full = score_estimate(estimate, parent)
        tail = score_estimate(estimate, parent, min_size=64)
        assert full.phi != tail.phi

    def test_is_evaluate_all_on_the_parent_support(self, rng):
        parent = rng.integers(1, 1000, size=5_000)
        estimate = naive_estimate(
            rng.integers(1, 10, size=200).tolist(), granularity=100
        )
        parent_counts = FLOW_SIZE_BINS.counts(parent)
        support = parent_counts > 0
        scores = evaluate_all(
            estimate.bin_counts(FLOW_SIZE_BINS)[support],
            parent_counts[support] / float(parent_counts.sum()),
            1.0,
        )
        score = score_estimate(estimate, parent)
        assert (score.phi, score.l1_cost, score.chi2_significance) == (
            scores.phi,
            scores.cost,
            scores.significance,
        )

    def test_needs_two_occupied_bins(self):
        estimate = naive_estimate([1, 2], granularity=10)
        with pytest.raises(ValueError, match="fewer than two"):
            score_estimate(estimate, [3, 3, 3])

    def test_misaligned_estimate_rejected(self):
        with pytest.raises(ValueError):
            FlowSizeEstimate(
                method="broken",
                sizes=np.asarray([1, 2]),
                counts=np.asarray([1.0]),
            )


class TestAcceptance:
    """The subsystem's pinned claim: EM inversion beats the naive
    rescaling under the paper's operational 1-in-100 systematic
    sampling, on phi AND l1 cost, deterministically."""

    @pytest.fixture(scope="class")
    def populations(self, five_minute_trace):
        sampler = make_sampler("systematic", granularity=100)
        study = flow_study(
            five_minute_trace, sampler, rng=np.random.default_rng(0)
        )
        return study.parent.sizes(), study.sampled.sizes()

    def test_em_beats_naive(self, populations):
        parent_sizes, sampled_sizes = populations
        scores = compare_estimators(parent_sizes, sampled_sizes, 100)
        assert scores["em"].phi < scores["naive"].phi
        assert scores["em"].l1_cost < scores["naive"].l1_cost

    def test_em_census_closer_than_naive(self, populations):
        parent_sizes, sampled_sizes = populations
        truth = float(parent_sizes.size)
        em = em_invert(sampled_sizes, 100).total_flows
        naive = naive_estimate(sampled_sizes, 100).total_flows
        assert abs(em - truth) < abs(naive - truth)

    def test_detected_fraction_formula_matches_observation(
        self, five_minute_trace
    ):
        """The Bernoulli detection formula predicts SRS detection.

        Detection is per 5-tuple (a key with several timeout-split
        incarnations is detected if *any* of its packets is kept), so
        the formula is fed per-key packet totals, not per-record sizes.
        """
        from collections import defaultdict

        sampler = make_sampler("random", granularity=100)
        study = flow_study(
            five_minute_trace, sampler, rng=np.random.default_rng(0)
        )
        per_key = defaultdict(int)
        for record in study.parent.records:
            per_key[record.key] += record.packets
        expected, _ = detected_flow_fraction(list(per_key.values()), 100)
        assert study.detected_fraction == pytest.approx(expected, rel=0.1)

    def test_deterministic(self, five_minute_trace):
        sampler = make_sampler("systematic", granularity=100)
        first = flow_study(
            five_minute_trace, sampler, rng=np.random.default_rng(0)
        )
        second = flow_study(
            five_minute_trace,
            make_sampler("systematic", granularity=100),
            rng=np.random.default_rng(0),
        )
        a = compare_estimators(
            first.parent.sizes(), first.sampled.sizes(), 100
        )
        b = compare_estimators(
            second.parent.sizes(), second.sampled.sizes(), 100
        )
        assert a["em"].phi == b["em"].phi
        assert a["naive"].l1_cost == b["naive"].l1_cost


def test_flow_size_bins_are_geometric():
    edges = np.asarray(FLOW_SIZE_BINS.edges, dtype=np.float64)
    assert np.allclose(edges[1:] / edges[:-1], 2.0)
