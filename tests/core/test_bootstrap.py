"""The bootstrap null distribution for phi."""

import numpy as np
import pytest
import scipy.stats

from repro.core.metrics.bootstrap import (
    phi_null_quantiles,
    phi_null_samples,
    phi_pvalue,
)
from repro.core.metrics.phi import phi_coefficient


PROPS = np.array([0.47, 0.10, 0.43])  # ~ the paper's size bins


class TestNullSamples:
    def test_shape_and_positivity(self, rng):
        values = phi_null_samples(PROPS, 1000, n_resamples=200, rng=rng)
        assert values.shape == (200,)
        assert np.all(values >= 0)

    def test_scales_as_inverse_sqrt_n(self, rng):
        small = phi_null_samples(PROPS, 100, n_resamples=800, rng=rng).mean()
        large = phi_null_samples(PROPS, 10_000, n_resamples=800, rng=rng).mean()
        assert small / large == pytest.approx(10.0, rel=0.15)

    def test_agrees_with_chi2_asymptotics(self, rng):
        """phi ~ sqrt(chi2_{B-1} / 2n) in the large-count limit."""
        n = 5000
        values = phi_null_samples(PROPS, n, n_resamples=3000, rng=rng)
        q95_boot = np.quantile(values, 0.95)
        q95_asymptotic = np.sqrt(scipy.stats.chi2.ppf(0.95, df=2) / (2 * n))
        assert q95_boot == pytest.approx(q95_asymptotic, rel=0.05)

    @pytest.mark.parametrize(
        "props, n",
        [
            (PROPS, 1000),
            (PROPS, 1),
            ([0.2, 0.0, 0.3, 0.5], 40),
            (np.r_[np.full(16, 0.05), np.zeros(3), np.full(4, 0.05)], 700),
        ],
    )
    def test_equals_phi_coefficient_of_each_resample(self, props, n):
        values = phi_null_samples(props, n, n_resamples=300, rng=np.random.default_rng(4))
        counts = np.random.default_rng(4).multinomial(n, props, size=300)
        assert values.tolist() == [phi_coefficient(row, props) for row in counts]

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            phi_null_samples([1.0], 100, rng=rng)
        with pytest.raises(ValueError):
            phi_null_samples([0.5, 0.4], 100, rng=rng)
        with pytest.raises(ValueError):
            phi_null_samples(PROPS, 0, rng=rng)
        with pytest.raises(ValueError):
            phi_null_samples(PROPS, 100, n_resamples=0, rng=rng)


class TestQuantiles:
    def test_monotone(self, rng):
        quantiles = phi_null_quantiles(
            PROPS, 1000, quantiles=(0.5, 0.9, 0.99), rng=rng
        )
        assert quantiles[0.5] < quantiles[0.9] < quantiles[0.99]

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            phi_null_quantiles(PROPS, 100, quantiles=(1.5,), rng=rng)


class TestPValue:
    def test_null_phi_not_significant(self, rng):
        # A phi drawn from the null itself should get a mid-range p.
        null_phi = float(
            phi_null_samples(PROPS, 1000, n_resamples=1, rng=rng)[0]
        )
        p = phi_pvalue(null_phi, PROPS, 1000, rng=rng)
        assert p > 0.01

    def test_huge_phi_significant(self, rng):
        p = phi_pvalue(0.5, PROPS, 1000, rng=rng)
        assert p < 0.01

    def test_zero_phi_p_one(self, rng):
        assert phi_pvalue(0.0, PROPS, 1000, rng=rng) == pytest.approx(
            1.0, abs=0.01
        )

    def test_never_exactly_zero(self, rng):
        p = phi_pvalue(10.0, PROPS, 1000, n_resamples=50, rng=rng)
        assert p == pytest.approx(1 / 51)

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            phi_pvalue(-0.1, PROPS, 100, rng=rng)


class TestOnRealSamples:
    def test_packet_methods_near_noise_floor(self, minute_trace, rng):
        """Systematic 1-in-50's phi is mostly sampling noise."""
        from repro.core.evaluation.comparison import (
            population_proportions,
            score_sample,
        )
        from repro.core.evaluation.targets import PACKET_SIZE_TARGET
        from repro.core.sampling.systematic import SystematicSampler

        props = population_proportions(minute_trace, PACKET_SIZE_TARGET)
        result = SystematicSampler(granularity=50, phase=9).sample(
            minute_trace
        )
        score = score_sample(
            minute_trace, result, PACKET_SIZE_TARGET, proportions=props
        )
        p = phi_pvalue(
            score.phi, props, score.sample_size, rng=rng
        )
        # Compatible with pure multinomial noise (the paper's chi2
        # compatibility finding, restated through phi).
        assert p > 0.01

    def test_timer_method_far_above_floor(self, minute_trace, rng):
        from repro.core.evaluation.comparison import (
            population_proportions,
            score_sample,
        )
        from repro.core.evaluation.targets import INTERARRIVAL_TARGET
        from repro.core.sampling.timer import TimerSystematicSampler

        props = population_proportions(minute_trace, INTERARRIVAL_TARGET)
        sampler = TimerSystematicSampler.for_granularity(minute_trace, 50)
        result = sampler.sample(minute_trace)
        score = score_sample(
            minute_trace, result, INTERARRIVAL_TARGET, proportions=props
        )
        p = phi_pvalue(score.phi, props, score.sample_size, rng=rng)
        assert p == pytest.approx(1 / 2001)  # beyond every resample
