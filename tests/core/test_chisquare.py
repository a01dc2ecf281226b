"""Chi-square statistic, significance, and the goodness-of-fit test."""

import numpy as np
import pytest
import scipy.stats

from repro.core.metrics.chisquare import (
    chi_square,
    chi_square_significance,
    chi_square_test,
    expected_counts,
)


class TestExpectedCounts:
    def test_scaling(self):
        expected = expected_counts([0.5, 0.3, 0.2], 100)
        assert list(expected) == pytest.approx([50, 30, 20])

    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            expected_counts([0.5, 0.2], 100)
        with pytest.raises(ValueError, match="non-negative"):
            expected_counts([1.5, -0.5], 100)
        with pytest.raises(ValueError, match="at least two"):
            expected_counts([1.0], 100)
        with pytest.raises(ValueError, match="sample size"):
            expected_counts([0.5, 0.5], -1)

    @pytest.mark.parametrize(
        "props", [[0.5, 0.500009], [0.5, 0.5 + 2e-9], [0.5, 0.5 - 2e-9], [0.5, np.nan]]
    )
    def test_sum_tolerance_is_absolute_1e9(self, props):
        with pytest.raises(ValueError, match="sum to 1"):
            expected_counts(props, 10)

    def test_sum_within_1e9_accepted(self):
        assert expected_counts([0.5, 0.5 + 5e-10], 10).sum() == pytest.approx(10.0)

    def test_sum_error_prints_a_plain_float(self):
        with pytest.raises(ValueError, match=r"got 1\.1$"):
            expected_counts([0.6, 0.5], 10)


class TestChiSquare:
    def test_perfect_sample_scores_zero(self):
        assert chi_square([50, 30, 20], [0.5, 0.3, 0.2]) == 0.0

    def test_hand_computed(self):
        # O = [60, 40], E = [50, 50]: chi2 = 100/50 + 100/50 = 4.
        assert chi_square([60, 40], [0.5, 0.5]) == pytest.approx(4.0)

    def test_matches_scipy(self, rng):
        props = np.array([0.2, 0.3, 0.5])
        observed = rng.multinomial(1000, props)
        ours = chi_square(observed, props)
        theirs = scipy.stats.chisquare(observed, props * 1000).statistic
        assert ours == pytest.approx(theirs)

    def test_zero_proportion_bin_with_observations_rejected(self):
        with pytest.raises(ValueError, match="zero population"):
            chi_square([10, 5], [1.0, 0.0])

    def test_zero_proportion_bin_empty_ok(self):
        assert chi_square([10, 0], [1.0, 0.0]) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="bins"):
            chi_square([1, 2, 3], [0.5, 0.5])


class TestSignificance:
    def test_matches_scipy(self, rng):
        props = np.array([0.25, 0.25, 0.25, 0.25])
        observed = rng.multinomial(400, props)
        ours = chi_square_significance(observed, props)
        theirs = scipy.stats.chisquare(observed, props * 400).pvalue
        assert ours == pytest.approx(theirs)

    def test_perfect_sample_full_significance(self):
        assert chi_square_significance([25, 25, 25, 25], [0.25] * 4) == 1.0

    def test_dof_excludes_empty_bins(self, rng):
        props = np.array([0.5, 0.5, 0.0])
        observed = np.array([260, 240, 0])
        ours = chi_square_significance(observed, props)
        theirs = scipy.stats.chisquare(observed[:2], props[:2] * 500).pvalue
        assert ours == pytest.approx(theirs)

    def test_single_occupied_bin_trivially_significant(self):
        # A one-bin population has nothing to test: any support-
        # respecting sample matches it.
        assert chi_square_significance([10, 0], [1.0, 0.0]) == 1.0


class TestChiSquareTest:
    def test_good_sample_not_rejected(self, rng):
        props = np.array([0.5, 0.3, 0.2])
        observed = props * 1000  # exactly expected
        test = chi_square_test(observed, props)
        assert not test.rejected
        assert test.significance == 1.0

    def test_bad_sample_rejected(self):
        test = chi_square_test([900, 50, 50], [0.5, 0.3, 0.2])
        assert test.rejected
        assert test.significance < 1e-10

    def test_alpha_controls_rejection(self, rng):
        # A mildly off sample: rejected at alpha=0.5, kept at 0.001.
        props = np.array([0.5, 0.5])
        observed = [530, 470]
        loose = chi_square_test(observed, props, alpha=0.5)
        strict = chi_square_test(observed, props, alpha=0.001)
        assert loose.rejected
        assert not strict.rejected

    def test_dof_reported(self):
        test = chi_square_test([25, 25, 25, 25], [0.25] * 4)
        assert test.dof == 3

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            chi_square_test([10, 10], [0.5, 0.5], alpha=0.0)

    def test_false_rejection_rate_near_alpha(self):
        """Under the null, about 5% of samples reject at alpha=0.05."""
        rng = np.random.default_rng(0)
        props = np.array([0.4, 0.35, 0.25])
        rejections = sum(
            chi_square_test(rng.multinomial(500, props), props).rejected
            for _ in range(400)
        )
        assert 4 <= rejections <= 40  # ~20 expected
