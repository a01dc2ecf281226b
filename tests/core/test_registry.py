"""Joint metric evaluation coherence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.metrics.chisquare import (
    chi_square,
    chi_square_significance,
    chi_square_test,
)
from repro.core.metrics.cost import cost, relative_cost
from repro.core.metrics.paxson import normalized_deviation, x_square
from repro.core.metrics.phi import phi_coefficient
from repro.core.metrics.registry import METRIC_NAMES, DisparityScores, evaluate_all


class TestEvaluateAll:
    @pytest.fixture()
    def scores(self) -> DisparityScores:
        return evaluate_all([60, 40], [0.5, 0.5], fraction=0.1)

    def test_internal_consistency(self, scores):
        # phi^2 * n == chi2 with n = 2 * sample size.
        n = 2 * scores.sample_size
        assert scores.phi**2 * n == pytest.approx(scores.chi2)
        # rcost = fraction * cost.
        assert scores.rcost == pytest.approx(scores.fraction * scores.cost)
        # k = sqrt(X2 / B).
        assert scores.k == pytest.approx(np.sqrt(scores.x2 / 2))

    def test_one_minus_significance(self, scores):
        assert scores.one_minus_significance == pytest.approx(
            1.0 - scores.significance
        )

    def test_as_dict_covers_metric_names(self, scores):
        assert set(scores.as_dict()) == set(METRIC_NAMES)

    def test_sample_size_recorded(self, scores):
        assert scores.sample_size == 100

    def test_perfect_sample_all_zero(self):
        scores = evaluate_all([50, 50], [0.5, 0.5], fraction=0.5)
        assert scores.chi2 == 0.0
        assert scores.phi == 0.0
        assert scores.cost == 0.0
        assert scores.x2 == 0.0
        assert scores.significance == 1.0

    @pytest.mark.parametrize("scale", [12.25, 1000.9])
    def test_proportional_float_counts_score_zero(self, scale):
        """An estimate's float counts meet E at their own total, not its floor."""
        p = np.array([0.5, 0.3, 0.2])
        scores = evaluate_all(p * scale, p, fraction=1.0)
        assert scores.phi == pytest.approx(0.0, abs=1e-12)
        assert scores.cost == pytest.approx(0.0, abs=1e-9)
        assert scores.sample_size == int(scale)


def _outcome(compute):
    """A computation's value, or its ValueError's message."""
    try:
        return compute()
    except ValueError as error:
        return "ValueError: %s" % error


@st.composite
def scoring_inputs(draw):
    """(observed, proportions, fraction), valid or not.

    3-11 bins, some with zero proportion; empty samples; counts in a
    bin the parent lacks; and proportions that are negative, do not
    sum to 1, have one bin, or do not match the counts' length.
    """
    n_bins = draw(st.integers(min_value=3, max_value=11))
    weights = np.array(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
                min_size=n_bins,
                max_size=n_bins,
            )
        )
    )
    if not weights.any():
        weights[0] = 1.0
    proportions = weights / weights.sum()
    observed = np.array(
        draw(st.lists(st.integers(0, 60), min_size=n_bins, max_size=n_bins))
    )
    if draw(st.booleans()):
        observed[proportions == 0] = 0
    if draw(st.integers(0, 3)) == 0:
        observed[:] = 0
    corruption = draw(
        st.sampled_from(
            ["none", "none", "negative", "unnormalized", "one-bin", "length"]
        )
    )
    if corruption == "negative":
        proportions[1] += proportions[0] + 0.5
        proportions[0] = -0.5
    elif corruption == "unnormalized":
        proportions = proportions * 1.5
    elif corruption == "one-bin":
        proportions = np.array([1.0])
    elif corruption == "length":
        observed = observed[:-1]
    fraction = draw(
        st.one_of(st.sampled_from([0.0, -0.1, 1.5]), st.floats(0.001, 1.0))
    )
    return observed, proportions, fraction


class TestOneRuleForEveryMetric:
    """Each public metric is its evaluate_all field, value or error."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: phi_coefficient([0, 0], [2.0, -1.0]), "non-negative"),
            (lambda: evaluate_all([0, 0], [2.0, -1.0], 0.0), "non-negative"),
            (lambda: cost([3, 1, 0], [0.5, 0.0, 0.5]), "zero population"),
            (lambda: cost([3, 1], [0.2, 0.3, 0.5]), "observed has 2 bins"),
        ],
        ids=["phi-empty", "evaluate_all-empty", "cost-zero-bin", "cost-shape"],
    )
    def test_invalid_input_raises_for_every_metric(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_empty_sample_scores_zero_at_any_fraction(self):
        scores = evaluate_all([0, 0, 0], [0.5, 0.0, 0.5], fraction=0.0)
        assert (scores.chi2, scores.cost, scores.rcost, scores.phi) == (0, 0, 0, 0)
        assert scores.significance == 1.0
        assert relative_cost([0, 0], [0.5, 0.5], fraction=0.0) == 0.0

    @settings(max_examples=400, deadline=None)
    @given(case=scoring_inputs())
    def test_metrics_equal_evaluate_all(self, case):
        observed, proportions, fraction = case

        def field(name, at_fraction=1.0):
            return _outcome(
                lambda: getattr(
                    evaluate_all(observed, proportions, at_fraction), name
                )
            )

        def metric(fn, *extra):
            return _outcome(lambda: fn(observed, proportions, *extra))

        assert metric(chi_square) == field("chi2")
        assert metric(chi_square_significance) == field("significance")
        test = metric(chi_square_test)
        if isinstance(test, str):
            assert test == field("chi2")
        else:
            assert test.statistic == field("chi2")
            assert test.significance == field("significance")
        assert metric(cost) == field("cost")
        assert metric(relative_cost, fraction) == field("rcost", fraction)
        assert metric(x_square) == field("x2")
        assert metric(normalized_deviation) == field("k")
        assert metric(phi_coefficient) == field("phi")
