"""Streaming accumulators vs their batch counterparts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.describe import describe
from repro.stats.histogram import bin_counts
from repro.stats.streams import P2Quantile, RunningHistogram, RunningStats


class TestRunningStats:
    def test_matches_describe(self, rng):
        data = rng.exponential(size=2000) * 100
        stats = RunningStats()
        stats.update_many(data)
        d = describe(data)
        assert stats.count == 2000
        assert stats.mean == pytest.approx(d.mean, rel=1e-12)
        assert stats.std == pytest.approx(d.std, rel=1e-10)
        assert stats.skewness == pytest.approx(d.skewness, rel=1e-8)
        assert stats.kurtosis == pytest.approx(d.kurtosis, rel=1e-8)
        assert stats.minimum == d.minimum
        assert stats.maximum == d.maximum

    def test_numerically_stable_at_large_offsets(self, rng):
        # Data with a huge common offset defeats naive sum-of-squares.
        data = rng.normal(size=5000) + 1e9
        stats = RunningStats()
        stats.update_many(data)
        assert stats.std == pytest.approx(data.std(), rel=1e-6)

    def test_merge_exact(self, rng):
        a_data = rng.normal(size=700)
        b_data = rng.normal(loc=5.0, size=300)
        a = RunningStats()
        a.update_many(a_data)
        b = RunningStats()
        b.update_many(b_data)
        merged = a.merge(b)
        whole = RunningStats()
        whole.update_many(np.concatenate([a_data, b_data]))
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean, rel=1e-12)
        assert merged.std == pytest.approx(whole.std, rel=1e-10)
        assert merged.skewness == pytest.approx(whole.skewness, rel=1e-8)
        assert merged.kurtosis == pytest.approx(whole.kurtosis, rel=1e-8)

    def test_merge_with_empty(self, rng):
        a = RunningStats()
        a.update_many(rng.normal(size=10))
        empty = RunningStats()
        assert a.merge(empty).count == 10
        assert empty.merge(a).mean == a.mean

    def test_constant_stream(self):
        stats = RunningStats()
        stats.update_many([5.0] * 100)
        assert stats.std == 0.0
        assert stats.skewness == 0.0
        assert stats.kurtosis == 0.0

    def test_empty_raises(self):
        stats = RunningStats()
        with pytest.raises(ValueError):
            stats.mean
        with pytest.raises(ValueError):
            stats.minimum

    def test_single_value(self):
        stats = RunningStats()
        stats.update(42.0)
        assert stats.mean == 42.0
        assert stats.variance == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=-1e6, max_value=1e6),
            min_size=1,
            max_size=60,
        )
    )
    def test_agrees_with_numpy_property(self, data):
        stats = RunningStats()
        stats.update_many(data)
        arr = np.asarray(data)
        assert stats.mean == pytest.approx(arr.mean(), rel=1e-9, abs=1e-9)
        assert stats.variance == pytest.approx(arr.var(), rel=1e-7, abs=1e-6)


class TestRunningStatsProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        left=st.lists(
            st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=40
        ),
        right=st.lists(
            st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=40
        ),
    )
    def test_merge_equals_concatenation(self, left, right):
        a = RunningStats()
        a.update_many(left)
        b = RunningStats()
        b.update_many(right)
        merged = a.merge(b)
        whole = RunningStats()
        whole.update_many(left + right)
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean, rel=1e-9, abs=1e-9)
        assert merged.variance == pytest.approx(
            whole.variance, rel=1e-6, abs=1e-6
        )
        assert merged.minimum == whole.minimum
        assert merged.maximum == whole.maximum


class TestP2Quantile:
    def test_median_of_uniform(self, rng):
        estimator = P2Quantile(0.5)
        estimator.update_many(rng.random(20_000))
        assert estimator.value == pytest.approx(0.5, abs=0.02)

    def test_tail_quantile(self, rng):
        estimator = P2Quantile(0.95)
        data = rng.exponential(size=50_000)
        estimator.update_many(data)
        assert estimator.value == pytest.approx(
            np.quantile(data, 0.95), rel=0.05
        )

    def test_small_stream_exact(self):
        estimator = P2Quantile(0.5)
        for v in (5.0, 1.0, 3.0):
            estimator.update(v)
        assert estimator.value == 3.0

    def test_packet_size_quartile(self, minute_trace):
        """On the bimodal size stream the markers stay in range."""
        estimator = P2Quantile(0.25)
        estimator.update_many(minute_trace.sizes[:20_000].astype(float))
        assert 28 <= estimator.value <= 80

    def test_validation(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)
        with pytest.raises(ValueError):
            P2Quantile(0.5).value

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=200
        ),
        q=st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]),
    )
    def test_estimate_within_observed_range(self, data, q):
        estimator = P2Quantile(q)
        estimator.update_many(data)
        assert min(data) <= estimator.value <= max(data)


class TestRunningHistogram:
    def test_matches_batch_binning(self, rng):
        data = rng.normal(size=3000) * 100
        edges = (-50.0, 0.0, 50.0)
        hist = RunningHistogram(edges)
        hist.update_many(data)
        assert np.array_equal(hist.counts, bin_counts(data, edges))

    def test_single_updates_match_batch(self):
        hist_a = RunningHistogram((10.0,))
        hist_b = RunningHistogram((10.0,))
        values = [5.0, 10.0, 15.0]
        for v in values:
            hist_a.update(v)
        hist_b.update_many(values)
        assert np.array_equal(hist_a.counts, hist_b.counts)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_update_many_equals_scalar_loop(self, data):
        """The batch kernel and the per-packet reference count every
        value alike, NaN, infinities and edge values included."""
        edges = sorted(
            data.draw(st.sets(st.floats(-1e6, 1e6), min_size=1, max_size=10))
        )
        values = data.draw(
            st.lists(
                st.one_of(
                    st.floats(allow_nan=True),
                    st.sampled_from(edges + [float("nan"), -0.0]),
                ),
                max_size=100,
            )
        )
        split = data.draw(st.integers(0, len(values)))
        scalar = RunningHistogram(edges)
        for value in values:
            scalar.update(value)
        batch = RunningHistogram(edges)
        batch.update_many(values[:split])
        batch.update_many(values[split:])
        assert batch.counts.dtype == scalar.counts.dtype
        assert batch.counts.tolist() == scalar.counts.tolist()

    def test_merge(self):
        a = RunningHistogram((10.0,))
        a.update_many([1.0, 20.0])
        b = RunningHistogram((10.0,))
        b.update_many([2.0])
        merged = a.merge(b)
        assert merged.counts.tolist() == [2, 1]
        assert merged.total == 3

    def test_merge_requires_same_edges(self):
        with pytest.raises(ValueError, match="different edges"):
            RunningHistogram((10.0,)).merge(RunningHistogram((20.0,)))

    def test_validation(self):
        with pytest.raises(ValueError):
            RunningHistogram(())
        with pytest.raises(ValueError):
            RunningHistogram((5.0, 5.0))

    def test_merge_requires_same_edge_count(self):
        """A prefix match is not enough: edge vectors must be identical."""
        a = RunningHistogram((10.0, 20.0))
        b = RunningHistogram((10.0,))
        with pytest.raises(ValueError, match="different edges"):
            a.merge(b)
        with pytest.raises(ValueError, match="different edges"):
            b.merge(a)


class TestStreamEdgeCases:
    """Satellite regressions: the corners batch comparisons skip."""

    @pytest.mark.parametrize("quantile", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_p2_under_five_observations_is_an_exact_order_statistic(
        self, rng, quantile, count
    ):
        """Before the five P² markers exist the estimate must be exact."""
        data = list(rng.normal(size=count) * 100)
        estimator = P2Quantile(quantile)
        estimator.update_many(data)
        ordered = sorted(data)
        index = min(int(np.ceil(quantile * count)) - 1, count - 1)
        assert estimator.value == ordered[max(index, 0)]
        assert estimator.count == count

    def test_p2_transition_to_marker_mode_at_five(self):
        estimator = P2Quantile(0.5)
        estimator.update_many([5.0, 1.0, 4.0, 2.0])
        assert estimator.value == 2.0  # still exact
        estimator.update(3.0)
        assert estimator.value == 3.0  # five sorted markers: true median

    def test_running_stats_merge_matches_describe_at_adversarial_magnitudes(
        self, rng
    ):
        """Merged shards must agree with a two-pass pass over the union.

        The stream mixes a huge common offset with variation ten orders
        of magnitude smaller — the regime where naive moment pushing
        loses every significant digit.
        """
        left = rng.normal(size=4000) * 1e-3 + 1e6
        right = rng.normal(size=5000) * 1e-3 + 1e6
        data = np.concatenate([left, right])
        # The regime is genuinely adversarial: the naive one-pass
        # variance is annihilated by cancellation here.
        naive = (data**2).mean() - data.mean() ** 2
        assert naive <= 0.0
        a, b = RunningStats(), RunningStats()
        a.update_many(left)
        b.update_many(right)
        merged = a.merge(b)
        d = describe(data)
        assert merged.count == d.count
        assert merged.mean == pytest.approx(d.mean, rel=1e-12)
        assert merged.std == pytest.approx(d.std, rel=1e-6)
        assert merged.skewness == pytest.approx(d.skewness, abs=1e-4)
        assert merged.kurtosis == pytest.approx(d.kurtosis, rel=1e-6)
        assert merged.minimum == d.minimum
        assert merged.maximum == d.maximum

    def test_running_stats_merge_order_invariant(self, rng):
        data = rng.exponential(size=1000)
        a, b = RunningStats(), RunningStats()
        a.update_many(data[:300])
        b.update_many(data[300:])
        ab, ba = a.merge(b), b.merge(a)
        assert ab.mean == pytest.approx(ba.mean, rel=1e-13)
        assert ab.std == pytest.approx(ba.std, rel=1e-12)
