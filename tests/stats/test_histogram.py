"""Fixed-edge binning conventions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.histogram import bin_counts, bin_proportions


class TestBinCounts:
    def test_paper_size_bins(self):
        # "< 41", "41-180", "> 180" via interior edges (41, 181).
        counts = bin_counts([40, 40, 41, 180, 181, 552], edges=(41, 181))
        assert list(counts) == [2, 2, 2]

    def test_edge_goes_to_upper_bin(self):
        counts = bin_counts([5], edges=(5,))
        assert list(counts) == [0, 1]

    def test_below_first_edge(self):
        counts = bin_counts([-10, 0, 4.999], edges=(5, 10))
        assert list(counts) == [3, 0, 0]

    def test_above_last_edge(self):
        counts = bin_counts([10, 999], edges=(5, 10))
        assert list(counts) == [0, 0, 2]

    def test_empty_input(self):
        counts = bin_counts([], edges=(1, 2, 3))
        assert list(counts) == [0, 0, 0, 0]

    def test_counts_sum_to_input_size(self, rng):
        data = rng.normal(size=1000)
        counts = bin_counts(data, edges=(-1, 0, 1))
        assert counts.sum() == 1000

    def test_no_edges_rejected(self):
        with pytest.raises(ValueError, match="edge"):
            bin_counts([1, 2], edges=())

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            bin_counts([1], edges=(5, 3))

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            bin_counts([1], edges=(5, 5))

    def test_nan_edge_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            bin_counts([1], edges=(5, float("nan")))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_searchsorted_reference(self, data):
        """Comparison counting equals the binary-search binning for
        every value: NaN, both infinities, -0.0 and values on edges."""
        edges = sorted(
            data.draw(st.sets(st.floats(-1e6, 1e6), min_size=1, max_size=10))
        )
        values = data.draw(
            st.lists(
                st.one_of(
                    st.floats(allow_nan=True),
                    st.sampled_from(
                        edges + [float("nan"), float("inf"), -float("inf"), -0.0]
                    ),
                ),
                max_size=200,
            )
        )
        edge_arr = np.asarray(edges)
        reference = np.bincount(
            np.searchsorted(edge_arr, np.asarray(values, dtype=np.float64), side="right"),
            minlength=edge_arr.size + 1,
        )
        counts = bin_counts(values, edges)
        assert counts.dtype == np.int64
        assert counts.tolist() == reference.tolist()


class TestBinProportions:
    def test_proportions_sum_to_one(self):
        props = bin_proportions([1, 2, 3, 10, 20], edges=(5,))
        assert props.sum() == pytest.approx(1.0)
        assert list(props) == pytest.approx([0.6, 0.4])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            bin_proportions([], edges=(5,))

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    def test_partition_property(self, data):
        """Binning partitions the data: counts always sum to len(data)."""
        counts = bin_counts(data, edges=(-10.0, 0.0, 10.0))
        assert counts.sum() == len(data)
        assert np.all(counts >= 0)
