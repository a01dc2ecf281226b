"""Bin specifications and the paper's fixed ranges."""

import pytest

from repro.core.metrics.bins import (
    BinSpec,
    INTERARRIVAL_BINS_US,
    PACKET_SIZE_BINS,
)


class TestPaperBins:
    def test_packet_size_edges(self):
        # "< 41; between 41 and 180; > 180"
        assert PACKET_SIZE_BINS.edges == (41, 181)
        assert PACKET_SIZE_BINS.n_bins == 3

    def test_packet_size_binning(self):
        counts = PACKET_SIZE_BINS.counts([40, 41, 180, 181, 552, 28])
        assert list(counts) == [2, 2, 2]

    def test_interarrival_edges(self):
        # "< 800; 800-1199; 1200-2399; 2400-3599; >= 3600"
        assert INTERARRIVAL_BINS_US.edges == (800, 1200, 2400, 3600)
        assert INTERARRIVAL_BINS_US.n_bins == 5

    def test_interarrival_binning(self):
        counts = INTERARRIVAL_BINS_US.counts(
            [0, 400, 799, 800, 1199, 1200, 2399, 2400, 3599, 3600, 49600]
        )
        assert list(counts) == [3, 2, 2, 2, 2]


class TestBinSpec:
    def test_labels(self):
        spec = BinSpec(name="x", edges=(41, 181))
        assert spec.labels() == ("< 41", "41-180", ">= 181")

    def test_proportions(self):
        spec = BinSpec(name="x", edges=(10,))
        props = spec.proportions([5, 5, 5, 20])
        assert list(props) == pytest.approx([0.75, 0.25])

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            BinSpec(name="x", edges=())
        with pytest.raises(ValueError, match="increasing"):
            BinSpec(name="x", edges=(5, 5))
        with pytest.raises(ValueError, match="increasing"):
            BinSpec(name="x", edges=(10, 5))
        with pytest.raises(ValueError, match="increasing"):
            BinSpec(name="x", edges=(5.0, float("nan")))
