"""The online quality monitor vs its batch counterpart."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.temporal import fidelity_series
from repro.core.evaluation.targets import (
    INTERARRIVAL_TARGET,
    PACKET_SIZE_TARGET,
)
from repro.core.metrics.registry import evaluate_all
from repro.core.sampling.base import SamplingResult
from repro.core.sampling.streaming import StreamingSystematic
from repro.core.sampling.systematic import SystematicSampler
from repro.obs.live import (
    NULL_MONITOR,
    NullQualityMonitor,
    QualityMonitor,
    WindowStats,
)
from repro.stats.histogram import bin_counts

WINDOW_US = 10_000_000


def drive(monitor, trace, kept_mask):
    """Feed a trace through a monitor; return every closed window."""
    windows = []
    for i in range(len(trace)):
        windows.extend(
            monitor.observe(
                int(trace.timestamps_us[i]),
                float(trace.sizes[i]),
                bool(kept_mask[i]),
            )
        )
    final = monitor.flush()
    if final is not None:
        windows.append(final)
    return windows


def assert_scores_match_batch(trace, kept, stats, target):
    """Each window scores what the batch path scores, under ``==``.

    φ is :func:`fidelity_series`'s; χ²-p and cost are
    :func:`evaluate_all`'s on the window's own parent and sample counts.
    """
    result = SamplingResult(
        indices=np.flatnonzero(kept),
        population_size=len(trace),
        method="mask",
        parameters={},
    )
    points = fidelity_series(trace, result, target, WINDOW_US)
    assert len(stats) == len(points)
    values = target.attribute_values(trace)
    for window, point in zip(stats, points):
        assert (window.start_us, window.end_us) == (point.start_us, point.end_us)
        assert window.get("phi[%s]" % target.name) == point.phi
        lo, hi = np.searchsorted(trace.timestamps_us, [point.start_us, point.end_us])
        defined = ~np.isnan(values[lo:hi])
        parent = values[lo:hi][defined]
        sampled = values[lo:hi][defined & kept[lo:hi]]
        expected = (None, None)
        if point.phi is not None:
            scores = evaluate_all(
                target.bins.counts(sampled),
                target.bins.proportions(parent),
                sampled.size / parent.size,
            )
            expected = (scores.significance, scores.cost)
        assert (
            window.get("chi2_p[%s]" % target.name),
            window.get("cost[%s]" % target.name),
        ) == expected


TARGETS = pytest.mark.parametrize(
    "target", [PACKET_SIZE_TARGET, INTERARRIVAL_TARGET], ids=lambda t: t.name
)


class TestBatchEquivalence:
    """The monitor's windows must match the batch path point-for-point."""

    @pytest.fixture(scope="class")
    def windows(self, minute_trace):
        result = SystematicSampler(50).sample(minute_trace)
        kept = np.zeros(len(minute_trace), dtype=bool)
        kept[result.indices] = True
        monitor = QualityMonitor(window_us=WINDOW_US)
        return kept, drive(monitor, minute_trace, kept)

    @TARGETS
    def test_phi_matches_fidelity_series(self, minute_trace, windows, target):
        kept, stats = windows
        assert_scores_match_batch(minute_trace, kept, stats, target)

    @TARGETS
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        granularity=st.sampled_from([2, 8, 50, 256]),
    )
    def test_random_keep_mask_scores_match_batch(
        self, minute_trace, target, seed, granularity
    ):
        rng = np.random.default_rng(seed)
        kept = rng.random(len(minute_trace)) < 1.0 / granularity
        monitor = QualityMonitor(window_us=WINDOW_US)
        stats = []
        monitor.observe_chunk(
            minute_trace.timestamps_us,
            minute_trace.sizes,
            lambda lo, hi: kept[lo:hi],
            on_close=stats.append,
        )
        final = monitor.flush()
        if final is not None:
            stats.append(final)
        assert_scores_match_batch(minute_trace, kept, stats, target)

    def test_windows_tile_the_stream(self, minute_trace, windows):
        _, stats = windows
        origin = int(minute_trace.timestamps_us[0])
        for i, window in enumerate(stats):
            assert window.index == i
            assert window.start_us == origin + i * WINDOW_US
            assert window.end_us == window.start_us + WINDOW_US
        assert sum(w.offered for w in stats) == len(minute_trace)

    def test_sampled_fraction_is_plausible(self, windows):
        _, stats = windows
        for window in stats:
            fraction = window.get("sampled_fraction")
            assert fraction == pytest.approx(1 / 50, abs=0.005)


class TestWindowSemantics:
    def test_gap_spanning_windows_are_emitted_empty(self):
        monitor = QualityMonitor(window_us=1_000, min_scored=1)
        assert monitor.observe(0, 100.0, True) == ()
        # A packet three windows later closes the first window and the
        # two empty ones the silence spanned.
        closed = monitor.observe(3_500, 100.0, True)
        assert [w.index for w in closed] == [0, 1, 2]
        assert [w.offered for w in closed] == [1, 0, 0]
        # The empty windows report no metrics at all.
        assert closed[1].get("sampled_fraction") is None
        assert closed[1].as_dict() == {
            "window": 1,
            "start_us": 1_000,
            "end_us": 2_000,
            "offered": 0,
            "sampled": 0,
        }

    def test_thin_window_reports_none_not_noise(self):
        monitor = QualityMonitor(window_us=1_000, min_scored=10)
        for ts in range(0, 500, 100):
            monitor.observe(ts, 100.0, True)
        final = monitor.flush()
        assert final is not None
        assert final.offered == 5
        assert final.get("phi[packet-size]") is None
        assert final.get("chi2_p[interarrival]") is None
        assert final.get("sampled_fraction") == 1.0

    def test_interarrival_is_the_predecessor_gap(self):
        """First packet has no gap; a window's first gap crosses windows."""
        monitor = QualityMonitor(window_us=1_000, min_scored=1)
        monitor.observe(0, 100.0, True)
        monitor.observe(900, 100.0, True)
        closed = monitor.observe(1_100, 100.0, True)  # closes window 0
        final = monitor.flush()
        # Window 0: two packets, one gap (900).  Window 1: one packet
        # whose predecessor gap (200) belongs to *it*, as in the batch
        # attribute reading.
        (first,) = closed
        iat_parent_counts = bin_counts(np.array([900.0]), (800, 1200, 2400, 3600))
        assert first.offered == 2
        assert final.offered == 1
        store_hists = monitor.store.histograms()
        assert store_hists["interarrival_parent"].total == 2
        assert np.array_equal(
            store_hists["interarrival_parent"].counts,
            iat_parent_counts + bin_counts(np.array([200.0]), (800, 1200, 2400, 3600)),
        )

    def test_time_going_backwards_raises(self):
        monitor = QualityMonitor(window_us=1_000)
        monitor.observe(500, 100.0, True)
        with pytest.raises(ValueError, match="backwards"):
            monitor.observe(400, 100.0, True)

    def test_flush_on_empty_monitor_is_none(self):
        assert QualityMonitor(window_us=1_000).flush() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            QualityMonitor(window_us=0)
        with pytest.raises(ValueError):
            QualityMonitor(window_us=1_000, min_scored=0)


class TestPassivity:
    def test_keep_stream_bit_identical_with_and_without_monitor(self, minute_trace):
        """The monitor never influences the sampler's decisions."""
        timestamps = minute_trace.timestamps_us.tolist()
        sizes = minute_trace.sizes.tolist()

        bare = StreamingSystematic(50)
        plain_decisions = [bare.offer(ts) for ts in timestamps]

        for monitor in (QualityMonitor(window_us=WINDOW_US), NULL_MONITOR):
            sampler = StreamingSystematic(50)
            decisions = []
            for ts, size in zip(timestamps, sizes):
                kept = sampler.offer(ts)
                monitor.observe(ts, float(size), kept)
                decisions.append(kept)
            assert decisions == plain_decisions

    def test_null_monitor_is_inert(self):
        null = NullQualityMonitor()
        assert null.enabled is False
        assert null.observe(0, 100.0, True) == ()
        assert null.observe(10**12, 1.0, False) == ()
        assert null.flush() is None
        assert QualityMonitor(window_us=1).enabled is True


class TestStoreExport:
    def test_cumulative_counters_and_histograms(self, minute_trace):
        result = SystematicSampler(50).sample(minute_trace)
        kept = np.zeros(len(minute_trace), dtype=bool)
        kept[result.indices] = True
        monitor = QualityMonitor(window_us=WINDOW_US)
        windows = drive(monitor, minute_trace, kept)

        snapshot = monitor.store.snapshot()
        assert snapshot["counters"]["monitor_windows_closed"] == len(windows)
        assert snapshot["counters"]["monitor_packets_offered"] == len(minute_trace)
        assert snapshot["counters"]["monitor_packets_sampled"] == result.sample_size

        # Cumulative parent histograms equal whole-trace batch binning.
        hists = monitor.store.histograms()
        sizes = minute_trace.sizes.astype(float)
        assert np.array_equal(
            hists["packet_size_parent"].counts,
            bin_counts(sizes, hists["packet_size_parent"].edges),
        )
        gaps = np.diff(minute_trace.timestamps_us).astype(float)
        assert np.array_equal(
            hists["interarrival_parent"].counts,
            bin_counts(gaps, hists["interarrival_parent"].edges),
        )
        assert hists["packet_size_sampled"].total == result.sample_size

        # Gauges track the last/worst scored window.
        scored = [w.get("phi[packet-size]") for w in windows]
        scored = [p for p in scored if p is not None]
        assert snapshot["gauges"]["monitor_phi_packet_size"] == pytest.approx(
            scored[-1]
        )
        assert snapshot["gauges"]["monitor_phi_packet_size_max"] == pytest.approx(
            max(scored)
        )
        assert monitor.store.windows.to_list()[-1]["window"] == windows[-1].index


class TestWindowStats:
    def test_as_dict_rounds_and_drops_none(self):
        stats = WindowStats(
            index=2,
            start_us=0,
            end_us=10,
            offered=4,
            sampled=2,
            metrics={"phi[packet-size]": 0.123456789, "cost[packet-size]": None},
        )
        record = stats.as_dict()
        assert record["phi[packet-size]"] == 0.123457
        assert "cost[packet-size]" not in record
        assert stats.get("missing") is None
