"""Live-monitor parity: bulk chunk folds vs per-packet observe().

:meth:`QualityMonitor.observe_chunk` must close the same
windows (same :class:`WindowStats`, same order), leave the same
accumulator state, and drive the metrics store to the same snapshots as
per-packet :meth:`QualityMonitor.observe` calls, under any chunking —
including chunks that close several windows at once and long silent
gaps that close empty windows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling.streaming import StreamingStratified
from repro.fastpath.pipeline import monitor_trace
from repro.obs.live.monitor import QualityMonitor
from repro.trace.trace import Trace

WINDOW_US = 100_000


def stream(n: int, seed: int, gap_hi: int = 20_000):
    """(timestamps, sizes, kept) with bursts, lulls, and a sparse keep."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, gap_hi, size=n)
    timestamps = np.cumsum(gaps).astype(np.int64)
    sizes = rng.integers(28, 1500, size=n).astype(np.float64)
    kept = rng.random(n) < 0.1
    return timestamps, sizes, kept


def run_per_packet(monitor: QualityMonitor, timestamps, sizes, kept):
    closed = []
    for timestamp, size, keep in zip(timestamps, sizes, kept):
        closed.extend(monitor.observe(int(timestamp), float(size), bool(keep)))
    return closed


def observe_chunk(monitor: QualityMonitor, timestamps, sizes, kept, on_close=None):
    """Fold a chunk with a precomputed mask; return the windows it closes."""
    closed = []

    def close(stats):
        closed.append(stats)
        if on_close is not None:
            on_close(stats)

    monitor.observe_chunk(
        timestamps, sizes, lambda lo, hi: kept[lo:hi], on_close=close
    )
    return tuple(closed)


def run_chunked(monitor: QualityMonitor, timestamps, sizes, kept, chunk_sizes):
    closed = []
    start = 0
    n = len(timestamps)
    for size in list(chunk_sizes) + [n]:
        stop = min(start + size, n)
        closed.extend(
            observe_chunk(
                monitor,
                timestamps[start:stop],
                sizes[start:stop],
                kept[start:stop],
            )
        )
        start = stop
        if start >= n:
            break
    return closed


def assert_monitors_identical(reference: QualityMonitor, subject: QualityMonitor):
    assert subject._prev_timestamp == reference._prev_timestamp
    assert subject._window_start == reference._window_start
    assert subject._offered == reference._offered
    assert subject._sampled == reference._sampled
    assert subject.windows_closed == reference.windows_closed
    assert subject.store.snapshot() == reference.store.snapshot()


class TestChunkingInvariance:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=500),
        seed=st.integers(min_value=0, max_value=9999),
        chunk_sizes=st.lists(
            st.integers(min_value=0, max_value=90), max_size=30
        ),
    )
    def test_windows_and_state_match(self, n, seed, chunk_sizes):
        timestamps, sizes, kept = stream(n, seed)
        reference = QualityMonitor(window_us=WINDOW_US)
        subject = QualityMonitor(window_us=WINDOW_US)
        expected = run_per_packet(reference, timestamps, sizes, kept)
        actual = run_chunked(subject, timestamps, sizes, kept, chunk_sizes)
        assert [w.as_dict() for w in actual] == [w.as_dict() for w in expected]
        assert_monitors_identical(reference, subject)
        flush_ref = reference.flush()
        flush_sub = subject.flush()
        assert (flush_sub is None) == (flush_ref is None)
        if flush_ref is not None:
            assert flush_sub.as_dict() == flush_ref.as_dict()

    def test_silent_gap_closes_empty_windows(self):
        # A gap of 10 windows: the reference's while-loop closes them
        # one by one; the chunk fold must reproduce every empty window.
        timestamps = np.asarray([0, 10_000, 1_050_000, 1_060_000], dtype=np.int64)
        sizes = np.asarray([40.0, 552.0, 1500.0, 40.0])
        kept = np.asarray([True, False, True, False])
        reference = QualityMonitor(window_us=WINDOW_US)
        subject = QualityMonitor(window_us=WINDOW_US)
        expected = run_per_packet(reference, timestamps, sizes, kept)
        actual = list(observe_chunk(subject, timestamps, sizes, kept))
        assert len(expected) == 10
        assert [w.as_dict() for w in actual] == [w.as_dict() for w in expected]
        assert_monitors_identical(reference, subject)

    def test_first_packet_contributes_no_gap(self):
        # Per-packet: the first offered packet has no predecessor gap.
        # Chunked: gap_lo must skip exactly that packet and no other.
        timestamps = np.asarray([5_000, 6_000, 7_000], dtype=np.int64)
        sizes = np.asarray([40.0, 552.0, 1500.0])
        kept = np.asarray([True, True, True])
        reference = QualityMonitor(window_us=WINDOW_US)
        subject = QualityMonitor(window_us=WINDOW_US)
        run_per_packet(reference, timestamps, sizes, kept)
        observe_chunk(subject, timestamps, sizes, kept)
        assert_monitors_identical(reference, subject)

    def test_gap_carried_across_chunks(self):
        timestamps = np.asarray([0, 30_000, 60_000, 90_000], dtype=np.int64)
        sizes = np.asarray([40.0] * 4)
        kept = np.asarray([True] * 4)
        reference = QualityMonitor(window_us=WINDOW_US)
        subject = QualityMonitor(window_us=WINDOW_US)
        run_per_packet(reference, timestamps, sizes, kept)
        observe_chunk(subject, timestamps[:2], sizes[:2], kept[:2])
        observe_chunk(subject, timestamps[2:], sizes[2:], kept[2:])
        assert_monitors_identical(reference, subject)


class TestOnCloseCallback:
    def test_fires_in_close_order_with_live_store(self):
        # Two windows close inside one chunk; each callback must see
        # the store as of *that* close, not the chunk's end.
        timestamps = np.asarray(
            [0, 50_000, 150_000, 250_000, 260_000], dtype=np.int64
        )
        sizes = np.asarray([100.0, 200.0, 300.0, 400.0, 500.0])
        kept = np.asarray([True, False, True, False, True])
        monitor = QualityMonitor(window_us=WINDOW_US)
        offered_at_close = []
        observe_chunk(
            monitor,
            timestamps,
            sizes,
            kept,
            on_close=lambda stats: offered_at_close.append(
                monitor.store.counter("monitor_packets_offered").value
            ),
        )
        # First close exported 2 offered packets, second 1 more.
        assert offered_at_close == [2.0, 3.0]

    def test_windows_closed_at_one_arrival_see_the_per_packet_store(self):
        # A silent gap closes three windows at one arrival.  The
        # per-packet loop's caller reads the store after all three
        # closes; every on_close call of the chunk fold reads it too.
        timestamps = np.asarray(
            [0, 10_000, 20_000, 320_000, 330_000], dtype=np.int64
        )
        sizes = np.asarray([40.0, 552.0, 1500.0, 40.0, 552.0])
        kept = np.asarray([True, False, True, True, False])
        reference = QualityMonitor(window_us=WINDOW_US)
        expected = []
        for timestamp, size, keep in zip(timestamps, sizes, kept):
            for _stats in reference.observe(int(timestamp), float(size), bool(keep)):
                expected.append(reference.store.snapshot())
        subject = QualityMonitor(window_us=WINDOW_US)
        actual = []
        subject.observe_chunk(
            timestamps,
            sizes,
            lambda lo, hi: kept[lo:hi],
            on_close=lambda stats: actual.append(subject.store.snapshot()),
        )
        closed = [snapshot["counters"]["monitor_windows_closed"] for snapshot in actual]
        assert closed == [3.0, 3.0, 3.0]
        assert actual == expected

    def test_select_decides_each_window_piece_after_its_closes(self):
        # select is asked once per window piece, after the windows due
        # at the piece's first arrival have gone to on_close, so a
        # callback that re-keys a selector governs the whole piece.
        timestamps = np.asarray(
            [0, 50_000, 150_000, 250_000, 260_000], dtype=np.int64
        )
        sizes = np.asarray([100.0, 200.0, 300.0, 400.0, 500.0])
        kept = np.asarray([True, False, True, False, True])
        events = []

        def select(lo, hi):
            events.append(("select", lo, hi))
            return kept[lo:hi]

        mask = QualityMonitor(window_us=WINDOW_US).observe_chunk(
            timestamps,
            sizes,
            select,
            on_close=lambda stats: events.append(("close", stats.index)),
        )
        assert events == [
            ("select", 0, 2),
            ("close", 0),
            ("select", 2, 3),
            ("close", 1),
            ("select", 3, 5),
        ]
        assert mask.tolist() == kept.tolist()


class TestValidation:
    def test_rejects_time_backwards_within_chunk(self):
        monitor = QualityMonitor(window_us=WINDOW_US)
        with pytest.raises(ValueError, match="time went backwards"):
            observe_chunk(
                monitor,
                np.asarray([10, 5], dtype=np.int64),
                np.asarray([40.0, 40.0]),
                np.asarray([True, True]),
            )
        # Validation is up-front: no partial state was applied.
        assert monitor._offered == 0
        assert monitor._prev_timestamp is None

    def test_rejects_time_backwards_across_chunks(self):
        monitor = QualityMonitor(window_us=WINDOW_US)
        observe_chunk(
            monitor,
            np.asarray([100], dtype=np.int64),
            np.asarray([40.0]),
            np.asarray([True]),
        )
        with pytest.raises(ValueError, match="time went backwards"):
            observe_chunk(
                monitor,
                np.asarray([50], dtype=np.int64),
                np.asarray([40.0]),
                np.asarray([False]),
            )

    def test_rejects_mismatched_shapes(self):
        monitor = QualityMonitor(window_us=WINDOW_US)
        with pytest.raises(ValueError, match="keep mask"):
            observe_chunk(
                monitor,
                np.asarray([1, 2], dtype=np.int64),
                np.asarray([40.0]),
                np.asarray([True, False]),
            )

    def test_empty_chunk_is_inert(self):
        monitor = QualityMonitor(window_us=WINDOW_US)
        empty = np.asarray([], dtype=np.int64)
        assert observe_chunk(monitor, empty, empty.astype(float), empty.astype(bool)) == ()
        assert monitor._prev_timestamp is None


class TestMonitorTrace:
    def test_fastpath_switch_is_invisible(self, minute_trace, per_packet):
        # The chunked run and the per-packet loop it takes for a
        # selector without a chunk path deliver the same windows to
        # on_window, the flushed last one included, and the same store.
        subset = minute_trace.slice_packets(0, 6000)
        runs = []
        for stages in ((), ("select",)):
            monitor = QualityMonitor(window_us=2_000_000)
            selector = StreamingStratified(20, rng=np.random.default_rng(5))
            windows = []
            with per_packet(*stages):
                monitor_trace(subset, selector, monitor, windows.append)
            assert len(windows) == monitor.windows_closed
            runs.append(([w.as_dict() for w in windows], monitor.store.snapshot()))
        assert runs[0] == runs[1]

    def test_windows_closed_at_one_arrival_see_one_store(self, per_packet):
        # Three windows close at the arrival after a silent gap.  The
        # per-packet loop hands them to on_window after all three
        # closes; the chunked run's calls read that same store.
        trace = Trace(
            timestamps_us=[0, 10_000, 20_000, 320_000, 330_000],
            sizes=[40, 552, 1500, 40, 552],
        )
        runs = []
        for stages in ((), ("select",)):
            monitor = QualityMonitor(window_us=WINDOW_US)
            selector = StreamingStratified(2, rng=np.random.default_rng(5))
            snapshots = []
            with per_packet(*stages):
                monitor_trace(
                    trace,
                    selector,
                    monitor,
                    lambda stats: snapshots.append(monitor.store.snapshot()),
                )
            runs.append(snapshots)
        closed = [snapshot["counters"]["monitor_windows_closed"] for snapshot in runs[1]]
        assert closed == [3.0, 3.0, 3.0, 4.0]
        assert runs[0] == runs[1]
