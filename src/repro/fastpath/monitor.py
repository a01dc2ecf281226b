"""Bulk-feeding the live quality monitor, window by window.

:class:`~repro.obs.live.QualityMonitor` folds four O(1) histogram
updates per packet; over a chunk those updates are pure counting, so
they vectorize exactly: group the chunk's packets by the quality window
they land in, bulk-update each window's parent/sampled histograms with
:meth:`~repro.stats.streams.RunningHistogram.update_many` (the batch
kernel :func:`~repro.stats.histogram.bin_counts`, whose counts equal
the scalar path's ``searchsorted`` binning for every value, NaN and
edge values included), and drive the monitor's own ``_close_window``
at every window transition — including the zero-offered windows a
long silent gap closes — so every
:class:`~repro.obs.live.monitor.WindowStats`, every store metric, and
the window ring are bit-identical to per-packet ``observe`` calls
under any chunking.

The interarrival attribute keeps its reference reading: a packet's gap
is its predecessor gap *in the parent stream*, with the predecessor
carried across chunk boundaries and the stream's first packet
contributing no gap.
"""

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.obs.live.monitor import QualityMonitor, WindowStats

__all__ = ["observe_chunk"]


def observe_chunk(
    monitor: QualityMonitor,
    timestamps_us: "np.ndarray",
    sizes: "np.ndarray",
    kept: "np.ndarray",
    on_close: Optional[Callable[[WindowStats], None]] = None,
) -> Tuple[WindowStats, ...]:
    """Fold one chunk of offered packets; return the windows it closes.

    Equivalent to ``monitor.observe(ts, float(size), kept)`` per packet
    — same closed windows in the same order, same accumulator and
    store state afterwards.  ``on_close`` fires immediately after each
    window closes, before any later packet of the chunk is folded, so a
    callback that snapshots the monitor's store sees exactly what the
    per-packet loop would show it.  Timestamps must be non-decreasing
    and not precede the monitor's last observed packet (the reference
    raises packet by packet; this path validates the whole chunk up
    front, so on error no partial chunk state is applied).
    """
    arrivals = np.asarray(timestamps_us, dtype=np.int64)
    n = arrivals.size
    if n == 0:
        return ()
    size_values = np.asarray(sizes, dtype=np.float64)
    kept_mask = np.asarray(kept, dtype=bool)
    if size_values.shape != (n,) or kept_mask.shape != (n,):
        raise ValueError(
            "sizes and keep mask must match %d timestamps" % n
        )
    prev = monitor._prev_timestamp
    first_ts = int(arrivals[0])
    if prev is not None and first_ts < prev:
        raise ValueError(
            "time went backwards: %d after %d" % (first_ts, prev)
        )
    if n > 1:
        steps = np.diff(arrivals)
        if np.any(steps < 0):
            where = int(np.argmax(steps < 0))
            raise ValueError(
                "time went backwards: %d after %d"
                % (int(arrivals[where + 1]), int(arrivals[where]))
            )

    # Predecessor gaps; gaps[0] is undefined for the stream's first
    # packet and excluded below rather than sentinel-filled.
    gaps = np.empty(n, dtype=np.float64)
    if n > 1:
        gaps[1:] = steps
    gaps[0] = float(first_ts - prev) if prev is not None else 0.0
    has_first_gap = prev is not None

    if monitor._window_start is None:
        monitor._window_start = first_ts
    window_us = monitor.window_us
    start0 = monitor._window_start
    window_index = (arrivals - start0) // window_us

    closed: List[WindowStats] = []
    size_target, gap_target = monitor._targets
    current = 0
    boundaries = np.flatnonzero(np.diff(window_index)) + 1
    segment_starts = np.concatenate(([0], boundaries, [n]))
    for s in range(segment_starts.size - 1):
        lo = int(segment_starts[s])
        hi = int(segment_starts[s + 1])
        target_window = int(window_index[lo])
        # A jump of more than one window closes the empty windows in
        # between too, exactly as the reference's while-loop does.
        while current < target_window:
            stats = monitor._close_window()
            closed.append(stats)
            if on_close is not None:
                on_close(stats)
            current += 1
        seg_sizes = size_values[lo:hi]
        seg_kept = kept_mask[lo:hi]
        size_target.parent.update_many(seg_sizes)
        size_target.sampled.update_many(seg_sizes[seg_kept])
        gap_lo = lo if (lo > 0 or has_first_gap) else 1
        gap_target.parent.update_many(gaps[gap_lo:hi])
        gap_kept = kept_mask[gap_lo:hi]
        gap_target.sampled.update_many(gaps[gap_lo:hi][gap_kept])
        monitor._offered += hi - lo
        monitor._sampled += int(np.count_nonzero(seg_kept))
    monitor._prev_timestamp = int(arrivals[-1])
    return tuple(closed)
