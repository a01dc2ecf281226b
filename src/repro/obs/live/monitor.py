"""The online sampled-vs-parent quality monitor.

NSFNET ran systematic 1-in-50 sampling *live* at collection nodes; the
operational question (Sections 2 and 5.2 of the paper) is whether the
sampled stream still characterizes the parent traffic — continuously,
not after the fact.  :class:`QualityMonitor` answers it in the
forwarding path: it sees every offered packet together with the
keep/skip decision the sampler made, maintains per-window parent and
sampled bin distributions with the O(1) accumulators of
:mod:`repro.stats.streams`, and at each window boundary emits the
paper's disparity metrics — φ, the χ² significance level, and the l₁
cost — for both characterization targets (packet size and packet
interarrival time, Section 7.1 bins).

Window semantics match :func:`repro.analysis.temporal.fidelity_series`
exactly: fixed-length windows tile the stream anchored at the first
packet's arrival, each window's sample is scored against that window's
own population, the interarrival attribute of a packet is its
*predecessor gap* in the parent stream (the reading that exposes
timer-driven bias), and windows too thin to score report ``None``
rather than noise.  Both score a window with one
:func:`~repro.core.metrics.evaluate_all` call, so their φ are equal.

The monitor is passive: it never touches an RNG and never influences
the keep/skip decision, so an instrumented run is bit-identical to an
uninstrumented one.  The disabled twin :data:`NULL_MONITOR` makes the
instrumented code path near-free when monitoring is off.
"""

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.metrics.bins import (
    BinSpec,
    INTERARRIVAL_BINS_US,
    PACKET_SIZE_BINS,
)
from repro.core.metrics.registry import evaluate_all
from repro.obs.instrument import Instrumentation
from repro.stats.streams import RunningHistogram


def _metric_safe(name: str) -> str:
    """A target name as a Prometheus-safe metric fragment."""
    return name.replace("-", "_")


@dataclass(frozen=True)
class WindowStats:
    """One closed window's quality point.

    ``metrics`` maps metric keys — ``phi[<target>]``,
    ``chi2_p[<target>]``, ``cost[<target>]``, and
    ``sampled_fraction`` — to values; a key is ``None`` when the
    window was too thin to score that target.
    """

    index: int
    start_us: int
    end_us: int
    offered: int
    sampled: int
    metrics: Mapping[str, Optional[float]]

    def get(self, key: str) -> Optional[float]:
        return self.metrics.get(key)

    def as_dict(self, digits: int = 6) -> Dict[str, Any]:
        """A JSON-able record (``None`` metrics dropped, values rounded)."""
        record: Dict[str, Any] = {
            "window": self.index,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "offered": self.offered,
            "sampled": self.sampled,
        }
        for key, value in self.metrics.items():
            if value is not None:
                record[key] = round(value, digits)
        return record


class _WindowTarget:
    """Per-window parent/sampled bin counts for one target."""

    __slots__ = ("name", "bins", "parent", "sampled")

    def __init__(self, name: str, bins: BinSpec) -> None:
        self.name = name
        self.bins = bins
        self.parent = RunningHistogram(bins.edges)
        self.sampled = RunningHistogram(bins.edges)

    def reset(self) -> None:
        # A closed window keeps only its scores, never these arrays.
        self.parent.counts[:] = 0
        self.sampled.counts[:] = 0


class QualityMonitor:
    """Sliding-window sampled-vs-parent quality scoring, online.

    Parameters
    ----------
    window_us:
        Window length in microseconds; windows tile the stream without
        overlap, anchored at the first offered packet.
    size_bins, interarrival_bins:
        Assessment bins; default to the paper's Section 7.1 ranges.
    min_scored:
        Minimum defined parent *and* sampled values a window needs per
        target before its metrics are reported (thinner windows yield
        ``None``).
    store:
        The :class:`~repro.obs.Instrumentation` registry to feed (the
        run's, so alerts and trace-cache counters share its
        exposition); a private one is created when omitted.

    Per offered packet the monitor folds the packet size and the
    predecessor gap into the current window's parent histograms and,
    when the sampler kept the packet, into the sampled histograms —
    four O(1) updates, no packet storage.  ``observe`` returns the
    windows that closed at this arrival (usually none, occasionally
    one, several after a long silent gap).  :meth:`observe_chunk` is
    the production path: the same folds over a chunk of packets, cut
    at window boundaries.
    """

    enabled = True

    def __init__(
        self,
        window_us: int,
        size_bins: BinSpec = PACKET_SIZE_BINS,
        interarrival_bins: BinSpec = INTERARRIVAL_BINS_US,
        min_scored: int = 10,
        store: Optional[Instrumentation] = None,
    ) -> None:
        if window_us <= 0:
            raise ValueError("window length must be positive, got %r" % window_us)
        if min_scored < 1:
            raise ValueError("min_scored must be at least 1, got %d" % min_scored)
        self.window_us = int(window_us)
        self.min_scored = min_scored
        self.store = store if store is not None else Instrumentation()
        self._targets = (
            _WindowTarget(PACKET_SIZE_BINS.name, size_bins),
            _WindowTarget(INTERARRIVAL_BINS_US.name, interarrival_bins),
        )
        self._window_start: Optional[int] = None
        self._window_index = 0
        self._prev_timestamp: Optional[int] = None
        self._offered = 0
        self._sampled = 0
        self.windows_closed = 0

    # ------------------------------------------------------------------
    # the per-packet path

    def observe(
        self, timestamp_us: int, size: float, kept: bool
    ) -> Tuple[WindowStats, ...]:
        """Fold one offered packet; return any windows this closes."""
        timestamp_us = int(timestamp_us)
        prev = self._prev_timestamp
        if prev is not None and timestamp_us < prev:
            raise ValueError(
                "time went backwards: %d after %d" % (timestamp_us, prev)
            )
        closed: List[WindowStats] = []
        if self._window_start is None:
            self._window_start = timestamp_us
        while timestamp_us >= self._window_start + self.window_us:
            closed.append(self._close_window())
        size_target, gap_target = self._targets
        size_value = float(size)
        size_target.parent.update(size_value)
        gap: Optional[float] = None
        if prev is not None:
            gap = float(timestamp_us - prev)
            gap_target.parent.update(gap)
        self._offered += 1
        if kept:
            size_target.sampled.update(size_value)
            if gap is not None:
                gap_target.sampled.update(gap)
            self._sampled += 1
        self._prev_timestamp = timestamp_us
        return tuple(closed)

    # ------------------------------------------------------------------
    # the chunk path

    def observe_chunk(
        self,
        timestamps_us: "np.ndarray",
        sizes: "np.ndarray",
        select: Callable[[int, int], "np.ndarray"],
        on_close: Optional[Callable[[WindowStats], None]] = None,
    ) -> "np.ndarray":
        """Fold one chunk of offered packets; return its keep mask.

        Cuts the chunk on the window grid.  Before each piece
        ``[lo, hi)``, the windows due at its first arrival close through
        :meth:`advance_to` and go to ``on_close``; then ``select(lo, hi)``
        gives the piece's keep mask, so a callback that re-keys a
        selector governs the whole piece.  Each histogram takes one
        :meth:`~repro.stats.streams.RunningHistogram.update_many` per
        piece, whose counts equal the scalar path's for every value.

        The result equals per-packet :meth:`observe` calls whose closed
        windows go to ``on_close``: the same windows in the same order,
        the same state after the chunk, and the same store at every
        ``on_close`` call.  Timestamps must be non-decreasing and not
        precede the last observed packet; the chunk is checked before
        any state changes.
        """
        arrivals = np.asarray(timestamps_us, dtype=np.int64)
        n = arrivals.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        size_values = np.asarray(sizes, dtype=np.float64)
        if size_values.shape != (n,):
            raise ValueError("sizes and keep mask must match %d timestamps" % n)
        prev = self._prev_timestamp
        first_ts = int(arrivals[0])
        predecessors = np.concatenate(
            ([first_ts if prev is None else prev], arrivals[:-1])
        )
        gaps = (arrivals - predecessors).astype(np.float64)
        backwards = np.flatnonzero(gaps < 0)
        if backwards.size:
            at = int(backwards[0])
            raise ValueError(
                "time went backwards: %d after %d"
                % (arrivals[at], predecessors[at])
            )

        if self._window_start is None:
            self._window_start = first_ts
        window_index = (arrivals - self._window_start) // self.window_us
        cuts = (np.flatnonzero(np.diff(window_index)) + 1).tolist()
        size_target, gap_target = self._targets
        mask = np.empty(n, dtype=bool)
        for lo, hi in zip([0] + cuts, cuts + [n]):
            closed = self.advance_to(int(arrivals[lo]))
            if on_close is not None:
                for stats in closed:
                    on_close(stats)
            kept = np.asarray(select(lo, hi), dtype=bool)
            if kept.shape != (hi - lo,):
                raise ValueError(
                    "sizes and keep mask must match %d timestamps" % (hi - lo)
                )
            mask[lo:hi] = kept
            piece_sizes = size_values[lo:hi]
            size_target.parent.update_many(piece_sizes)
            size_target.sampled.update_many(piece_sizes[kept])
            gap_lo = 1 if lo == 0 and prev is None else lo
            piece_gaps = gaps[gap_lo:hi]
            gap_target.parent.update_many(piece_gaps)
            gap_target.sampled.update_many(piece_gaps[mask[gap_lo:hi]])
            self._offered += hi - lo
            self._sampled += int(np.count_nonzero(kept))
        self._prev_timestamp = int(arrivals[-1])
        return mask

    def advance_to(self, timestamp_us: int) -> Tuple[WindowStats, ...]:
        """Close every window that ends at or before ``timestamp_us``.

        The feedback tap for closed-loop control
        (:mod:`repro.adaptive`): a controller that must act *between*
        windows — re-keying the sampler before the first packet of the
        new window is offered — calls this with the arriving packet's
        timestamp, applies its decisions, and only then offers the
        packet.  A subsequent :meth:`observe` of the same timestamp
        closes nothing further, so the window stream is exactly the one
        ``observe`` alone would have produced; the monitor stays
        passive (no RNG, no influence on keep/skip).

        Before the first offered packet there is no window grid yet and
        nothing closes.
        """
        timestamp_us = int(timestamp_us)
        prev = self._prev_timestamp
        if prev is not None and timestamp_us < prev:
            raise ValueError(
                "time went backwards: %d after %d" % (timestamp_us, prev)
            )
        if self._window_start is None:
            return _NO_WINDOWS
        closed: List[WindowStats] = []
        while timestamp_us >= self._window_start + self.window_us:
            closed.append(self._close_window())
        return tuple(closed)

    def flush(self) -> Optional[WindowStats]:
        """Close the in-progress window at end of stream, if non-empty."""
        if self._window_start is None or self._offered == 0:
            return None
        return self._close_window()

    # ------------------------------------------------------------------

    def _close_window(self) -> WindowStats:
        assert self._window_start is not None
        start = self._window_start
        end = start + self.window_us
        metrics: Dict[str, Optional[float]] = {}
        for target in self._targets:
            parent_total = target.parent.total
            sampled_total = target.sampled.total
            scores: Tuple[Optional[float], ...] = (None, None, None)
            if min(parent_total, sampled_total) >= self.min_scored:
                window = evaluate_all(
                    target.sampled.counts,
                    target.parent.counts / float(parent_total),
                    sampled_total / parent_total,
                )
                scores = (window.phi, window.significance, window.cost)
            for key, value in zip(("phi", "chi2_p", "cost"), scores):
                metrics["%s[%s]" % (key, target.name)] = value
        metrics["sampled_fraction"] = (
            self._sampled / self._offered if self._offered else None
        )
        stats = WindowStats(
            index=self._window_index,
            start_us=start,
            end_us=end,
            offered=self._offered,
            sampled=self._sampled,
            metrics=MappingProxyType(metrics),
        )
        self._export(stats)
        for target in self._targets:
            target.reset()
        self._window_start = end
        self._window_index += 1
        self._offered = 0
        self._sampled = 0
        self.windows_closed += 1
        return stats

    def _export(self, stats: WindowStats) -> None:
        """Fold a closed window into the registry."""
        store = self.store
        store.counter("monitor_windows_closed").inc()
        store.counter("monitor_packets_offered").inc(stats.offered)
        store.counter("monitor_packets_sampled").inc(stats.sampled)
        for target in self._targets:
            safe = _metric_safe(target.name)
            for flavour, window_hist in (
                ("parent", target.parent),
                ("sampled", target.sampled),
            ):
                cumulative = store.histogram(
                    "%s_%s" % (safe, flavour), target.bins.edges
                )
                cumulative.counts += window_hist.counts
            phi = stats.get("phi[%s]" % target.name)
            if phi is not None:
                store.gauge("monitor_phi_%s" % safe).set(phi)
                store.gauge("monitor_phi_%s_max" % safe).high(phi)
            significance = stats.get("chi2_p[%s]" % target.name)
            if significance is not None:
                store.gauge("monitor_chi2_p_%s" % safe).set(significance)
        fraction = stats.get("sampled_fraction")
        if fraction is not None:
            store.gauge("monitor_sampled_fraction").set(fraction)
        store.windows.append(stats.as_dict())


_NO_WINDOWS: Tuple[WindowStats, ...] = ()


class NullQualityMonitor:
    """The disabled twin: every call no-ops, nothing is ever scored.

    Keeps instrumented per-packet loops branch-free — offering to the
    null monitor is one attribute lookup and a constant return, and the
    keep/skip stream is bit-identical to an unmonitored run (as it also
    is with the real monitor, which is passive by construction).
    """

    enabled = False
    window_us = 0
    windows_closed = 0

    def observe(
        self, timestamp_us: int, size: float, kept: bool
    ) -> Tuple[WindowStats, ...]:
        return _NO_WINDOWS

    def advance_to(self, timestamp_us: int) -> Tuple[WindowStats, ...]:
        return _NO_WINDOWS

    def flush(self) -> Optional[WindowStats]:
        return None


#: The shared disabled instance.
NULL_MONITOR = NullQualityMonitor()
