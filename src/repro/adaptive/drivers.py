"""Drive a sampler under closed-loop control, per packet or per chunk.

The loop the pieces make together::

    packets ──► selector (k in force) ──► keep/skip ──► QualityMonitor
                    ▲                                        │
                    │ re-key at window boundary              │ WindowStats
                    │                                        ▼
                AdaptivePipeline ◄── Decision ◄── AdaptiveController

The one ordering rule that makes the loop deterministic: **rate changes
land exactly at window boundaries**.  Before a packet (or chunk
segment) that starts a new quality window is offered, the monitor's
:meth:`~repro.obs.live.QualityMonitor.advance_to` tap closes every due
window, the controller judges each closed window, and any applied
change re-keys the selector — so the first packet of a window is
already sampled at that window's rate, in both execution paths.

Re-keying is the selector's own ``rekey``, one state change whichever
path feeds it (:mod:`repro.core.sampling.streaming`):

* systematic — the countdown to the next keep is carried modulo the
  new k (phase continuity);
* stratified — the in-progress bucket is abandoned and a fresh
  k'-bucket starts at the boundary, drawing its keep offset at its
  first packet from the selector's own generator;
* timer — the period is re-derived as ``unit_period_us * k'`` while
  the pending scheduled firing stands, so the firing grid bends
  without a discontinuity.

The chunked path asks the monitor to cut each chunk:
:meth:`~repro.obs.live.QualityMonitor.observe_chunk` closes the due
windows through the same ``advance_to`` tap before each window's
piece and only then calls back for the piece's ``keep_mask``.  Because
``keep_mask`` is exact within a window, the decision log and the
keep/skip stream are bit-identical between ``fastpath`` on and off,
under any chunking — pinned by ``tests/adaptive``.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.adaptive.controller import AdaptiveController, Decision
from repro.core.sampling.factory import make_selector
from repro.core.sampling.timer import mean_interarrival_us
from repro.core.metrics.registry import evaluate_all
from repro.obs.live.monitor import QualityMonitor, WindowStats
from repro.trace.trace import Trace

__all__ = [
    "AdaptivePipeline",
    "AdaptiveRunResult",
    "T3BudgetDriver",
    "run_adaptive",
]


class AdaptivePipeline:
    """One monitored, controlled sampling run over a packet stream.

    Feed it per packet (:meth:`offer`) *or* per chunk
    (:meth:`process_chunk`); never mix the two in one run lightly —
    both produce bit-identical decisions and keep/skip streams, but
    the point of having both is the differential battery.

    Parameters
    ----------
    method:
        ``systematic``, ``stratified``, or ``timer-systematic``.
    controller:
        The decision maker; its config's ``initial_granularity`` and
        ``seed`` determine the selector's starting state.
    monitor:
        The live quality monitor producing the feedback windows.
    phase, unit_period_us:
        Selector extras (systematic phase offset; timer period per
        unit granularity — defaulted by :func:`run_adaptive` to the
        trace's mean interarrival).
    obs:
        Optional :class:`repro.obs.Instrumentation`; every decision
        becomes an ``adaptive_decision`` event in its log.
    on_window, on_decision:
        Callbacks fired per closed window / per decision, in stream
        order.
    """

    def __init__(
        self,
        method: str,
        controller: AdaptiveController,
        monitor: QualityMonitor,
        phase: int = 0,
        unit_period_us: float = 0.0,
        obs: Any = None,
        on_window: Optional[Callable[[WindowStats], None]] = None,
        on_decision: Optional[Callable[[Decision], None]] = None,
    ) -> None:
        self.method = method
        self.controller = controller
        self.monitor = monitor
        self.unit_period_us = float(unit_period_us)
        self.obs = obs
        self.on_window = on_window
        self.on_decision = on_decision
        self.selector = make_selector(
            method,
            controller.granularity,
            seed=controller.config.seed,
            phase=phase,
            unit_period_us=unit_period_us,
        )
        self.offered = 0
        self.kept = 0

    # ------------------------------------------------------------------
    # the feedback edge

    def _window_closed(self, stats: WindowStats) -> None:
        decision = self.controller.observe_window(stats)
        store = self.monitor.store
        store.counter("adaptive_windows").inc()
        store.gauge("adaptive_granularity").set(decision.granularity_after)
        store.gauge("adaptive_granularity_max").high(
            decision.granularity_after
        )
        if decision.applied:
            store.counter("adaptive_rate_changes").inc()
            store.counter(
                "adaptive_steps_finer"
                if decision.granularity_after < decision.granularity_before
                else "adaptive_steps_coarser"
            ).inc()
            self.selector.rekey(
                decision.granularity_after,
                unit_period_us=self.unit_period_us,
            )
        if self.obs is not None:
            self.obs.event("adaptive_decision", **decision.as_dict())
        if self.on_window is not None:
            self.on_window(stats)
        if self.on_decision is not None:
            self.on_decision(decision)

    # ------------------------------------------------------------------
    # per-packet reference path

    def offer(self, timestamp_us: int, size: float) -> bool:
        """Offer one packet under the rate its window prescribes."""
        for stats in self.monitor.advance_to(timestamp_us):
            self._window_closed(stats)
        kept = self.selector.offer(int(timestamp_us))
        self.monitor.observe(int(timestamp_us), float(size), kept)
        self.offered += 1
        self.kept += int(kept)
        return kept

    # ------------------------------------------------------------------
    # chunked fast path

    def process_chunk(self, chunk: Trace) -> int:
        """Fold one chunk; each window's piece is decided at its rate.

        The monitor cuts the chunk at window boundaries and closes the
        due windows before each piece, so the controller's decisions
        re-key the selector before the piece's ``keep_mask``.
        """
        arrivals = np.asarray(chunk.timestamps_us, dtype=np.int64)
        mask = self.monitor.observe_chunk(
            arrivals,
            chunk.sizes,
            lambda lo, hi: self.selector.keep_mask(arrivals[lo:hi]),
            on_close=self._window_closed,
        )
        self.kept += int(np.count_nonzero(mask))
        self.offered += len(chunk)
        return len(chunk)

    # ------------------------------------------------------------------

    def flush(self) -> Optional[WindowStats]:
        """Close the final in-progress window and judge it too."""
        final = self.monitor.flush()
        if final is not None:
            self._window_closed(final)
        return final


@dataclass
class AdaptiveRunResult:
    """Everything one adaptive pass produced."""

    method: str
    offered: int
    kept: int
    decisions: List[Decision]
    windows: List[Dict[str, Any]]
    controller: AdaptiveController
    monitor: QualityMonitor

    @property
    def sampled_fraction(self) -> float:
        """Total selected share of the offered stream (the cost axis)."""
        return self.kept / self.offered if self.offered else 0.0

    @property
    def rate_changes(self) -> int:
        return self.controller.changes

    def granularities_used(self) -> List[int]:
        """Distinct granularities in force, in first-use order."""
        seen: List[int] = []
        for decision in self.decisions:
            for k in (decision.granularity_before, decision.granularity_after):
                if k not in seen:
                    seen.append(k)
        return seen

    def mean_phi(self, target: str = "packet-size") -> Optional[float]:
        """Mean windowed φ for ``target`` over the scored windows."""
        key = "phi[%s]" % target
        values = [
            window[key] for window in self.windows if window.get(key) is not None
        ]
        if not values:
            return None
        return float(np.mean(values))

    def aggregate_phi(self, target: str = "packet-size") -> Optional[float]:
        """φ of the run-total sampled-vs-parent histogram for ``target``.

        Read from the monitor store's cumulative histograms, so it
        reflects every packet of the run regardless of window
        thinness.
        """
        safe = target.replace("-", "_")
        histograms = self.monitor.store.histograms()
        parent = histograms.get("%s_parent" % safe)
        sampled = histograms.get("%s_sampled" % safe)
        if parent is None or sampled is None or parent.total == 0:
            return None
        return evaluate_all(
            sampled.counts,
            parent.counts / float(parent.total),
            sampled.total / parent.total,
        ).phi


def run_adaptive(
    trace: Trace,
    controller: AdaptiveController,
    method: str = "systematic",
    window_us: int = 30_000_000,
    min_scored: int = 10,
    fastpath: bool = True,
    chunk_packets: int = 65_536,
    phase: int = 0,
    unit_period_us: float = 0.0,
    monitor: Optional[QualityMonitor] = None,
    obs: Any = None,
    on_window: Optional[Callable[[WindowStats], None]] = None,
    on_decision: Optional[Callable[[Decision], None]] = None,
) -> AdaptiveRunResult:
    """One closed-loop pass over a trace; the library entry point.

    The chunked ``keep_mask`` path runs by default; ``fastpath=False``
    runs the per-packet ``offer`` reference that tests and the
    repository benchmark check it against.  The result — decisions,
    windows, keep counts, store metrics — is bit-identical either way.
    For ``timer-systematic`` a ``unit_period_us`` of 0 derives the unit
    period from the trace's mean interarrival, so granularity k means a
    period of k mean gaps; a negative one is a ``ValueError``.
    """
    if unit_period_us < 0:
        raise ValueError(
            "timer period must not be negative (0 derives it from the "
            "trace), got %g" % unit_period_us
        )
    if method == "timer-systematic" and unit_period_us == 0:
        unit_period_us = mean_interarrival_us(trace)
    if monitor is None:
        monitor = QualityMonitor(window_us=window_us, min_scored=min_scored)
    windows: List[Dict[str, Any]] = []

    def collect(stats: WindowStats) -> None:
        windows.append(stats.as_dict())
        if on_window is not None:
            on_window(stats)

    pipeline = AdaptivePipeline(
        method,
        controller,
        monitor,
        phase=phase,
        unit_period_us=unit_period_us,
        obs=obs,
        on_window=collect,
        on_decision=on_decision,
    )
    if fastpath:
        from repro.fastpath.pipeline import iter_trace_chunks

        for chunk in iter_trace_chunks(trace, chunk_packets):
            pipeline.process_chunk(chunk)
    else:
        timestamps = trace.timestamps_us.tolist()
        sizes = trace.sizes.tolist()
        for timestamp, size in zip(timestamps, sizes):
            pipeline.offer(int(timestamp), float(size))
    pipeline.flush()
    return AdaptiveRunResult(
        method=method,
        offered=pipeline.offered,
        kept=pipeline.kept,
        decisions=list(controller.decisions),
        windows=windows,
        controller=controller,
        monitor=monitor,
    )


@dataclass
class T3BudgetDriver:
    """Budget-first control of a :class:`~repro.netmon.node.Node`.

    The node's firmware selectors are the actuator and its own
    counters are the sensor: after each second of traffic the driver
    reads the offered/characterized deltas, synthesizes a one-second
    quality window (the budget policy needs only counts and time), and
    lets the controller walk the firmware granularity.  The node's
    Horvitz–Thompson total stays unbiased across changes because each
    second's characterized count is scaled by the k in force when it
    was selected.
    """

    node: Any
    controller: AdaptiveController
    _seconds: int = field(default=0, init=False)
    _last_offered: int = field(default=0, init=False)
    _last_selected: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.node.set_granularity(self.controller.granularity)

    def process_second(self, traffic: Dict[str, Trace]) -> Decision:
        """Feed one second through the node, then adapt."""
        self.node.process_second(traffic)
        offered = self.node.snmp_total_packets()
        selected = self.node.characterized_packets + self.node.dropped_packets
        start_us = self._seconds * 1_000_000
        stats = WindowStats(
            index=self._seconds,
            start_us=start_us,
            end_us=start_us + 1_000_000,
            offered=offered - self._last_offered,
            sampled=selected - self._last_selected,
            metrics={},
        )
        self._last_offered = offered
        self._last_selected = selected
        self._seconds += 1
        decision = self.controller.observe_window(stats)
        if decision.applied:
            self.node.set_granularity(decision.granularity_after)
        return decision
