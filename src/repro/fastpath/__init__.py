"""Vectorized chunked fast path for the online pipeline.

The per-packet methods — the streaming selectors' ``offer``,
:meth:`repro.flows.sampled.StreamFlowAccountant.observe`, and the live
:meth:`repro.obs.live.QualityMonitor.observe` — are the *executable
reference semantics* of the forwarding-path monitor: one keep/skip
decision, one flow-cache update, four histogram folds per packet, in
pure Python.  Faithful, but interpreter-bound at ~µs/packet.

The production path folds :class:`~repro.trace.Trace` *chunks* (the
columnar numpy layout :func:`~repro.trace.pcap.iter_pcap` already
yields) with O(chunk) numpy kernels, each on the class whose state it
changes:

* selection — each :class:`~repro.core.sampling.streaming.ChunkSelector`
  decides a chunk with ``keep_mask``, built from its method's one
  kernel over the state ``offer`` carries; the batch samplers share the
  kernel, and ``tests/fastpath/test_parity.py`` pins that all three
  keep the same packets.  :func:`chunk_kernel_for` returns the selector
  itself (``None`` for the reservoir);
* flows — :meth:`~repro.flows.sampled.StreamFlowAccountant.observe_chunk`
  runs the vectorized kernel of :mod:`repro.flows.chunked` on each
  side (packed-integer 5-tuple grouping, segmented reconstruction of
  idle and active timeouts) and updates the ``flow_cache_*`` live
  metrics;
* quality — :meth:`~repro.obs.live.QualityMonitor.observe_chunk` cuts
  the chunk at window boundaries, closes windows through its own
  ``advance_to`` and bulk-updates the
  :class:`~repro.stats.streams.RunningHistogram` of each window;
* this package — chunk iteration and the end-to-end monitored run
  behind ``repro-traffic monitor`` (:mod:`repro.fastpath.pipeline`).

This is the one production path; the per-packet code stays as the
reference it is tested against.  The non-negotiable contract, pinned
by ``tests/fastpath``: for every selector, chunk size, and chunk
boundary placement, the fast path's keep/skip stream, exported flow
records, and live metrics are bit-identical to the per-packet
reference — same RNG discipline, same state at every chunk boundary.
Where the flow kernel cannot reconstruct a chunk exactly (an emergency
eviction), it falls back to the per-packet reference for that chunk,
so identity never rests on an approximation.
"""

from repro.fastpath.pipeline import (
    DEFAULT_CHUNK_PACKETS,
    chunk_kernel_for,
    iter_trace_chunks,
    monitor_trace,
    run_monitor,
)
from repro.flows.sampled import StreamFlowAccountant


def FlowAccountantKernel(accountant: StreamFlowAccountant) -> StreamFlowAccountant:
    """``accountant`` itself: it folds chunks with its own ``observe_chunk``."""
    # Kept only because the repository benchmark (perfbench/workloads.py)
    # still imports this name; drop it with that import.
    return accountant


__all__ = [
    "DEFAULT_CHUNK_PACKETS",
    "FlowAccountantKernel",
    "chunk_kernel_for",
    "iter_trace_chunks",
    "monitor_trace",
    "run_monitor",
]
