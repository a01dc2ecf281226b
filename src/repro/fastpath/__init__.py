"""Vectorized chunked fast path for the online pipeline.

The per-packet modules — :mod:`repro.core.sampling.streaming`,
:class:`repro.flows.sampled.StreamFlowAccountant`, and the live
:class:`repro.obs.live.QualityMonitor` — are the *executable reference
semantics* of the forwarding-path monitor: one keep/skip decision, one
flow-cache update, four histogram folds per packet, in pure Python.
Faithful, but interpreter-bound at ~µs/packet.

This package re-expresses that pipeline over :class:`~repro.trace.Trace`
*chunks* (the columnar numpy layout :func:`~repro.trace.pcap.iter_pcap`
already yields) as O(chunk) numpy kernels:

* selection — each selector in :mod:`repro.core.sampling.streaming`
  decides a whole chunk with its own ``keep_mask``, over the state its
  per-packet ``offer`` carries; :func:`chunk_kernel_for` returns the
  selector itself (``None`` for the reservoir);
* :mod:`repro.fastpath.flows` — the online face of the vectorized
  flow-accounting kernel of :mod:`repro.flows.chunked` (packed-integer
  5-tuple grouping, segmented reconstruction of idle and active
  timeouts), feeding :class:`~repro.flows.table.FlowTable`-compatible
  updates and the ``flow_cache_*`` live metrics;
* :mod:`repro.fastpath.monitor` — bulk
  :class:`~repro.stats.streams.RunningHistogram` updates for
  :class:`~repro.obs.live.QualityMonitor` windows;
* :mod:`repro.fastpath.pipeline` — chunk iteration and the end-to-end
  monitored run behind ``repro-traffic monitor``.

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

from repro.fastpath.flows import FlowAccountantKernel
from repro.flows.chunked import (
    account_chunk,
    encode_flow_keys,
    fast_aggregate_trace,
)
from repro.fastpath.monitor import observe_chunk
from repro.fastpath.pipeline import (
    DEFAULT_CHUNK_PACKETS,
    ChunkSelector,
    chunk_kernel_for,
    iter_trace_chunks,
    monitor_trace,
    run_monitor,
)

__all__ = [
    "ChunkSelector",
    "DEFAULT_CHUNK_PACKETS",
    "FlowAccountantKernel",
    "account_chunk",
    "chunk_kernel_for",
    "encode_flow_keys",
    "fast_aggregate_trace",
    "iter_trace_chunks",
    "monitor_trace",
    "observe_chunk",
    "run_monitor",
]
