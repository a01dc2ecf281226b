"""Chunk iteration and the end-to-end fast monitored run.

The glue between the kernels: split an in-memory
:class:`~repro.trace.Trace` into bounded chunks (zero-copy column
views, the same shape :func:`~repro.trace.pcap.iter_pcap` yields
straight off disk), ask the streaming selector for each chunk's keep
mask, and feed the mask to the live quality monitor — and optionally a
flow-accounting kernel — chunk by chunk.  :func:`monitor_trace` is the
whole-trace entry point ``repro-traffic monitor`` calls; for a selector
without a chunk path it runs the per-packet loop that is the
executable reference.
"""

from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from repro.core.sampling.streaming import ChunkSelector, StreamingSampler
from repro.fastpath.flows import FlowAccountantKernel
from repro.fastpath.monitor import observe_chunk
from repro.obs.live.monitor import QualityMonitor, WindowStats
from repro.trace.trace import Trace

__all__ = [
    "DEFAULT_CHUNK_PACKETS",
    "chunk_kernel_for",
    "iter_trace_chunks",
    "monitor_trace",
    "run_monitor",
]

#: Packets per chunk for in-memory traces: large enough to amortize
#: per-chunk numpy overhead, small enough that chunk scratch stays in
#: cache-friendly territory (~1.5 MB of columns).
DEFAULT_CHUNK_PACKETS = 65_536


def chunk_kernel_for(sampler: StreamingSampler) -> Optional[ChunkSelector]:
    """``sampler`` itself if it is a :class:`ChunkSelector`, else ``None``.

    The reservoir revises past picks, so it has no chunk path; callers
    stay on its per-packet ``offer``.
    """
    return sampler if isinstance(sampler, ChunkSelector) else None


def iter_trace_chunks(
    trace: Trace, chunk_packets: int = DEFAULT_CHUNK_PACKETS
) -> Iterator[Trace]:
    """Yield ``trace`` as consecutive chunks of up to ``chunk_packets``.

    Chunks are column views (no copies); concatenating them reproduces
    the trace exactly, mirroring :func:`~repro.trace.pcap.iter_pcap`'s
    contract for on-disk captures.  An empty trace yields no chunks.
    """
    if chunk_packets < 1:
        raise ValueError(
            "chunk_packets must be >= 1, got %d" % chunk_packets
        )
    for start in range(0, len(trace), chunk_packets):
        yield trace.slice_packets(start, start + chunk_packets)


def run_monitor(
    chunks: Iterable[Trace],
    kernel: ChunkSelector,
    monitor: QualityMonitor,
    on_window: Optional[Callable[[WindowStats], None]] = None,
    accountant: Optional[FlowAccountantKernel] = None,
) -> int:
    """Drive the fast monitored pipeline over a chunk stream.

    For each chunk: one ``keep_mask`` call, one monitor bulk fold
    (plus one flow-accounting fold when ``accountant`` is given), with
    ``on_window`` invoked per closed window in close order — the exact
    event sequence of the per-packet loop.  Returns the number of
    packets offered.  The final in-progress window is *not* flushed;
    callers flush the monitor (and accountant) when the stream truly
    ends, as the per-packet path does.
    """
    offered = 0
    for chunk in chunks:
        if not len(chunk):
            continue
        mask = kernel.keep_mask(chunk.timestamps_us)
        if accountant is not None:
            accountant.observe_chunk(chunk, mask)
        observe_chunk(
            monitor,
            chunk.timestamps_us,
            chunk.sizes.astype(np.float64, copy=False),
            mask,
            on_close=on_window,
        )
        offered += len(chunk)
    return offered


def monitor_trace(
    trace: Trace,
    selector: StreamingSampler,
    monitor: QualityMonitor,
    on_window: Callable[[WindowStats], None],
) -> None:
    """Monitor a whole trace through ``selector``, final window included.

    Runs :func:`run_monitor` over the trace's chunks, or the per-packet
    reference loop for a selector without a chunk path (the
    reservoir); ``on_window`` sees the same windows in the same order
    either way, the flushed last one too.
    """
    kernel = chunk_kernel_for(selector)
    if kernel is not None:
        run_monitor(iter_trace_chunks(trace), kernel, monitor, on_window=on_window)
    else:
        timestamps = trace.timestamps_us.tolist()
        sizes = trace.sizes.tolist()
        for timestamp, size in zip(timestamps, sizes):
            kept = selector.offer(timestamp)
            for stats in monitor.observe(timestamp, float(size), kept):
                on_window(stats)
    final = monitor.flush()
    if final is not None:
        on_window(final)
