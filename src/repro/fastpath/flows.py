"""Chunk-feeding the online flow accountant.

The vectorized flow kernel itself — :func:`account_chunk` and the
whole-trace :func:`fast_aggregate_trace` — lives in
:mod:`repro.flows.chunked`, beside the per-packet table it reproduces,
so the batch flow studies of :mod:`repro.flows.sampled` use it too.
:class:`FlowAccountantKernel` lifts its contract to
:class:`~repro.flows.sampled.StreamFlowAccountant`: both flow tables,
both record streams, and the ``flow_cache_*`` live metrics end each
chunk exactly as the per-packet ``observe`` loop would leave them
(gauges are last-write-wins and counters accumulate totals, so the
chunk-aggregated updates land on identical values).
"""

import numpy as np

from repro.flows.chunked import account_chunk, encode_flow_keys
from repro.flows.sampled import StreamFlowAccountant, _Side
from repro.trace.trace import Trace

__all__ = ["FlowAccountantKernel"]


class FlowAccountantKernel:
    """Chunk-feeds a :class:`StreamFlowAccountant` bit-identically.

    Wraps (does not replace) an accountant: the same tables, record
    sinks, and resolved ``flow_cache_*`` metrics are updated, so code
    holding the accountant — exposition, tests, a later per-packet
    resumption — observes exactly the state per-packet feeding would
    have produced.
    """

    def __init__(self, accountant: StreamFlowAccountant) -> None:
        self.accountant = accountant

    def observe_chunk(self, chunk: Trace, kept: "np.ndarray") -> None:
        """Account one chunk of offered packets and their decisions."""
        kept_mask = np.asarray(kept, dtype=bool)
        if kept_mask.shape != (len(chunk),):
            raise ValueError(
                "keep mask shape %r does not match chunk of %d packets"
                % (kept_mask.shape, len(chunk))
            )
        keys = encode_flow_keys(chunk)
        self._account_side(
            self.accountant._sides[0], chunk.timestamps_us, chunk.sizes, keys
        )
        if kept_mask.any():
            self._account_side(
                self.accountant._sides[1],
                chunk.timestamps_us[kept_mask],
                chunk.sizes[kept_mask],
                keys[kept_mask],
            )

    @staticmethod
    def _account_side(
        side: _Side,
        timestamps_us: "np.ndarray",
        sizes: "np.ndarray",
        keys: "np.ndarray",
    ) -> None:
        table, records, occupancy, peak, exported, evicted = side
        new_records = account_chunk(table, timestamps_us, sizes, keys)
        if new_records:
            records.extend(new_records)
            exported.inc(len(new_records))
            evictions = sum(
                record.reason == "evicted" for record in new_records
            )
            if evictions:
                evicted.inc(evictions)
        occupancy.set(float(table.occupancy))
        peak.set(float(table.peak_occupancy))

    def flush(self) -> None:
        """Close out both tables at end of stream (reference flush)."""
        self.accountant.flush()
