"""Flow exports as columns: the one format exported flows travel in.

A :class:`FlowBatch` holds any number of exported flows, in export
order, as parallel numpy columns: the five key fields, packets, bytes,
first and last packet times, and a reason code.  The vectorized kernel
(:func:`repro.flows.chunked.account_chunk`) builds one per chunk, the
live accountant and :class:`~repro.flows.sampled.FlowSet` hold them,
and the analysis reads their columns directly.

:class:`~repro.flows.table.FlowRecord` objects exist only at the two
edges: what the per-packet :class:`~repro.flows.table.FlowTable`
exports enters through :meth:`FlowBatch.from_records`, and
:meth:`FlowBatch.to_records` builds records for whatever prints them
(the ``flows --csv`` writer) or compares them (the tests).
"""

from dataclasses import dataclass, fields
from typing import Dict, List, Sequence

import numpy as np

from repro.flows.table import (
    REASON_ACTIVE,
    REASON_EVICTED,
    REASON_FLUSH,
    REASON_IDLE,
    FlowRecord,
)

__all__ = ["EMPTY", "FlowBatch", "REASONS", "REASON_CODES"]

#: Export reasons by code: a batch's ``reasons`` column indexes this.
REASONS = (REASON_IDLE, REASON_ACTIVE, REASON_EVICTED, REASON_FLUSH)
#: Reason string -> code.
REASON_CODES: Dict[str, int] = {reason: code for code, reason in enumerate(REASONS)}


@dataclass(frozen=True, eq=False)
class FlowBatch:
    """Exported flows in export order, one numpy column per field.

    ``keys`` is ``(n, 5)`` uint16 — src_net, dst_net, src_port,
    dst_port, protocol, as :func:`~repro.flows.chunked.encode_flow_keys`
    packs them; ``packets``, ``bytes``, ``first_us`` and ``last_us`` are
    int64; ``reasons`` is uint8 codes into :data:`REASONS`.  Batches
    are shared, never copied, by whoever holds them, so nothing writes
    to a column (a :class:`~repro.flows.sampled.FlowSet` marks its
    batch's columns read-only).  Two batches are equal when every
    column is.
    """

    keys: np.ndarray
    packets: np.ndarray
    bytes: np.ndarray
    first_us: np.ndarray
    last_us: np.ndarray
    reasons: np.ndarray

    def __len__(self) -> int:
        return int(self.packets.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowBatch):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, column), getattr(other, column))
            for column in _COLUMNS
        )

    def count(self, reason: str) -> int:
        """Flows exported for ``reason``."""
        return int(np.count_nonzero(self.reasons == REASON_CODES[reason]))

    def to_records(self) -> List[FlowRecord]:
        """The batch as :class:`FlowRecord` objects, in export order."""
        reasons = [REASONS[code] for code in self.reasons.tolist()]
        return [
            FlowRecord(*key, packets, bytes_, first_us, last_us, reason)
            for key, packets, bytes_, first_us, last_us, reason in zip(
                self.keys.tolist(),
                self.packets.tolist(),
                self.bytes.tolist(),
                self.first_us.tolist(),
                self.last_us.tolist(),
                reasons,
            )
        ]

    @classmethod
    def from_records(cls, records: Sequence[FlowRecord]) -> "FlowBatch":
        """The batch of ``records``, in their order (:data:`EMPTY` for
        none, so a caller with nothing to add builds nothing)."""
        if not records:
            return EMPTY
        rows = np.array(
            [
                (
                    r.src_net, r.dst_net, r.src_port, r.dst_port, r.protocol,
                    r.packets, r.bytes, r.first_us, r.last_us,
                    REASON_CODES[r.reason],
                )
                for r in records
            ],
            dtype=np.int64,
        )
        return cls(
            keys=rows[:, :5].astype(np.uint16),
            packets=rows[:, 5],
            bytes=rows[:, 6],
            first_us=rows[:, 7],
            last_us=rows[:, 8],
            reasons=rows[:, 9].astype(np.uint8),
        )

    @classmethod
    def concat(cls, batches: Sequence["FlowBatch"]) -> "FlowBatch":
        """``batches`` end to end, in order; empty ones contribute
        nothing, and none at all gives :data:`EMPTY`."""
        batches = [batch for batch in batches if len(batch)]
        if not batches:
            return EMPTY
        if len(batches) == 1:
            return batches[0]
        return cls(
            **{
                column: np.concatenate(
                    [getattr(batch, column) for batch in batches]
                )
                for column in _COLUMNS
            }
        )


_COLUMNS = tuple(field.name for field in fields(FlowBatch))

#: The batch with no flows, shared by every caller that exports none.
EMPTY = FlowBatch(
    keys=np.empty((0, 5), dtype=np.uint16),
    packets=np.empty(0, dtype=np.int64),
    bytes=np.empty(0, dtype=np.int64),
    first_us=np.empty(0, dtype=np.int64),
    last_us=np.empty(0, dtype=np.int64),
    reasons=np.empty(0, dtype=np.uint8),
)
