"""Vectorized flow accounting over trace chunks.

The per-packet reference, :class:`repro.flows.table.FlowTable`, is a
faithful NetFlow cache: idle expiry interleaved with arrivals, active
timeouts, LRU emergency eviction — all order-dependent.  Vectorizing it
*bit-identically* splits each chunk into two regimes:

* **Timeout-only chunks** — every chunk whose exports are idle or
  active timeouts, which is every chunk that needs no eviction.  Both
  timeouts are reconstructible without replay.  A flow's packet run
  splits into *segments* wherever consecutive activity (counting any
  live entry's pre-chunk activity) is separated by at least the idle
  timeout, and every closed segment exports with reason ``idle`` at
  the first arrival past its deadline.  A segment is
  then cut at every packet arriving ``active_timeout_us`` or more after
  its incarnation's ``first_us``: the incarnation so far exports with
  reason ``active`` at that packet and a new one starts there (one more
  creation, occupancy unchanged).  When a key's first packet in the
  chunk makes the cut, the record is the entry carried over from the
  last chunk, as it stands.  The global export order is exactly
  ascending ``(trigger arrival, last_us, update sequence)``: the table
  pops idle expiries from the LRU end — which *is* last-update order —
  and an active record's ``last_us`` lies within the idle timeout of
  its trigger, after every idle record that arrival fires.  The kernel
  therefore computes, in O(chunk) numpy plus O(segments) python:
  per-key segmentation (one ``argsort``/``reduceat`` pass, plus a
  ``searchsorted`` walk over the rare segments that outlive the active
  timeout), the export records in reference order, the occupancy
  trajectory (creations minus removals, cumulative-summed) for exact
  creation-time peak tracking, and the final entries rebuilt in the
  reference's LRU order — untouched survivors first, then touched keys
  by final update position.

* **Chunks with an emergency eviction** — the computed occupancy
  trajectory crosses ``max_flows``.  The detection is exact, made
  *before* any state is mutated, and falls back to the per-packet
  reference for the whole chunk, so identity never depends on
  reproducing eviction interleavings vectorially.

Either way :func:`account_chunk` returns the chunk's exports as one
:class:`~repro.flows.batch.FlowBatch` (in export order, built from
columns; the fallback's records enter through
:meth:`~repro.flows.batch.FlowBatch.from_records`) and leaves ``table``
— entries, LRU order, counters, peak occupancy, last timestamp —
bit-identical to per-packet feeding.
A timestamp that goes backwards, within the chunk or against the
table's last one, raises the reference's :class:`ValueError` before
any state changes (the per-packet table has applied the packets before
the bad one when it raises).
:func:`fast_aggregate_trace` feeds a whole trace through it chunk by
chunk: it is how :mod:`repro.flows.sampled` builds every flow
population, and :class:`repro.fastpath.FlowAccountantKernel` drives it
beside the online selector.
"""

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.flows.batch import EMPTY, REASON_CODES, FlowBatch
from repro.flows.table import (
    REASON_ACTIVE,
    REASON_IDLE,
    FlowKey,
    FlowRecord,
    FlowTable,
    _FlowEntry,
)
from repro.trace.trace import Trace

__all__ = [
    "account_chunk",
    "encode_flow_keys",
    "fast_aggregate_trace",
]


def encode_flow_keys(trace: Trace) -> "np.ndarray":
    """The trace's 5-tuples as an ``(n, 5)`` uint16 column block.

    One vectorized gather replaces n tuple constructions; every field
    of the classic key — nets, ports, protocol — fits uint16, so the
    rows pack losslessly into integers for grouping (:func:`_group_keys`).
    """
    return np.column_stack(
        (
            trace.src_nets.astype(np.uint16, copy=False),
            trace.dst_nets.astype(np.uint16, copy=False),
            trace.src_ports.astype(np.uint16, copy=False),
            trace.dst_ports.astype(np.uint16, copy=False),
            trace.protocols.astype(np.uint16),
        )
    )


def _group_keys(
    keys: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """(representative_index, order, group_sorted) for the chunk's keys.

    ``order`` walks the chunk grouped by key, each group's packets in
    original arrival order (``lexsort`` is stable); ``group_sorted``
    labels ``order``'s positions with ascending group ids; and
    ``representative_index[g]`` is a chunk position carrying group
    ``g``'s key.  The four 16-bit address/port fields pack into one
    uint64 sort key with the protocol as a secondary — integer
    ``lexsort`` is several times faster than ``np.unique`` over a
    structured row view, whose comparison sort on void dtype would
    dominate the whole kernel.
    """
    columns = keys.astype(np.uint64)
    packed = (
        (columns[:, 0] << np.uint64(48))
        | (columns[:, 1] << np.uint64(32))
        | (columns[:, 2] << np.uint64(16))
        | columns[:, 3]
    )
    protocol = columns[:, 4]
    order = np.lexsort((protocol, packed))
    packed_sorted = packed[order]
    protocol_sorted = protocol[order]
    new_group = np.empty(order.size, dtype=bool)
    new_group[0] = True
    new_group[1:] = (packed_sorted[1:] != packed_sorted[:-1]) | (
        protocol_sorted[1:] != protocol_sorted[:-1]
    )
    group_sorted = np.cumsum(new_group) - 1
    representative_index = order[np.flatnonzero(new_group)]
    return representative_index.astype(np.int64), order, group_sorted


def _fallback(
    table: FlowTable,
    timestamps_us: "np.ndarray",
    sizes: "np.ndarray",
    keys: "np.ndarray",
) -> FlowBatch:
    """Feed the chunk through the per-packet reference path."""
    records: List[FlowRecord] = []
    key_rows = keys.tolist()
    for timestamp, size, row in zip(
        timestamps_us.tolist(), sizes.tolist(), key_rows
    ):
        records.extend(table.observe(timestamp, size, tuple(row)))
    return FlowBatch.from_records(records)


def _entry_columns(entries: Sequence[_FlowEntry]) -> Dict[str, "np.ndarray"]:
    """Live entries as they stand, as :class:`FlowBatch` columns (all
    but ``reasons``)."""
    columns = {
        field: np.fromiter(
            (getattr(entry, field) for entry in entries),
            dtype=np.int64,
            count=len(entries),
        )
        for field in ("packets", "bytes", "first_us", "last_us")
    }
    keys = np.array([entry.key for entry in entries], dtype=np.uint16)
    columns["keys"] = keys.reshape(-1, 5)
    return columns


def _segments(
    boundary: "np.ndarray",
    times_sorted: "np.ndarray",
    carry_pos: "np.ndarray",
    carry_first_us: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray", "np.ndarray"]:
    """(starts, ends, carried, first_us, last_us) of the segments that
    ``boundary`` opens over the grouped chunk.

    ``carried`` indexes the segments that continue a live entry (those
    starting at ``carry_pos``), whose ``first_us`` is the entry's.
    """
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], boundary.size)
    carried = np.searchsorted(starts, carry_pos)
    first_us = times_sorted[starts]
    first_us[carried] = carry_first_us
    return starts, ends, carried, first_us, times_sorted[ends - 1]


def _active_cuts(
    times_sorted: "np.ndarray",
    starts: "np.ndarray",
    ends: "np.ndarray",
    first_us: "np.ndarray",
    last_us: "np.ndarray",
    active_timeout_us: int,
) -> List[int]:
    """Grouped positions where an active timeout restarts a flow.

    Within a segment the first packet arriving ``active_timeout_us`` or
    more after the incarnation's ``first_us`` starts a new incarnation,
    whose own ``first_us`` is that packet's time, and so on.  Only the
    segments that outlive the timeout are walked, one ``searchsorted``
    per cut; a segment's packets are in arrival order, so its times
    are sorted.
    """
    cuts: List[int] = []
    for s in np.flatnonzero(last_us - first_us >= active_timeout_us).tolist():
        start = int(starts[s])
        run = times_sorted[start : int(ends[s])]
        cut = int(np.searchsorted(run, first_us[s] + active_timeout_us))
        while cut < run.size:
            cuts.append(start + cut)
            cut = int(np.searchsorted(run, run[cut] + active_timeout_us))
    return cuts


def account_chunk(
    table: FlowTable,
    timestamps_us: "np.ndarray",
    sizes: "np.ndarray",
    keys: "np.ndarray",
) -> FlowBatch:
    """Account one chunk; bit-identical to per-packet ``observe`` calls.

    Parameters mirror one chunk of :func:`encode_flow_keys` output with
    its timestamp and size columns.  Returns the batch of flows this
    chunk exported, in export order (empty for a chunk where no
    timeout fires).  Raises ``ValueError("time went backwards: ...")``,
    the per-packet table's error for the first decreasing timestamp,
    and leaves ``table`` untouched.
    """
    n = int(timestamps_us.shape[0])
    if n == 0:
        return EMPTY
    arrivals = np.asarray(timestamps_us, dtype=np.int64)
    first_ts = int(arrivals[0])
    last_ts = int(arrivals[-1])
    prev = table._last_timestamp
    if prev is not None and first_ts < prev:
        raise ValueError("time went backwards: %d after %d" % (first_ts, prev))
    if n > 1:
        steps = np.diff(arrivals)
        if np.any(steps < 0):
            where = int(np.argmax(steps < 0))
            raise ValueError(
                "time went backwards: %d after %d"
                % (int(arrivals[where + 1]), int(arrivals[where]))
            )

    idle = table.idle_timeout_us
    active = table.active_timeout_us
    entries = table._entries
    sizes64 = np.asarray(sizes, dtype=np.int64)

    # View the chunk grouped by key, each group's packets in arrival
    # order, then segment each run at >= idle gaps.
    first_index, order, group_sorted = _group_keys(keys)
    group_rows = np.ascontiguousarray(keys, dtype=np.uint16)[first_index]
    group_keys: List[FlowKey] = [tuple(row) for row in group_rows.tolist()]
    times_sorted = arrivals[order]
    group_start = np.empty(n, dtype=bool)
    group_start[0] = True
    group_start[1:] = group_sorted[1:] != group_sorted[:-1]
    group_start_pos = np.flatnonzero(group_start)

    # The chunk's keys that have a live entry, met by their first packet.
    live_groups: List[int] = []
    live: List[_FlowEntry] = []
    for g, key in enumerate(group_keys):
        entry = entries.get(key)
        if entry is not None:
            live_groups.append(g)
            live.append(entry)
    live_pos = group_start_pos[np.asarray(live_groups, dtype=np.int64)]
    live_first, live_last, live_packets, live_bytes = (
        np.fromiter(
            (getattr(entry, field) for entry in live),
            dtype=np.int64,
            count=len(live),
        )
        for field in ("first_us", "last_us", "packets", "bytes")
    )

    # A packet's predecessor activity is the previous packet of its
    # key, or — for a key's first packet — its live entry's last_us
    # (its own time when there is no entry, which can never break).
    prev_times = np.empty(n, dtype=np.int64)
    prev_times[1:] = times_sorted[:-1]
    prev_times[group_start_pos] = times_sorted[group_start_pos]
    prev_times[live_pos] = live_last
    breaks = (times_sorted - prev_times) >= idle

    # A live entry continues into its key's first segment unless that
    # first packet closes it: after an idle gap the entry exports whole,
    # pre-chunk; at its active timeout it exports as it stands, at that
    # packet, which then starts a new incarnation.
    live_idle = breaks[live_pos]
    live_active = ~live_idle & (times_sorted[live_pos] - live_first >= active)
    live_carried = ~(live_idle | live_active)
    carry_pos = live_pos[live_carried]
    carry_first = live_first[live_carried]

    boundary = group_start | breaks
    seg_starts, seg_ends, carried, seg_first_us, seg_last_us = _segments(
        boundary, times_sorted, carry_pos, carry_first
    )
    # Active timeouts inside segments cut them into incarnations; a cut
    # closes the incarnation before it with reason ``active``.
    cuts = _active_cuts(
        times_sorted, seg_starts, seg_ends, seg_first_us, seg_last_us, active
    )
    if cuts:
        boundary[cuts] = True
        seg_starts, seg_ends, carried, seg_first_us, seg_last_us = _segments(
            boundary, times_sorted, carry_pos, carry_first
        )
    cut_after = np.zeros(n + 1, dtype=bool)
    cut_after[cuts] = True
    active_seg = cut_after[seg_ends]
    seg_count = seg_starts.size
    seg_group = group_sorted[seg_starts]
    seg_packets = seg_ends - seg_starts
    seg_packets[carried] += live_packets[live_carried]
    seg_bytes = np.add.reduceat(sizes64[order], seg_starts)
    seg_bytes[carried] += live_bytes[live_carried]
    seg_final_idx = order[seg_ends - 1]

    group_last_seg = np.empty(seg_count, dtype=bool)
    group_last_seg[-1] = True
    group_last_seg[:-1] = seg_group[1:] != seg_group[:-1]
    closed_seg = ~group_last_seg | (last_ts - seg_last_us >= idle)
    idle_seg = closed_seg & ~active_seg

    # Pre-chunk closures, in dict order (= LRU order): untouched
    # entries gone idle by chunk end, and entries whose key reappears
    # only after an idle break.  Entries whose key's first packet is
    # their active timeout export too, as they stand.
    entry_broken = {
        group_keys[live_groups[i]] for i in np.flatnonzero(live_idle).tolist()
    }
    touched = set(group_keys)
    prechunk_closed = [
        entry
        for key, entry in entries.items()
        if key in entry_broken
        or (key not in touched and last_ts - entry.last_us >= idle)
    ]
    prechunk_active = [live[i] for i in np.flatnonzero(live_active).tolist()]

    # Every closure's trigger arrival: an idle closure fires at the
    # first arrival past its deadline, an active one at the packet that
    # restarts the flow.
    seg_trig = np.empty(seg_count, dtype=np.int64)
    seg_trig[idle_seg] = np.searchsorted(arrivals, seg_last_us[idle_seg] + idle)
    seg_trig[active_seg] = order[seg_ends[active_seg]]
    prechunk = _entry_columns(prechunk_closed + prechunk_active)
    prechunk_last = prechunk["last_us"]
    prechunk_trig = np.concatenate(
        (
            np.searchsorted(arrivals, prechunk_last[: len(prechunk_closed)] + idle),
            order[live_pos[live_active]],
        )
    )
    # The closed segments in update sequence (final update position).
    closed = np.flatnonzero(closed_seg)
    closed = closed[np.argsort(seg_final_idx[closed], kind="stable")]

    # Occupancy trajectory: +1 at each creation (uncarried segment),
    # -1 at each closure's trigger arrival (expiries at an arrival
    # precede its insertion, and an active export precedes the
    # restart it makes room for).  The reference tracks peak only at
    # creations, and evicts when a creation finds the table full —
    # both read off this trajectory.
    create_idx = np.delete(order[seg_starts], carried)
    if create_idx.size:
        delta = np.zeros(n, dtype=np.int64)
        np.add.at(delta, create_idx, 1)
        np.subtract.at(delta, seg_trig[closed], 1)
        np.subtract.at(delta, prechunk_trig, 1)
        occupancy_after = len(entries) + np.cumsum(delta)
        peak_chunk = int(occupancy_after[create_idx].max())
        if peak_chunk > table.max_flows:
            return _fallback(table, timestamps_us, sizes, keys)
    else:
        peak_chunk = 0

    # Export order: the table pops idle expiries from the LRU end, so
    # the idle stream is ascending (trigger, last_us, update sequence).
    # The candidates are listed in update sequence — pre-chunk closures
    # in dict order, then chunk segments by final update position — and
    # sorted stably on (trigger, last_us).  An active export's last_us
    # lies within the idle timeout of its trigger, so it sorts after
    # every idle export its arrival fires, as the reference emits it.
    candidates = {
        name: np.concatenate((prechunk[name], column))
        for name, column in (
            ("keys", group_rows[seg_group[closed]]),
            ("packets", seg_packets[closed]),
            ("bytes", seg_bytes[closed]),
            ("first_us", seg_first_us[closed]),
            ("last_us", seg_last_us[closed]),
        )
    }
    active_export = np.concatenate(
        (
            np.zeros(len(prechunk_closed), dtype=bool),
            np.ones(len(prechunk_active), dtype=bool),
            active_seg[closed],
        )
    )
    candidates["reasons"] = np.where(
        active_export, REASON_CODES[REASON_ACTIVE], REASON_CODES[REASON_IDLE]
    ).astype(np.uint8)
    export_order = np.lexsort(
        (
            candidates["last_us"],
            np.concatenate((prechunk_trig, seg_trig[closed])),
        )
    )
    batch = FlowBatch(
        **{name: column[export_order] for name, column in candidates.items()}
    )

    # Commit: counters, then the entries dict rebuilt in LRU order —
    # untouched survivors keep their relative order ahead of touched
    # keys re-inserted by final update position.
    active_count = len(prechunk_active) + int(np.count_nonzero(active_seg))
    table.exported[REASON_IDLE] += len(batch) - active_count
    table.exported[REASON_ACTIVE] += active_count
    table.flows_created += int(create_idx.size)
    if peak_chunk > table.peak_occupancy:
        table.peak_occupancy = peak_chunk
    for entry in prechunk_closed:
        del entries[entry.key]
    for key in group_keys:
        entries.pop(key, None)
    surviving = np.flatnonzero(~closed_seg)
    surviving = surviving[np.argsort(seg_final_idx[surviving], kind="stable")]
    for g, first_us, packets, bytes_, last_us in zip(
        seg_group[surviving].tolist(),
        seg_first_us[surviving].tolist(),
        seg_packets[surviving].tolist(),
        seg_bytes[surviving].tolist(),
        seg_last_us[surviving].tolist(),
    ):
        key = group_keys[g]
        entry = _FlowEntry(key, first_us, 0)
        entry.packets = packets
        entry.bytes = bytes_
        entry.last_us = last_us
        entries[key] = entry
    table._last_timestamp = last_ts
    return batch


def fast_aggregate_trace(
    trace: Trace,
    table: Optional[FlowTable] = None,
    chunk_packets: int = 65_536,
) -> FlowBatch:
    """Chunked, vectorized :func:`repro.flows.table.aggregate_trace`.

    The chunks' batches and the final flush, as one batch: the same
    flows in the same order as the reference's records, for any
    ``chunk_packets`` — pinned by ``tests/fastpath/test_flows_parity.py``.
    """
    if chunk_packets < 1:
        raise ValueError(
            "chunk_packets must be >= 1, got %d" % chunk_packets
        )
    if table is None:
        table = FlowTable()
    batches: List[FlowBatch] = []
    keys = encode_flow_keys(trace)
    for start in range(0, len(trace), chunk_packets):
        stop = start + chunk_packets
        batches.append(
            account_chunk(
                table,
                trace.timestamps_us[start:stop],
                trace.sizes[start:stop],
                keys[start:stop],
            )
        )
    batches.append(FlowBatch.from_records(table.flush()))
    return FlowBatch.concat(batches)
