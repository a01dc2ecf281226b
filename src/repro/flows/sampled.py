"""Sampled-flow populations: the paper's samplers at the flow level.

Packet sampling happens *before* flow accounting in a real monitor:
the selector keeps 1-in-N packets, and only kept packets reach the
flow cache.  A parent flow of j packets therefore shows up as a
sampled flow of k <= j packets — or not at all — and the sampled flow
population is a systematically distorted image of the parent's (small
flows vanish, every size shrinks ~N-fold).  This module produces both
populations from one trace so :mod:`repro.flows.inversion` can study
the distortion and undo it.

Two entry points mirror the repo's batch/streaming split:

* :func:`flow_study` drives any *batch* sampler from
  :mod:`repro.core.sampling` — the sample is drawn first (exactly as
  the evaluation harness draws it, same RNG discipline), then parent
  and sampled traces are aggregated, each through a fresh
  :class:`~repro.flows.table.FlowTable`.  Every batch population here
  (:func:`parent_flows`, :func:`sampled_flows`, :func:`flow_study`,
  :func:`shard_flow_summary`) is aggregated by the vectorized
  :func:`~repro.flows.chunked.fast_aggregate_trace`, whose batch holds
  the same flows in the same order as the records of the per-packet
  :func:`~repro.flows.table.aggregate_trace`, the reference it is
  tested against;
* :class:`StreamFlowAccountant` rides beside a *streaming* selector:
  it sees each offered packet with the keep/skip decision already
  made, exactly like the live
  :class:`~repro.obs.live.QualityMonitor`.  It is passive by the same
  contract — it never touches an RNG and never influences a decision,
  so an accounted run is bit-identical to a bare one.  Its flow-cache
  counters and gauges go into an :class:`~repro.obs.Instrumentation`
  registry; given the monitor's, one exposition serves both.  It
  takes a packet at a time (:meth:`StreamFlowAccountant.observe`, the
  reference) or a chunk at a time
  (:meth:`StreamFlowAccountant.observe_chunk`, the production path).

Every population is a :class:`FlowSet` over one
:class:`~repro.flows.batch.FlowBatch`: sizes, byte counts and the
summaries of :func:`flow_summary` read its columns, and
:class:`~repro.flows.table.FlowRecord` objects are built only when
:attr:`FlowSet.records` is read.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.metrics.bins import BinSpec
from repro.core.sampling.base import Sampler, SamplingResult
from repro.flows.batch import FlowBatch
from repro.flows.chunked import (
    _group_keys,
    account_chunk,
    encode_flow_keys,
    fast_aggregate_trace,
)
from repro.flows.table import REASON_EVICTED, FlowKey, FlowRecord, FlowTable
from repro.obs.instrument import Counter, Gauge, Instrumentation
from repro.trace.trace import Trace

#: One side of the accountant's hot path: the table, its batch sink,
#: and the pre-resolved metrics (occupancy, peak, exported, evicted).
_Side = Tuple[FlowTable, List[FlowBatch], Gauge, Gauge, Counter, Counter]

#: Flow sizes (packets per flow) are compared over geometric bins —
#: flow-size distributions are heavy-tailed, so equal-width bins would
#: put almost everything in the first one (cf. Clegg et al.'s binned
#: inversion, which works in log-scale bins for the same reason).
FLOW_SIZE_BINS = BinSpec(
    name="flow-size",
    edges=(2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    unit="packets",
)


@dataclass(frozen=True)
class FlowSet:
    """An exported flow population with the summaries analysis needs.

    Holds one :class:`~repro.flows.batch.FlowBatch`; the summaries are
    column reads, and :attr:`records` builds the population's
    :class:`~repro.flows.table.FlowRecord` objects on each read, for
    the code that prints or compares them.
    """

    batch: FlowBatch

    def __post_init__(self) -> None:
        # The summaries hand out the batch's own columns.
        for column in vars(self.batch).values():
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self.batch)

    @property
    def records(self) -> Tuple[FlowRecord, ...]:
        """The population's records, in export order."""
        return tuple(self.batch.to_records())

    def sizes(self) -> np.ndarray:
        """Packets per flow, one entry per flow (read-only)."""
        return self.batch.packets

    def byte_sizes(self) -> np.ndarray:
        """Bytes per flow, one entry per flow (read-only)."""
        return self.batch.bytes

    def keys(self) -> frozenset:
        """Distinct 5-tuples present in the population."""
        return frozenset(map(tuple, self.batch.keys.tolist()))

    @property
    def total_packets(self) -> int:
        return int(self.batch.packets.sum())

    @property
    def total_bytes(self) -> int:
        return int(self.batch.bytes.sum())

    def mean_size(self) -> float:
        """Mean packets per flow (0.0 for an empty population)."""
        if not len(self):
            return 0.0
        return self.total_packets / len(self)

    def size_counts(self, bins: BinSpec = FLOW_SIZE_BINS) -> np.ndarray:
        """Flow counts over the flow-size bins."""
        return bins.counts(self.sizes().astype(np.float64))


def _flow_set(trace: Trace, table: Optional[FlowTable] = None) -> FlowSet:
    """``trace``'s flows, aggregated by the vectorized kernel."""
    return FlowSet(fast_aggregate_trace(trace, table=table))


def parent_flows(trace: Trace, table: Optional[FlowTable] = None) -> FlowSet:
    """The ground-truth flow population of a trace.

    Aggregated by :func:`~repro.flows.chunked.fast_aggregate_trace`
    into ``table`` (a fresh default one when omitted).
    """
    return _flow_set(trace, table)


def sampled_flows(
    trace: Trace,
    result: SamplingResult,
    table: Optional[FlowTable] = None,
) -> FlowSet:
    """The flow population a monitor sees through a drawn sample.

    Only the packets the sampler kept reach the flow cache; timestamps
    keep their parent values, so flow timeouts behave exactly as they
    would in a monitor receiving the thinned stream.  ``table`` works
    as in :func:`parent_flows`.
    """
    return _flow_set(result.apply(trace), table)


@dataclass(frozen=True)
class FlowStudy:
    """Parent and sampled flow populations of one sampling pass."""

    method: str
    granularity: float
    fraction: float
    parent: FlowSet
    sampled: FlowSet

    @property
    def detected_fraction(self) -> float:
        """Share of parent 5-tuples with at least one sampled packet."""
        return _detected_fraction(self.parent, self.sampled)

    def summary(self) -> Dict[str, float]:
        """The flat numeric summary used by telemetry and the CLI."""
        return flow_summary(self.parent, self.sampled)


def _detected_fraction(parent: FlowSet, sampled: FlowSet) -> float:
    """Share of ``parent``'s distinct 5-tuples that ``sampled`` has.

    One grouping pass over both populations' key columns: a key is
    detected when its group holds a parent row and a sampled row.
    """
    if not len(parent):
        return 0.0
    _representatives, order, group_sorted = _group_keys(
        np.concatenate((parent.batch.keys, sampled.batch.keys))
    )
    groups = np.empty(order.size, dtype=np.int64)
    groups[order] = group_sorted
    in_parent = np.zeros(int(group_sorted[-1]) + 1, dtype=bool)
    in_sampled = np.zeros_like(in_parent)
    in_parent[groups[: len(parent)]] = True
    in_sampled[groups[len(parent) :]] = True
    return int(np.count_nonzero(in_parent & in_sampled)) / int(
        np.count_nonzero(in_parent)
    )


def flow_summary(parent: FlowSet, sampled: FlowSet) -> Dict[str, float]:
    """The flat numeric summary of one sampling pass's populations.

    Flow counts, the detected fraction (share of parent 5-tuples with
    at least one sampled packet) and both mean sizes, rounded to six
    places: :meth:`FlowStudy.summary` and the engine's
    :func:`shard_flow_summary` both report this.
    """
    return {
        "parent_flows": float(len(parent)),
        "sampled_flows": float(len(sampled)),
        "detected_fraction": round(_detected_fraction(parent, sampled), 6),
        "parent_mean_packets": round(parent.mean_size(), 6),
        "sampled_mean_packets": round(sampled.mean_size(), 6),
    }


def flow_study(
    trace: Trace,
    sampler: Sampler,
    rng: Optional[np.random.Generator] = None,
    new_table: Callable[[], FlowTable] = FlowTable,
) -> FlowStudy:
    """Draw one sample and aggregate both flow populations.

    The sample is drawn *first*, through the sampler's normal
    :meth:`~repro.core.sampling.base.Sampler.sample` path, so the
    selected indices are bit-identical to what the evaluation harness
    would draw from the same RNG — flow accounting is strictly
    downstream of selection.  ``new_table`` works as in
    :func:`study_from_result`.
    """
    result = sampler.sample(trace, rng=rng)
    return study_from_result(trace, result, new_table=new_table)


def study_from_result(
    trace: Trace,
    result: SamplingResult,
    new_table: Callable[[], FlowTable] = FlowTable,
) -> FlowStudy:
    """Aggregate both populations for an already-drawn sample.

    Each population gets its own table from ``new_table`` (a default
    :class:`~repro.flows.table.FlowTable` when omitted), so a caller
    sets the cache's timeouts and size once for both.
    """
    granularity = float(result.parameters.get("granularity", 0.0))
    if granularity <= 0.0 and result.fraction > 0.0:
        granularity = 1.0 / result.fraction
    return FlowStudy(
        method=result.method,
        granularity=granularity,
        fraction=result.fraction,
        parent=parent_flows(trace, new_table()),
        sampled=sampled_flows(trace, result, new_table()),
    )


def shard_flow_summary(
    window: Trace,
    indices: np.ndarray,
    parent: Optional[FlowSet] = None,
) -> Dict[str, float]:
    """Per-shard flow accounting for the engine's result tuple.

    ``parent`` lets the per-process shard context reuse one parent
    aggregation for every shard of an interval; the summary is a pure
    function of (window, indices) either way, so cached and uncached
    shards report identical numbers.
    """
    if parent is None:
        parent = parent_flows(window)
    return flow_summary(parent, _flow_set(window.select(indices)))


class StreamFlowAccountant:
    """Passive per-packet flow accounting beside a streaming selector.

    Maintains two flow tables — every offered packet feeds the parent
    table, kept packets additionally feed the sampled table — and
    mirrors their occupancy/eviction/export counters into an
    :class:`~repro.obs.Instrumentation` registry (pass the monitor's,
    so the live exposition — textfile exporter, ``/metrics`` — serves
    them beside the quality metrics).

    Like the quality monitor, the accountant is passive: it never
    touches an RNG and never influences the keep/skip decision, so an
    accounted run's selection stream is bit-identical to a bare one.
    """

    enabled = True

    def __init__(
        self,
        idle_timeout_us: int = 15_000_000,
        active_timeout_us: int = 1_800_000_000,
        max_flows: int = 65_536,
        store: Optional[Instrumentation] = None,
    ) -> None:
        self.parent_table = FlowTable(
            idle_timeout_us=idle_timeout_us,
            active_timeout_us=active_timeout_us,
            max_flows=max_flows,
        )
        self.sampled_table = FlowTable(
            idle_timeout_us=idle_timeout_us,
            active_timeout_us=active_timeout_us,
            max_flows=max_flows,
        )
        self.store = store if store is not None else Instrumentation()
        self._parent_batches: List[FlowBatch] = []
        self._sampled_batches: List[FlowBatch] = []
        # Hot-path metrics resolved once; the per-packet path must not
        # pay name lookups or rebuild stats dicts (cf. the engine's
        # _Execution, which resolves its counters off the shard loop).
        self._sides: List[_Side] = []
        for side, table, batches in (
            ("parent", self.parent_table, self._parent_batches),
            ("sampled", self.sampled_table, self._sampled_batches),
        ):
            self._sides.append(
                (
                    table,
                    batches,
                    self.store.gauge("flow_cache_occupancy_%s" % side),
                    self.store.gauge("flow_cache_peak_occupancy_%s" % side),
                    self.store.counter("flow_cache_exported_%s" % side),
                    self.store.counter("flow_cache_evictions_%s" % side),
                )
            )

    def observe(
        self, timestamp_us: int, size: int, key: FlowKey, kept: bool
    ) -> None:
        """Account one offered packet and its keep/skip decision.

        A table's records enter through
        :meth:`~repro.flows.batch.FlowBatch.from_records`; an arrival
        that exported nothing builds no batch.
        """
        parent, sampled = self._sides
        records = parent[0].observe(timestamp_us, size, key)
        self._commit(parent, FlowBatch.from_records(records) if records else None)
        if kept:
            records = sampled[0].observe(timestamp_us, size, key)
            self._commit(
                sampled, FlowBatch.from_records(records) if records else None
            )

    def observe_chunk(self, chunk: Trace, kept: "np.ndarray") -> None:
        """Account one chunk of offered packets and their decisions.

        :func:`~repro.flows.chunked.account_chunk` folds the chunk into
        the parent table and its kept packets into the sampled table.
        Both tables, both export streams (one
        :class:`~repro.flows.batch.FlowBatch` per chunk and side, holding
        the flows the per-packet loop's records would) and the
        ``flow_cache_*`` metrics end the chunk exactly as per-packet
        :meth:`observe` calls would leave them: gauges are
        last-write-wins and counters accumulate totals.  No
        :class:`~repro.flows.table.FlowRecord` is built.
        """
        kept_mask = np.asarray(kept, dtype=bool)
        if kept_mask.shape != (len(chunk),):
            raise ValueError(
                "keep mask shape %r does not match chunk of %d packets"
                % (kept_mask.shape, len(chunk))
            )
        keys = encode_flow_keys(chunk)
        parent, sampled = self._sides
        self._commit(
            parent,
            account_chunk(parent[0], chunk.timestamps_us, chunk.sizes, keys),
        )
        if kept_mask.any():
            self._commit(
                sampled,
                account_chunk(
                    sampled[0],
                    chunk.timestamps_us[kept_mask],
                    chunk.sizes[kept_mask],
                    keys[kept_mask],
                ),
            )

    @staticmethod
    def _commit(side: _Side, batch: Optional[FlowBatch]) -> None:
        """Keep the batch one update of ``side``'s table exported (none
        when it exported nothing) and bring its ``flow_cache_*`` metrics
        up to date.  Every update ends here: :meth:`observe` after each
        packet, :meth:`observe_chunk` after each chunk, and :meth:`flush`
        at end of stream."""
        table, batches, occupancy, peak, exported, evicted = side
        if batch is not None and len(batch):
            batches.append(batch)
            exported.inc(len(batch))
            evictions = batch.count(REASON_EVICTED)
            if evictions:
                evicted.inc(evictions)
        occupancy.set(float(table.occupancy))
        peak.set(float(table.peak_occupancy))

    def flush(self) -> None:
        """Close out both tables at end of stream."""
        for side in self._sides:
            self._commit(side, FlowBatch.from_records(side[0].flush()))

    def parent(self) -> FlowSet:
        """Parent flows exported so far."""
        return FlowSet(FlowBatch.concat(self._parent_batches))

    def sampled(self) -> FlowSet:
        """Sampled flows exported so far."""
        return FlowSet(FlowBatch.concat(self._sampled_batches))


class NullFlowAccountant:
    """The disabled twin: every call no-ops (cf. ``NULL_MONITOR``)."""

    enabled = False

    def observe(
        self, timestamp_us: int, size: int, key: FlowKey, kept: bool
    ) -> None:
        return None

    def flush(self) -> None:
        return None


#: The shared disabled instance.
NULL_ACCOUNTANT = NullFlowAccountant()
