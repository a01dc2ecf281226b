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
  :func:`~repro.flows.chunked.fast_aggregate_trace`, which exports the
  same records in the same order as the per-packet
  :func:`~repro.flows.table.aggregate_trace`.  All but the last take
  an ``aggregate=`` argument, the seam through which
  ``flows --fastpath off`` runs that per-packet reference instead;
* :class:`StreamFlowAccountant` rides beside a *streaming* selector:
  it sees each offered packet with the keep/skip decision already
  made, exactly like the live
  :class:`~repro.obs.live.QualityMonitor`.  It is passive by the same
  contract — it never touches an RNG and never influences a decision,
  so an accounted run is bit-identical to a bare one.  Its flow-cache
  counters and gauges go into an :class:`~repro.obs.Instrumentation`
  registry; given the monitor's, one exposition serves both.
"""

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.metrics.bins import BinSpec
from repro.core.sampling.base import Sampler, SamplingResult
from repro.flows.chunked import fast_aggregate_trace
from repro.flows.table import FlowKey, FlowRecord, FlowTable
from repro.obs.instrument import Counter, Gauge, Instrumentation
from repro.trace.trace import Trace

#: One side of the accountant's hot path: the table, its record sink,
#: and the pre-resolved metrics (occupancy, peak, exported, evicted).
_Side = Tuple[FlowTable, List[FlowRecord], Gauge, Gauge, Counter, Counter]

#: A trace-to-records aggregation replacing the default vectorized one:
#: the reference seam, through which ``flows --fastpath off`` runs the
#: per-packet :func:`~repro.flows.table.aggregate_trace`.  It brings its
#: own table, so the ``flows`` CLI also passes one built from its cache
#: flags.
Aggregate = Callable[[Trace], List[FlowRecord]]

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
    """An exported flow population with the summaries analysis needs."""

    records: Tuple[FlowRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def sizes(self) -> np.ndarray:
        """Packets per flow, one entry per record."""
        return np.asarray(
            [record.packets for record in self.records], dtype=np.int64
        )

    def byte_sizes(self) -> np.ndarray:
        """Bytes per flow, one entry per record."""
        return np.asarray(
            [record.bytes for record in self.records], dtype=np.int64
        )

    def keys(self) -> frozenset:
        """Distinct 5-tuples present in the population."""
        return frozenset(record.key for record in self.records)

    @property
    def total_packets(self) -> int:
        return int(self.sizes().sum()) if self.records else 0

    @property
    def total_bytes(self) -> int:
        return int(self.byte_sizes().sum()) if self.records else 0

    def mean_size(self) -> float:
        """Mean packets per flow (0.0 for an empty population)."""
        if not self.records:
            return 0.0
        return self.total_packets / len(self.records)

    def size_counts(self, bins: BinSpec = FLOW_SIZE_BINS) -> np.ndarray:
        """Flow counts over the flow-size bins."""
        return bins.counts(self.sizes().astype(np.float64))


def _flow_set(
    trace: Trace, table: Optional[FlowTable], aggregate: Optional[Aggregate]
) -> FlowSet:
    """``trace``'s flows, through the vectorized kernel unless an
    ``aggregate`` (which brings its own table) replaces it."""
    if aggregate is None:
        return FlowSet(records=tuple(fast_aggregate_trace(trace, table=table)))
    if table is not None:
        raise ValueError("pass either table or aggregate, not both")
    return FlowSet(records=tuple(aggregate(trace)))


def parent_flows(
    trace: Trace,
    table: Optional[FlowTable] = None,
    aggregate: Optional[Aggregate] = None,
) -> FlowSet:
    """The ground-truth flow population of a trace.

    Aggregated by :func:`~repro.flows.chunked.fast_aggregate_trace`
    into ``table`` (a fresh default one when omitted).  ``aggregate``
    replaces that with another aggregation — the per-packet reference
    — and is mutually exclusive with ``table``.
    """
    return _flow_set(trace, table, aggregate)


def sampled_flows(
    trace: Trace,
    result: SamplingResult,
    table: Optional[FlowTable] = None,
    aggregate: Optional[Aggregate] = None,
) -> FlowSet:
    """The flow population a monitor sees through a drawn sample.

    Only the packets the sampler kept reach the flow cache; timestamps
    keep their parent values, so flow timeouts behave exactly as they
    would in a monitor receiving the thinned stream.  ``table`` and
    ``aggregate`` work as in :func:`parent_flows`.
    """
    return _flow_set(result.apply(trace), table, aggregate)


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
        parent_keys = self.parent.keys()
        if not parent_keys:
            return 0.0
        return len(self.sampled.keys() & parent_keys) / len(parent_keys)

    def summary(self) -> Dict[str, float]:
        """The flat numeric summary used by telemetry and the CLI."""
        return {
            "parent_flows": float(len(self.parent)),
            "sampled_flows": float(len(self.sampled)),
            "detected_fraction": round(self.detected_fraction, 6),
            "parent_mean_packets": round(self.parent.mean_size(), 6),
            "sampled_mean_packets": round(self.sampled.mean_size(), 6),
        }


def flow_study(
    trace: Trace,
    sampler: Sampler,
    rng: Optional[np.random.Generator] = None,
    aggregate: Optional[Aggregate] = None,
) -> FlowStudy:
    """Draw one sample and aggregate both flow populations.

    The sample is drawn *first*, through the sampler's normal
    :meth:`~repro.core.sampling.base.Sampler.sample` path, so the
    selected indices are bit-identical to what the evaluation harness
    would draw from the same RNG — flow accounting is strictly
    downstream of selection, and an ``aggregate`` override (the
    per-packet reference) cannot perturb the draw.
    """
    result = sampler.sample(trace, rng=rng)
    return study_from_result(trace, result, aggregate=aggregate)


def study_from_result(
    trace: Trace,
    result: SamplingResult,
    aggregate: Optional[Aggregate] = None,
) -> FlowStudy:
    """Aggregate both populations for an already-drawn sample."""
    granularity = float(result.parameters.get("granularity", 0.0))
    if granularity <= 0.0 and result.fraction > 0.0:
        granularity = 1.0 / result.fraction
    return FlowStudy(
        method=result.method,
        granularity=granularity,
        fraction=result.fraction,
        parent=parent_flows(trace, aggregate=aggregate),
        sampled=sampled_flows(trace, result, aggregate=aggregate),
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
    sampled = _flow_set(window.select(indices), None, None)
    parent_keys = parent.keys()
    detected = (
        len(sampled.keys() & parent_keys) / len(parent_keys)
        if parent_keys
        else 0.0
    )
    return {
        "parent_flows": float(len(parent)),
        "sampled_flows": float(len(sampled)),
        "detected_fraction": round(detected, 6),
        "parent_mean_packets": round(parent.mean_size(), 6),
        "sampled_mean_packets": round(sampled.mean_size(), 6),
    }


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
        self._parent_records: List[FlowRecord] = []
        self._sampled_records: List[FlowRecord] = []
        # Hot-path metrics resolved once; the per-packet path must not
        # pay name lookups or rebuild stats dicts (cf. the engine's
        # _Execution, which resolves its counters off the shard loop).
        self._sides: List[_Side] = []
        for side, table, records in (
            ("parent", self.parent_table, self._parent_records),
            ("sampled", self.sampled_table, self._sampled_records),
        ):
            self._sides.append(
                (
                    table,
                    records,
                    self.store.gauge("flow_cache_occupancy_%s" % side),
                    self.store.gauge("flow_cache_peak_occupancy_%s" % side),
                    self.store.counter("flow_cache_exported_%s" % side),
                    self.store.counter("flow_cache_evictions_%s" % side),
                )
            )

    def observe(
        self, timestamp_us: int, size: int, key: FlowKey, kept: bool
    ) -> None:
        """Account one offered packet and its keep/skip decision."""
        self._account(self._sides[0], timestamp_us, size, key)
        if kept:
            self._account(self._sides[1], timestamp_us, size, key)

    @staticmethod
    def _account(
        side: _Side, timestamp_us: int, size: int, key: FlowKey
    ) -> None:
        table, records, occupancy, peak, exported, evicted = side
        new_records = table.observe(timestamp_us, size, key)
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
        """Close out both tables at end of stream."""
        for side in self._sides:
            table, records, occupancy, peak, exported, _evicted = side
            flushed = table.flush()
            records.extend(flushed)
            exported.inc(len(flushed))
            occupancy.set(0.0)
            peak.set(float(table.peak_occupancy))

    def parent(self) -> FlowSet:
        """Parent flow records exported so far."""
        return FlowSet(records=tuple(self._parent_records))

    def sampled(self) -> FlowSet:
        """Sampled flow records exported so far."""
        return FlowSet(records=tuple(self._sampled_records))


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


def flow_sizes(records: Sequence[FlowRecord]) -> np.ndarray:
    """Packets per flow for a sequence of records."""
    return np.asarray([record.packets for record in records], dtype=np.int64)
