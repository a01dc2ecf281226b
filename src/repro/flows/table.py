"""Streaming NetFlow-style flow accounting.

The paper characterizes traffic packet by packet; its successors
(Chabchoub et al., Clegg et al.) moved to the *flow* level, where the
unit of interest is a 5-tuple conversation and the operational device
is the router's flow cache: a bounded table keyed on
``(src, dst, sport, dport, proto)`` whose entries accumulate packet
and byte counts until a timeout (or memory pressure) expires them into
immutable export records.

:class:`FlowTable` reproduces that device faithfully enough to study
how sampling distorts flow statistics:

* **idle timeout** — a flow silent for ``idle_timeout_us`` is expired;
  expiry is lazy and O(expired) per packet because the table keeps its
  entries in least-recently-updated order;
* **active timeout** — a flow older than ``active_timeout_us`` is
  exported and restarted on its next packet, the NetFlow rule that
  bounds how stale a long-lived flow's accounting can be;
* **bounded memory** — at ``max_flows`` occupancy the least recently
  updated entry is emergency-evicted to make room, so the per-packet
  cost and the footprint are independent of how many flows the
  traffic contains.

Everything is deterministic: no randomness, no wall clock — time is
the packet timestamps themselves, so the same trace always yields the
same flow records in the same order.

The table is the per-packet reference: it exports
:class:`FlowRecord` objects.  Production code feeds it a chunk at a
time through :func:`repro.flows.chunked.account_chunk`, which exports
the same flows as columns (:class:`repro.flows.batch.FlowBatch`); what
:meth:`FlowTable.observe` and :meth:`FlowTable.flush` return joins that
format through :meth:`~repro.flows.batch.FlowBatch.from_records`.
"""

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.trace.trace import Trace

#: The classic 5-tuple: (src_net, dst_net, src_port, dst_port, protocol).
FlowKey = Tuple[int, int, int, int, int]

#: NetFlow v5 defaults: expire a silent flow after 15 s, re-export a
#: long-lived one every 30 minutes.
DEFAULT_IDLE_TIMEOUT_US = 15_000_000
DEFAULT_ACTIVE_TIMEOUT_US = 1_800_000_000

#: Export reasons, in the order a record can acquire them.
REASON_IDLE = "idle"
REASON_ACTIVE = "active"
REASON_EVICTED = "evicted"
REASON_FLUSH = "flush"


@dataclass(frozen=True)
class FlowRecord:
    """One exported flow: the immutable unit of flow-level analysis.

    ``packets``/``bytes`` count what the table saw for this incarnation
    of the 5-tuple; a conversation split by an idle or active timeout
    yields several records, exactly as a router's export stream would.
    """

    src_net: int
    dst_net: int
    src_port: int
    dst_port: int
    protocol: int
    packets: int
    bytes: int
    first_us: int
    last_us: int
    reason: str

    @property
    def key(self) -> FlowKey:
        """The flow's 5-tuple."""
        return (
            self.src_net,
            self.dst_net,
            self.src_port,
            self.dst_port,
            self.protocol,
        )

    @property
    def duration_us(self) -> int:
        """First-to-last packet span (0 for single-packet flows)."""
        return self.last_us - self.first_us


class _FlowEntry:
    """One live cache entry (mutable; never leaves the table)."""

    __slots__ = ("key", "packets", "bytes", "first_us", "last_us")

    def __init__(self, key: FlowKey, timestamp_us: int, size: int) -> None:
        self.key = key
        self.packets = 1
        self.bytes = size
        self.first_us = timestamp_us
        self.last_us = timestamp_us

    def export(self, reason: str) -> FlowRecord:
        src_net, dst_net, src_port, dst_port, protocol = self.key
        return FlowRecord(
            src_net=src_net,
            dst_net=dst_net,
            src_port=src_port,
            dst_port=dst_port,
            protocol=protocol,
            packets=self.packets,
            bytes=self.bytes,
            first_us=self.first_us,
            last_us=self.last_us,
            reason=reason,
        )


class FlowTable:
    """A bounded, streaming flow cache with NetFlow timeout semantics.

    Parameters
    ----------
    idle_timeout_us:
        A flow whose last packet is older than this is expired the next
        time the clock (i.e. any packet) advances past its deadline.
    active_timeout_us:
        A flow older than this is exported and restarted on its next
        packet.  Must be at least the idle timeout.
    max_flows:
        Hard occupancy bound; reaching it emergency-evicts the least
        recently updated entry (counted in ``evictions``).

    Per packet the table does one idle-expiry scan from the LRU end
    (amortized O(1): each entry is expired at most once), at most one
    active-timeout export, and one dict update.  Exported records are
    returned from :meth:`observe` in export order so callers can stream
    them onward without the table retaining anything;
    :meth:`~repro.flows.batch.FlowBatch.from_records` turns them into
    the columnar batch the chunk kernel exports.
    """

    def __init__(
        self,
        idle_timeout_us: int = DEFAULT_IDLE_TIMEOUT_US,
        active_timeout_us: int = DEFAULT_ACTIVE_TIMEOUT_US,
        max_flows: int = 65_536,
    ) -> None:
        if idle_timeout_us <= 0:
            raise ValueError(
                "idle timeout must be positive, got %d" % idle_timeout_us
            )
        if active_timeout_us < idle_timeout_us:
            raise ValueError(
                "active timeout (%d) must be >= idle timeout (%d)"
                % (active_timeout_us, idle_timeout_us)
            )
        if max_flows < 1:
            raise ValueError("max_flows must be >= 1, got %d" % max_flows)
        self.idle_timeout_us = int(idle_timeout_us)
        self.active_timeout_us = int(active_timeout_us)
        self.max_flows = int(max_flows)
        self._entries: "OrderedDict[FlowKey, _FlowEntry]" = OrderedDict()
        #: Flow incarnations created (>= distinct 5-tuples seen).
        self.flows_created = 0
        #: Exported record counts by reason.
        self.exported: Dict[str, int] = {
            REASON_IDLE: 0,
            REASON_ACTIVE: 0,
            REASON_EVICTED: 0,
            REASON_FLUSH: 0,
        }
        #: High-water occupancy.
        self.peak_occupancy = 0
        self._last_timestamp: Optional[int] = None

    # ------------------------------------------------------------------
    # the per-packet path

    def observe(
        self, timestamp_us: int, size: int, key: FlowKey
    ) -> List[FlowRecord]:
        """Account one packet; return the flows this arrival expired."""
        timestamp_us = int(timestamp_us)
        last = self._last_timestamp
        if last is not None and timestamp_us < last:
            raise ValueError(
                "time went backwards: %d after %d" % (timestamp_us, last)
            )
        self._last_timestamp = timestamp_us
        exported = self._expire_idle(timestamp_us)
        entries = self._entries
        entry = entries.get(key)
        if entry is not None and (
            timestamp_us - entry.first_us >= self.active_timeout_us
        ):
            exported.append(entry.export(REASON_ACTIVE))
            self.exported[REASON_ACTIVE] += 1
            del entries[key]
            entry = None
        if entry is None:
            if len(entries) >= self.max_flows:
                _, victim = entries.popitem(last=False)
                exported.append(victim.export(REASON_EVICTED))
                self.exported[REASON_EVICTED] += 1
            entries[key] = _FlowEntry(key, timestamp_us, int(size))
            self.flows_created += 1
            if len(entries) > self.peak_occupancy:
                self.peak_occupancy = len(entries)
        else:
            entry.packets += 1
            entry.bytes += int(size)
            entry.last_us = timestamp_us
            entries.move_to_end(key)
        return exported

    def flush(self) -> List[FlowRecord]:
        """Export every live entry (end of stream), oldest-update first."""
        records = [
            entry.export(REASON_FLUSH) for entry in self._entries.values()
        ]
        self.exported[REASON_FLUSH] += len(records)
        self._entries.clear()
        return records

    def _expire_idle(self, now_us: int) -> List[FlowRecord]:
        """Pop idle-expired entries from the LRU end."""
        expired: List[FlowRecord] = []
        entries = self._entries
        deadline = now_us - self.idle_timeout_us
        while entries:
            oldest = next(iter(entries.values()))
            if oldest.last_us > deadline:
                break
            expired.append(oldest.export(REASON_IDLE))
            self.exported[REASON_IDLE] += 1
            del entries[oldest.key]
        return expired

    # ------------------------------------------------------------------
    # inspection

    @property
    def occupancy(self) -> int:
        """Live entries currently held."""
        return len(self._entries)

    @property
    def exported_total(self) -> int:
        """Flow records exported so far, all reasons combined."""
        return sum(self.exported.values())

    def stats(self) -> Dict[str, int]:
        """Counters for telemetry: occupancy, creations, exports."""
        return {
            "occupancy": self.occupancy,
            "peak_occupancy": self.peak_occupancy,
            "flows_created": self.flows_created,
            "exported_idle": self.exported[REASON_IDLE],
            "exported_active": self.exported[REASON_ACTIVE],
            "exported_evicted": self.exported[REASON_EVICTED],
            "exported_flush": self.exported[REASON_FLUSH],
        }


def iter_flow_keys(trace: Trace) -> Iterator[Tuple[int, int, FlowKey]]:
    """Yield ``(timestamp_us, size, key)`` per packet, columnar-fast.

    The ``tolist`` conversions turn the columns into plain ints once,
    so the per-packet loop never pays numpy scalar overhead.
    """
    return (
        (timestamp, size, (src_net, dst_net, src_port, dst_port, protocol))
        for timestamp, size, src_net, dst_net, src_port, dst_port, protocol in zip(
            trace.timestamps_us.tolist(),
            trace.sizes.tolist(),
            trace.src_nets.tolist(),
            trace.dst_nets.tolist(),
            trace.src_ports.tolist(),
            trace.dst_ports.tolist(),
            trace.protocols.tolist(),
        )
    )


def aggregate_trace(
    trace: Trace, table: Optional[FlowTable] = None
) -> List[FlowRecord]:
    """Run a whole trace through a flow table; return every record.

    Records appear in export order (expiry interleaved with arrival,
    then the final flush).  A caller wanting the table's counters can
    pass its own instance.
    """
    if table is None:
        table = FlowTable()
    records: List[FlowRecord] = []
    for timestamp_us, size, key in iter_flow_keys(trace):
        records.extend(table.observe(timestamp_us, size, key))
    records.extend(table.flush())
    return records
