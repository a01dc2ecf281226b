"""Columnar packet-trace container.

A :class:`Trace` holds a packet trace as parallel numpy arrays, one per
header field.  This is the natural layout for the paper's workload: the
hour-long parent population is ~1.6 million packets, and every sampling
method reduces to selecting an index vector into these columns.

Traces are immutable by convention: all transforming operations
(`slice_packets`, `select`, `concat`) return new :class:`Trace` objects
sharing or copying the underlying arrays; nothing mutates in place.
"""

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.trace.packet import IPPROTO_TCP, PacketRecord

#: The trace's columns in storage order, with their dtypes, chosen to
#: keep the 1.6 M packet population compact (~20 MB total).  Every
#: columnar copy of a trace (the pcap decoder's batches, the trace
#: store's files, the engine's worker transport) takes its layout from
#: this one list.
TRACE_COLUMNS: Tuple[Tuple[str, np.dtype], ...] = (
    ("timestamps_us", np.dtype(np.int64)),
    ("sizes", np.dtype(np.int32)),
    ("protocols", np.dtype(np.uint8)),
    ("src_nets", np.dtype(np.uint16)),
    ("dst_nets", np.dtype(np.uint16)),
    ("src_ports", np.dtype(np.uint16)),
    ("dst_ports", np.dtype(np.uint16)),
)
_COLUMN_DTYPES = dict(TRACE_COLUMNS)


class Trace:
    """An ordered packet trace stored column-wise.

    Parameters
    ----------
    timestamps_us:
        Arrival times in microseconds since trace start.  Must be
        non-decreasing; packet order is arrival order.
    sizes:
        IP datagram lengths in bytes.
    protocols, src_nets, dst_nets, src_ports, dst_ports:
        Optional header columns.  When omitted they default to TCP with
        zeroed addresses/ports, which is sufficient for the size and
        interarrival characterization targets.
    """

    __slots__ = tuple(name for name, _ in TRACE_COLUMNS)

    def __init__(
        self,
        timestamps_us: Sequence[int],
        sizes: Sequence[int],
        protocols: Optional[Sequence[int]] = None,
        src_nets: Optional[Sequence[int]] = None,
        dst_nets: Optional[Sequence[int]] = None,
        src_ports: Optional[Sequence[int]] = None,
        dst_ports: Optional[Sequence[int]] = None,
    ) -> None:
        timestamps = np.asarray(timestamps_us, dtype=_COLUMN_DTYPES["timestamps_us"])
        sizes_arr = np.asarray(sizes, dtype=_COLUMN_DTYPES["sizes"])
        if timestamps.ndim != 1 or sizes_arr.ndim != 1:
            raise ValueError("trace columns must be one-dimensional")
        if len(timestamps) != len(sizes_arr):
            raise ValueError(
                "timestamp and size columns differ in length: %d vs %d"
                % (len(timestamps), len(sizes_arr))
            )
        if len(timestamps) and np.any(np.diff(timestamps) < 0):
            raise ValueError("trace timestamps must be non-decreasing")
        n = len(timestamps)
        self.timestamps_us = timestamps
        self.sizes = sizes_arr
        self.protocols = self._column(protocols, n, "protocols", IPPROTO_TCP)
        self.src_nets = self._column(src_nets, n, "src_nets", 0)
        self.dst_nets = self._column(dst_nets, n, "dst_nets", 0)
        self.src_ports = self._column(src_ports, n, "src_ports", 0)
        self.dst_ports = self._column(dst_ports, n, "dst_ports", 0)

    @staticmethod
    def _column(
        values: Optional[Sequence[int]], n: int, name: str, default: int
    ) -> np.ndarray:
        dtype = _COLUMN_DTYPES[name]
        if values is None:
            return np.full(n, default, dtype=dtype)
        arr = np.asarray(values, dtype=dtype)
        if arr.shape != (n,):
            raise ValueError(
                "column %s has length %d, expected %d" % (name, len(arr), n)
            )
        return arr

    # ------------------------------------------------------------------
    # construction helpers

    @classmethod
    def from_records(cls, records: Sequence[PacketRecord]) -> "Trace":
        """Build a trace from an iterable of :class:`PacketRecord`."""
        records = list(records)
        return cls(
            timestamps_us=[r.timestamp_us for r in records],
            sizes=[r.size for r in records],
            protocols=[r.protocol for r in records],
            src_nets=[r.src_net for r in records],
            dst_nets=[r.dst_net for r in records],
            src_ports=[r.src_port for r in records],
            dst_ports=[r.dst_port for r in records],
        )

    @classmethod
    def empty(cls) -> "Trace":
        """A trace with no packets."""
        return cls(timestamps_us=[], sizes=[])

    @classmethod
    def merge(cls, traces: Sequence["Trace"]) -> "Trace":
        """Time-ordered merge of traces sharing a clock origin.

        Models multiple interface subsystems forwarding into one
        node-level stream (the T3 architecture: T3, Ethernet, and FDDI
        subsystems deliver selected packets to the RS/6000 processor in
        parallel).  Ties keep the input-trace order, so the merge is
        deterministic.  A lone non-empty input is returned as is.
        """
        traces = [t for t in traces if len(t)]
        if not traces:
            return cls.empty()
        if len(traces) == 1:
            return traces[0]
        timestamps = np.concatenate([t.timestamps_us for t in traces])
        order = np.argsort(timestamps, kind="stable")
        return cls(
            timestamps_us=timestamps[order],
            sizes=np.concatenate([t.sizes for t in traces])[order],
            protocols=np.concatenate([t.protocols for t in traces])[order],
            src_nets=np.concatenate([t.src_nets for t in traces])[order],
            dst_nets=np.concatenate([t.dst_nets for t in traces])[order],
            src_ports=np.concatenate([t.src_ports for t in traces])[order],
            dst_ports=np.concatenate([t.dst_ports for t in traces])[order],
        )

    @classmethod
    def concat(cls, traces: Sequence["Trace"]) -> "Trace":
        """Concatenate traces; timestamps must remain non-decreasing."""
        if not traces:
            return cls.empty()
        return cls(
            timestamps_us=np.concatenate([t.timestamps_us for t in traces]),
            sizes=np.concatenate([t.sizes for t in traces]),
            protocols=np.concatenate([t.protocols for t in traces]),
            src_nets=np.concatenate([t.src_nets for t in traces]),
            dst_nets=np.concatenate([t.dst_nets for t in traces]),
            src_ports=np.concatenate([t.src_ports for t in traces]),
            dst_ports=np.concatenate([t.dst_ports for t in traces]),
        )

    # ------------------------------------------------------------------
    # basic protocol

    def __len__(self) -> int:
        return len(self.timestamps_us)

    def __iter__(self) -> Iterator[PacketRecord]:
        for i in range(len(self)):
            yield self.record(i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, col), getattr(other, col))
            for col in self.__slots__
        )

    def __repr__(self) -> str:
        if not len(self):
            return "Trace(empty)"
        return "Trace(%d packets, %.3f s, %d bytes)" % (
            len(self),
            self.duration_us / 1e6,
            self.total_bytes,
        )

    def record(self, index: int) -> PacketRecord:
        """Materialize packet ``index`` as a :class:`PacketRecord`."""
        return PacketRecord(
            timestamp_us=int(self.timestamps_us[index]),
            size=int(self.sizes[index]),
            protocol=int(self.protocols[index]),
            src_net=int(self.src_nets[index]),
            dst_net=int(self.dst_nets[index]),
            src_port=int(self.src_ports[index]),
            dst_port=int(self.dst_ports[index]),
        )

    # ------------------------------------------------------------------
    # derived quantities

    @property
    def duration_us(self) -> int:
        """Elapsed time from first to last packet, in microseconds."""
        if not len(self):
            return 0
        return int(self.timestamps_us[-1] - self.timestamps_us[0])

    @property
    def total_bytes(self) -> int:
        """Sum of packet sizes."""
        return int(self.sizes.sum())

    def interarrivals_us(self) -> np.ndarray:
        """Interarrival gaps in microseconds.

        The paper's second characterization target.  A trace of N
        packets yields N-1 gaps; an empty or single-packet trace yields
        an empty array.
        """
        if len(self) < 2:
            return np.empty(0, dtype=np.int64)
        return np.diff(self.timestamps_us)

    # ------------------------------------------------------------------
    # transformations

    def select(self, indices: Sequence[int]) -> "Trace":
        """Return the sub-trace at the given sorted row indices.

        This is the primitive every sampling method uses: a sampler
        produces an index vector and :meth:`select` materializes the
        sampled sub-trace.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= len(self)):
            raise IndexError(
                "sample indices out of range [0, %d)" % len(self)
            )
        if idx.size > 1 and np.any(np.diff(idx) < 0):
            raise ValueError("sample indices must be sorted (arrival order)")
        return Trace(
            timestamps_us=self.timestamps_us[idx],
            sizes=self.sizes[idx],
            protocols=self.protocols[idx],
            src_nets=self.src_nets[idx],
            dst_nets=self.dst_nets[idx],
            src_ports=self.src_ports[idx],
            dst_ports=self.dst_ports[idx],
        )

    def slice_packets(self, start: int, stop: Optional[int] = None) -> "Trace":
        """Return packets ``start:stop`` by position."""
        sl = slice(start, stop)
        return Trace(
            timestamps_us=self.timestamps_us[sl],
            sizes=self.sizes[sl],
            protocols=self.protocols[sl],
            src_nets=self.src_nets[sl],
            dst_nets=self.dst_nets[sl],
            src_ports=self.src_ports[sl],
            dst_ports=self.dst_ports[sl],
        )

    def rebase(self) -> "Trace":
        """Shift timestamps so the first packet arrives at time zero."""
        if not len(self):
            return self
        return Trace(
            timestamps_us=self.timestamps_us - self.timestamps_us[0],
            sizes=self.sizes,
            protocols=self.protocols,
            src_nets=self.src_nets,
            dst_nets=self.dst_nets,
            src_ports=self.src_ports,
            dst_ports=self.dst_ports,
        )

    def with_timestamps(self, timestamps_us: np.ndarray) -> "Trace":
        """Return a copy with replaced timestamps (e.g. clock-quantized)."""
        return Trace(
            timestamps_us=timestamps_us,
            sizes=self.sizes,
            protocols=self.protocols,
            src_nets=self.src_nets,
            dst_nets=self.dst_nets,
            src_ports=self.src_ports,
            dst_ports=self.dst_ports,
        )

    def records(self) -> List[PacketRecord]:
        """All packets as records.  Intended for small traces/tests."""
        return list(iter(self))
