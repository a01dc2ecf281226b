"""Classic libpcap file reader/writer, from scratch.

The original study stored its 650 MB trace in a site-specific format.
For interoperability this module serializes :class:`~repro.trace.Trace`
objects to the classic libpcap container (magic ``0xa1b2c3d4``,
microsecond timestamps) with RAW-IP link type, writing genuine IPv4 +
TCP/UDP/ICMP headers so the files load in standard tooling.

Only the header fields the study consumes are preserved.  Network
numbers are encoded in the upper 16 bits of each IPv4 address
(``addr = net << 16 | host``), mirroring the class-B flavoured NSFNET
numbering of the era; the reader inverts the same convention.

Both directions run the vectorized block codec in
:mod:`repro.trace.store`.  The original per-record struct loops stay
as the executable reference and as its fallback: the reader verifies
every record chain exactly and demotes any stream region it cannot
verify to the per-record loop, and the writer hands any field outside
the reference's struct ranges to the per-record writer, so output —
including error behavior — is always bit-identical to the reference.
"""

import io
import os
import struct
from typing import Any, BinaryIO, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.obs.instrument import NULL_OBS
from repro.trace.packet import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP
from repro.trace.store import FastpathUnsupported, encode_trace, iter_decoded_columns
from repro.trace.trace import TRACE_COLUMNS, Trace

#: Classic libpcap magic for microsecond-resolution timestamps.
PCAP_MAGIC = 0xA1B2C3D4
#: DLT_RAW: packets begin directly with the IPv4 header.
LINKTYPE_RAW = 101

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_GLOBAL_HEADER_BE = struct.Struct(">IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_RECORD_HEADER_BE = struct.Struct(">IIII")
_IP_HEADER = struct.Struct(">BBHHHBBHII")

_IP_HEADER_LEN = 20
_TRANSPORT_HEADER_LEN = {IPPROTO_TCP: 20, IPPROTO_UDP: 8, IPPROTO_ICMP: 8}
#: Capture length: enough for IP + the largest transport header we emit.
DEFAULT_SNAPLEN = 64


class PcapError(ValueError):
    """Raised when a pcap stream is malformed or unsupported."""


def _ip_checksum(header: bytes) -> int:
    """RFC 1071 ones-complement checksum over an IPv4 header."""
    if len(header) % 2:
        header += b"\x00"
    total = sum(struct.unpack(">%dH" % (len(header) // 2), header))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


def _encode_address(net: int, host: int) -> int:
    return ((net & 0xFFFF) << 16) | (host & 0xFFFF)


def _build_packet_bytes(
    size: int,
    protocol: int,
    src_net: int,
    dst_net: int,
    src_port: int,
    dst_port: int,
    snaplen: int,
) -> bytes:
    """Serialize one packet's captured bytes (headers + zero padding)."""
    header = _IP_HEADER.pack(
        0x45,  # version 4, IHL 5
        0,  # TOS
        size,  # total length
        0,  # identification
        0,  # flags/fragment offset
        64,  # TTL
        protocol,
        0,  # checksum placeholder
        _encode_address(src_net, 1),
        _encode_address(dst_net, 1),
    )
    checksum = _ip_checksum(header)
    header = header[:10] + struct.pack(">H", checksum) + header[12:]

    if protocol == IPPROTO_TCP:
        transport = struct.pack(
            ">HHIIBBHHH", src_port, dst_port, 0, 0, 0x50, 0x10, 8192, 0, 0
        )
    elif protocol == IPPROTO_UDP:
        udp_len = max(8, size - _IP_HEADER_LEN)
        transport = struct.pack(">HHHH", src_port, dst_port, udp_len, 0)
    elif protocol == IPPROTO_ICMP:
        transport = struct.pack(">BBHI", 8, 0, 0, 0)  # echo request
    else:
        transport = b""

    captured = header + transport
    pad = min(size, snaplen) - len(captured)
    if pad > 0:
        captured += b"\x00" * pad
    return captured[:snaplen]


def write_pcap(
    trace: Trace,
    destination: Union[str, BinaryIO],
    snaplen: int = DEFAULT_SNAPLEN,
) -> None:
    """Write ``trace`` to ``destination`` as a classic pcap file.

    The vectorized encoder writes the bytes; a trace with fields
    outside the reference writer's struct ranges goes through the
    per-record reference loop instead, which raises its historical
    error.

    Parameters
    ----------
    trace:
        The trace to serialize.
    destination:
        File path or writable binary stream.
    snaplen:
        Capture length per packet.  Headers always fit within the
        default; payload beyond the snap length is truncated, with the
        true size preserved in the record's original-length field.
    """
    if snaplen < _IP_HEADER_LEN + max(_TRANSPORT_HEADER_LEN.values()):
        raise ValueError("snaplen %d too small to hold packet headers" % snaplen)
    if isinstance(destination, str):
        with open(destination, "wb") as stream:
            write_pcap(trace, stream, snaplen=snaplen)
        return

    encoded = encode_trace(trace, snaplen)
    if encoded is not None:
        destination.write(encoded)
        return

    destination.write(
        _GLOBAL_HEADER.pack(PCAP_MAGIC, 2, 4, 0, 0, snaplen, LINKTYPE_RAW)
    )
    for i in range(len(trace)):
        ts = int(trace.timestamps_us[i])
        payload = _build_packet_bytes(
            size=int(trace.sizes[i]),
            protocol=int(trace.protocols[i]),
            src_net=int(trace.src_nets[i]),
            dst_net=int(trace.dst_nets[i]),
            src_port=int(trace.src_ports[i]),
            dst_port=int(trace.dst_ports[i]),
            snaplen=snaplen,
        )
        destination.write(
            _RECORD_HEADER.pack(
                ts // 1_000_000, ts % 1_000_000, len(payload), int(trace.sizes[i])
            )
        )
        destination.write(payload)


def _map_payload(stream: BinaryIO) -> Union[bytes, np.ndarray]:
    """The remaining bytes of ``stream`` for the vectorized decoder:
    a read-only memory map when the stream is a real file (no copy, no
    read), a plain ``read()`` otherwise."""
    try:
        fileno = stream.fileno()
        offset = stream.tell()
    except (OSError, AttributeError, io.UnsupportedOperation):
        return stream.read()
    remaining = os.fstat(fileno).st_size - offset
    if remaining <= 0:
        return b""
    return np.memmap(stream, dtype=np.uint8, mode="r", offset=offset, shape=(remaining,))


def _read_exactly(stream: BinaryIO, count: int) -> bytes:
    data = stream.read(count)
    if len(data) != count:
        raise PcapError(
            "truncated pcap stream: wanted %d bytes, got %d" % (count, len(data))
        )
    return data


def _parse_global_header(head: bytes) -> Tuple[struct.Struct, bool]:
    """Validate the 24-byte global header; returns the record-header
    struct and whether the capture is byte-swapped (big-endian)."""
    magic_le = struct.unpack("<I", head[:4])[0]
    if magic_le == PCAP_MAGIC:
        global_hdr, record_hdr, swapped = _GLOBAL_HEADER, _RECORD_HEADER, False
    elif struct.unpack(">I", head[:4])[0] == PCAP_MAGIC:
        global_hdr, record_hdr, swapped = _GLOBAL_HEADER_BE, _RECORD_HEADER_BE, True
    else:
        raise PcapError("bad pcap magic 0x%08x" % magic_le)

    _magic, major, minor, _tz, _sig, _snaplen, linktype = global_hdr.unpack(head)
    if (major, minor) != (2, 4):
        raise PcapError("unsupported pcap version %d.%d" % (major, minor))
    if linktype != LINKTYPE_RAW:
        raise PcapError("unsupported link type %d (want RAW IP)" % linktype)
    return record_hdr, swapped


#: One decoded record: (timestamp_us, size, protocol, src_net, dst_net,
#: src_port, dst_port).
_Record = Tuple[int, int, int, int, int, int, int]


def _iter_records(
    stream: BinaryIO, record_hdr: struct.Struct, first_index: int
) -> Iterator[_Record]:
    """The per-record reference parser (the executable specification
    the vectorized codec is pinned against).  ``first_index`` is the
    file-wide index of the stream's first record, for diagnostics."""
    index = first_index
    while True:
        raw = stream.read(record_hdr.size)
        if not raw:
            break
        if len(raw) != record_hdr.size:
            raise PcapError("truncated pcap record header")
        ts_sec, ts_usec, incl_len, orig_len = record_hdr.unpack(raw)
        if ts_usec >= 1_000_000:
            raise PcapError(
                "microsecond field out of range at record index %d: %d"
                % (index, ts_usec)
            )
        payload = _read_exactly(stream, incl_len)
        if incl_len < _IP_HEADER_LEN:
            raise PcapError("record captured %d bytes, below IP header" % incl_len)
        (
            ver_ihl,
            _tos,
            _total,
            _ident,
            _frag,
            _ttl,
            protocol,
            _cksum,
            src_addr,
            dst_addr,
        ) = _IP_HEADER.unpack(payload[:_IP_HEADER_LEN])
        if ver_ihl >> 4 != 4:
            raise PcapError("non-IPv4 packet in RAW-IP pcap")
        src_port = dst_port = 0
        if protocol in (IPPROTO_TCP, IPPROTO_UDP) and incl_len >= _IP_HEADER_LEN + 4:
            src_port, dst_port = struct.unpack(
                ">HH", payload[_IP_HEADER_LEN : _IP_HEADER_LEN + 4]
            )
        yield (
            ts_sec * 1_000_000 + ts_usec,
            orig_len,
            protocol,
            src_addr >> 16,
            dst_addr >> 16,
            src_port,
            dst_port,
        )
        index += 1


_ColumnTuple = Tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
]

def _columns_from_records(records: List[_Record]) -> _ColumnTuple:
    fields = tuple(zip(*records))
    return tuple(  # type: ignore[return-value]
        np.asarray(field, dtype=dtype)
        for field, (_, dtype) in zip(fields, TRACE_COLUMNS)
    )


class _ChunkBuilder:
    """Accumulates decoded column batches and emits :class:`Trace`
    chunks of exactly ``chunk_packets`` packets (plus a final partial),
    incrementing the ingest counters per emitted chunk — the exact
    cadence of the historical per-record loop.

    A record timestamped before its predecessor, within a chunk or
    across two, raises :class:`PcapError` naming the record, so both
    decoders report it alike."""

    def __init__(self, chunk_packets: int, obs: Any) -> None:
        self._chunk_packets = chunk_packets
        self._obs = obs
        self._parts: List[_ColumnTuple] = []
        self._buffered = 0
        self._emitted = 0
        self._last_us: Optional[int] = None

    @property
    def pushed(self) -> int:
        """Records pushed so far, emitted or still buffered."""
        return self._emitted + self._buffered

    def push(self, columns: _ColumnTuple) -> List[Trace]:
        if len(columns[0]):
            self._parts.append(columns)
            self._buffered += len(columns[0])
        ready: List[Trace] = []
        while self._buffered >= self._chunk_packets:
            ready.append(self._emit(self._chunk_packets))
        return ready

    def finish(self) -> List[Trace]:
        return [self._emit(self._buffered)] if self._buffered else []

    def _emit(self, count: int) -> Trace:
        if len(self._parts) == 1:
            merged = self._parts[0]
        else:
            merged = tuple(  # type: ignore[assignment]
                np.concatenate([part[i] for part in self._parts])
                for i in range(len(TRACE_COLUMNS))
            )
        head = tuple(np.ascontiguousarray(column[:count]) for column in merged)
        if count < self._buffered:
            self._parts = [tuple(column[count:] for column in merged)]
        else:
            self._parts = []
        self._buffered -= count
        timestamps = head[0]
        try:
            chunk = Trace(**dict(zip(Trace.__slots__, head)))
        except ValueError:
            backwards = np.flatnonzero(np.diff(timestamps) < 0)
            if not backwards.size:
                raise
            raise self._out_of_order(timestamps, int(backwards[0]) + 1) from None
        if self._last_us is not None and timestamps[0] < self._last_us:
            raise self._out_of_order(timestamps, 0)
        self._emitted += count
        self._last_us = int(timestamps[-1])
        self._obs.counter("pcap_chunks").inc()
        self._obs.counter("pcap_packets").inc(len(chunk))
        return chunk

    def _out_of_order(self, timestamps: np.ndarray, index: int) -> PcapError:
        previous = self._last_us if index == 0 else int(timestamps[index - 1])
        return PcapError(
            "time goes backwards at record index %d: %d us after %d us"
            % (self._emitted + index, int(timestamps[index]), previous)
        )


#: Default packets per chunk for :func:`iter_pcap` — ~5 MB of columns.
DEFAULT_CHUNK_PACKETS = 262_144


def iter_pcap(
    source: Union[str, BinaryIO],
    chunk_packets: int = DEFAULT_CHUNK_PACKETS,
    obs: Any = None,
) -> Iterator[Trace]:
    """Stream a classic pcap file as :class:`Trace` chunks.

    Yields traces of up to ``chunk_packets`` packets each, in file
    order; concatenating every chunk reproduces :func:`read_pcap`'s
    result exactly.  An empty capture yields no chunks.

    ``obs`` optionally takes an :class:`repro.obs.Instrumentation` (or
    the null instance); each yielded chunk then increments the
    ``pcap_chunks`` / ``pcap_packets`` ingest counters so a live
    monitor can report collector read progress.

    Records are decoded by the vectorized block codec, over a
    read-only memory map of the capture when ``source`` is a real file
    (a plain read otherwise).  Any region it cannot verify is demoted
    to the per-record reference loop, so output and errors are
    bit-identical to the reference's.

    Supports both byte orders (by magic), requires RAW-IP link type and
    microsecond timestamps, and tolerates truncated payload capture as
    long as the 20-byte IPv4 header plus any port fields were captured.
    """
    if chunk_packets < 1:
        raise ValueError("chunk_packets must be >= 1, got %d" % chunk_packets)
    if obs is None:
        obs = NULL_OBS
    if isinstance(source, str):
        with open(source, "rb") as stream:
            yield from iter_pcap(stream, chunk_packets=chunk_packets, obs=obs)
        return

    head = _read_exactly(source, _GLOBAL_HEADER.size)
    record_hdr, swapped = _parse_global_header(head)
    builder = _ChunkBuilder(chunk_packets, obs)

    payload = _map_payload(source)
    try:
        for columns in iter_decoded_columns(payload, swapped=swapped):
            for chunk in builder.push(columns):
                yield chunk
    except FastpathUnsupported as demoted:
        resume = demoted.resume_offset
    else:
        for chunk in builder.finish():
            yield chunk
        return
    # Re-parse the unverified tail with the reference loop; no records
    # past `resume` were emitted, so this cannot duplicate.  A batch is
    # pushed as soon as it completes the builder's pending chunk, so
    # chunks are emitted at the same record as a reference-only parse
    # and a later record error cuts the output at the same chunk.
    tail = payload[resume:]
    source = io.BytesIO(tail.tobytes() if isinstance(tail, np.ndarray) else tail)

    batch: List[_Record] = []
    for record in _iter_records(source, record_hdr, builder.pushed):
        batch.append(record)
        if (builder.pushed + len(batch)) % chunk_packets == 0:
            for chunk in builder.push(_columns_from_records(batch)):
                yield chunk
            batch = []
    if batch:
        for chunk in builder.push(_columns_from_records(batch)):
            yield chunk
    for chunk in builder.finish():
        yield chunk


def read_pcap(source: Union[str, BinaryIO]) -> Trace:
    """Read a classic pcap file into a single :class:`Trace`.

    A convenience over :func:`iter_pcap` for captures that fit in
    memory; see there for format support, decoding, and error behavior.
    """
    return Trace.concat(list(iter_pcap(source, chunk_packets=1 << 62)))
