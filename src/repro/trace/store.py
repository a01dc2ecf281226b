"""Vectorized pcap codec and memory-mapped columnar trace store.

Ingest was the last per-packet pure-Python loop in the system: the
reference reader in :mod:`repro.trace.pcap` struct-unpacks one record
at a time.  This module gives it the fastpath treatment, twice over:

**Codec.**  :func:`iter_decoded_columns` block-scans the raw record
payload for candidate record starts (the ``0x45`` IPv4 version/IHL
byte sits 16 bytes after every record header), links candidates into a
record chain by ``incl_len``, and keeps exactly the candidates
reachable from the stream start — the chain walk from a true root can
only visit true records, so no per-candidate filtering is needed.  The
surviving chain is then *verified exactly* — offsets must tile the
buffer with no gaps or overlaps — before columns are decoded with
phase-grouped ``u32`` gathers.  Every shortcut is speculative: a miss
can only demote the stream to the per-packet reference loop (via
:class:`FastpathUnsupported`), never change the output.  The reader
and the mirrored vectorized writer (:func:`encode_trace`) are pinned
bit-identical to the reference implementations by the differential
test battery.

**Store.**  :class:`TraceStore` persists each decoded column as a raw
little-endian array beside a schema-versioned JSON manifest, keyed by
a digest of the source path.  Entries are written atomically (tmp +
rename, manifest last) and loaded back as read-only :class:`numpy.memmap`
views, so a warm hit costs no parsing and near-zero copies; corrupt or
torn entries read as misses and are rebuilt.
"""

import hashlib
import json
import os
import shutil
import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.obs.instrument import NULL_OBS
from repro.trace.packet import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP
from repro.trace.trace import TRACE_COLUMNS, Trace

__all__ = [
    "DEFAULT_BLOCK_BYTES",
    "FastpathUnsupported",
    "TraceStore",
    "encode_trace",
    "iter_decoded_columns",
]

#: Bytes of record payload scanned per vectorized block: large enough
#: to amortize the candidate scan, small enough that a block's
#: temporaries stay cache-resident between pipeline stages.
DEFAULT_BLOCK_BYTES = 1 << 22

#: Smallest well-formed record: 16-byte pcap record header plus the
#: 20-byte IPv4 header the reference reader insists on.
_MIN_RECORD = 36

#: Candidate-density ceiling, as a divisor of the block span.  Real
#: records are at least ``_MIN_RECORD`` bytes apart, so a span holds at
#: most span/36 of them; a payload dense in stray ``0x45`` bytes would
#: cost more in candidate machinery than the fastpath saves, so it
#: falls back to the reference loop instead.
_MAX_CAND_DIV = 12

# Wire constants mirroring repro.trace.pcap (kept local to avoid an
# import cycle; the byte-identity tests pin the two in agreement).
_PCAP_MAGIC = 0xA1B2C3D4
_LINKTYPE_RAW = 101
_GLOBAL_HEADER = struct.Struct("<IHHiIII")

_ColumnTuple = Tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray
]

#: Trace columns in storage order with their on-disk (explicitly
#: little-endian) dtype strings: ``<i8``, ``<i4``, ``|u1``, ``<u2``.
#: These match ``Trace``'s in-memory dtypes on every supported
#: platform, and every cache manifest records them.
_STORE_COLUMNS: Tuple[Tuple[str, str], ...] = tuple(
    (name, dtype.newbyteorder("<").str) for name, dtype in TRACE_COLUMNS
)

_MANIFEST_NAME = "manifest.json"
_SCHEMA_VERSION = 1


class FastpathUnsupported(Exception):
    """Speculative vectorized decode could not verify the stream.

    ``resume_offset`` is the byte offset into the record payload (the
    bytes after the 24-byte global header) from which no records have
    been emitted yet; the caller re-parses from there with the
    per-packet reference loop so both output and error behavior stay
    bit-identical to the reference reader.
    """

    def __init__(self, reason: str, resume_offset: int) -> None:
        super().__init__(reason)
        self.resume_offset = resume_offset


# ----------------------------------------------------------------------
# vectorized decoder
# ----------------------------------------------------------------------


def _phase_views(data: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Four little-endian ``u32`` views of ``data``, one per alignment
    phase, so any byte offset can be read as a word gather."""
    nb = int(data.size)
    views = []
    for g in range(4):
        words = (nb - g) >> 2
        views.append(data[g : g + 4 * words].view("<u4"))
    return tuple(views)


def _block_offsets(
    data: np.ndarray,
    views: Tuple[np.ndarray, ...],
    cursor: int,
    end: int,
    n_bytes: int,
    swapped: bool,
    scratch: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Record offsets and captured lengths for one scan block.

    Returns the verified, gap-free chain of records starting exactly at
    ``cursor``; raises :class:`FastpathUnsupported` when the chain
    cannot be established (the caller falls back to the reference loop
    from ``cursor``).
    """
    # Candidate starts: positions whose IPv4 version/IHL byte (record
    # offset +16) reads exactly 0x45.  IP options (0x46..0x4F) are
    # legal but the reference reader parses ports at a fixed offset
    # that assumes IHL=5 anyway, so such streams just take the
    # reference loop.
    limit = min(end, n_bytes - _MIN_RECORD + 1)
    span = limit - cursor
    if span <= 0:
        raise FastpathUnsupported("no verifiable record at block start", cursor)
    mask = scratch[:span]
    np.equal(data[cursor + 16 : limit + 16], np.uint8(0x45), out=mask)
    cand = np.flatnonzero(mask)
    if cand.size == 0 or int(cand[0]) != 0:
        raise FastpathUnsupported("no verifiable record at block start", cursor)
    if int(cand.size) > span // _MAX_CAND_DIV + 64:
        raise FastpathUnsupported("candidate density too high", cursor)
    cand += cursor

    # Captured length: one phase-grouped u32 gather of the incl_len
    # word at record offset +8 (see _decode_block for the technique).
    m = int(cand.size)
    incl_u = np.empty(m, dtype=np.uint32)
    phase = cand & 3
    for g in range(4):
        sel = np.flatnonzero(phase == g)
        if sel.size:
            incl_u[sel] = views[g][((cand[sel] - g) >> 2) + 2]
    if swapped:
        incl_u = incl_u.byteswap()
    incl = incl_u.astype(np.int64)
    nxt = cand + 16 + incl

    # Liveness: a candidate is real iff it is reachable from the block
    # start by following incl_len links; a walk rooted at a true record
    # can only visit true records, so reachability alone separates
    # records from payload false positives.  Collapse maximal runs of
    # adjacent links (nxt[i] == cand[i+1], the common case) into single
    # nodes of a quotient graph, then walk the quotient's orbit from
    # the root by pointer doubling: each round squares the stride, so
    # arbitrarily long false-positive "shadow chains" cost O(m log m),
    # never one round per node.
    chained = np.empty(m, dtype=bool)
    np.equal(nxt[: m - 1], cand[1:], out=chained[: m - 1])
    chained[m - 1] = False
    tails = np.flatnonzero(~chained)  # last node of each run, sorted
    runs = int(tails.size)

    # Quotient successor: the jump out of a run's tail either lands
    # exactly on another candidate (entering that candidate's run at
    # that node) or falls off the chain (the sink, id == runs).
    land = np.searchsorted(cand, nxt[tails])
    hit = (cand[np.minimum(land, m - 1)] == nxt[tails]) & (land < m)
    qsucc = np.full(runs + 1, runs, dtype=np.int64)
    entry = np.full(runs, -1, dtype=np.int64)
    hs = np.flatnonzero(hit)
    qsucc[hs] = np.searchsorted(tails, land[hs])
    entry[hs] = land[hs]

    step = qsucc
    rpath = np.zeros(1, dtype=np.int64)  # visited runs, in walk order
    while True:
        nxt_r = step[rpath]
        ok = nxt_r < runs
        rpath = np.concatenate([rpath, nxt_r[ok]])
        if not bool(ok.all()) or rpath.size > runs:
            break
        step = step[step]
    if rpath.size > runs:
        raise FastpathUnsupported("record chain does not terminate", cursor)

    # Expand visited runs back to node intervals [entry, tail].  rpath
    # is in walk order and record offsets strictly increase, so each
    # visited run's entry node is the landing point of its
    # predecessor's jump and the intervals are disjoint: mark interval
    # edges and a running sum recovers the membership mask.
    entries = np.empty(rpath.size, dtype=np.int64)
    entries[0] = 0
    entries[1:] = entry[rpath[:-1]]
    mark = np.zeros(m + 1, dtype=np.int8)
    np.add.at(mark, entries, 1)
    np.add.at(mark, tails[rpath] + 1, -1)
    alive = np.flatnonzero(np.cumsum(mark[:m], dtype=np.int8) > 0)

    offs = cand[alive]
    ends = nxt[alive]
    lens = incl[alive]

    # Accept the prefix of records whose bytes lie fully inside the
    # buffer; a straddling survivor belongs to a later block (or, at
    # EOF, to the reference loop's truncation diagnostics).
    over = np.flatnonzero(ends > n_bytes)
    cut = int(over[0]) if over.size else int(offs.size)
    if cut == 0:
        raise FastpathUnsupported("record exceeds capture buffer", cursor)
    offs = offs[:cut]
    ends = ends[:cut]
    lens = lens[:cut]

    # Exact-chain verification: the accepted records must tile the
    # region from the block start with no gaps or overlaps.  Everything
    # upstream was speculation; this is the proof.
    if not np.array_equal(ends[:-1], offs[1:]):
        raise FastpathUnsupported("record chain is inconsistent", cursor)
    if int(lens.min()) < 20:
        # The reference loop raises "below IP header" for this record.
        raise FastpathUnsupported("captured length below IP header", cursor)
    return offs, lens


def _decode_block(
    data: np.ndarray,
    views: Tuple[np.ndarray, ...],
    offs: np.ndarray,
    lens: np.ndarray,
    swapped: bool,
    resume: int,
) -> _ColumnTuple:
    """Decode verified records at ``offs`` into the seven trace columns."""
    k = int(offs.size)
    sec = np.empty(k, dtype=np.uint32)
    usec = np.empty(k, dtype=np.uint32)
    orig = np.empty(k, dtype=np.uint32)
    srcw = np.empty(k, dtype=np.uint32)
    dstw = np.empty(k, dtype=np.uint32)
    prtw = np.empty(k, dtype=np.uint32)

    # Record offsets have arbitrary parity, but every needed u32 field
    # sits at a 4-aligned offset *within* its record: group records by
    # offset phase and gather each field with one indexed load per
    # group from the matching phase view.
    phase = offs & 3
    for g in range(4):
        sel = np.flatnonzero(phase == g)
        if sel.size == 0:
            continue
        base = (offs[sel] - g) >> 2
        vg = views[g]
        sec[sel] = vg[base]
        usec[sel] = vg[base + 1]
        orig[sel] = vg[base + 3]
        srcw[sel] = vg[base + 7]
        dstw[sel] = vg[base + 8]
        # The transport word (+36..+39) is the only gather that can poke
        # past the buffer, and only on a final record with incl < 24 —
        # which is portless, so its (clamped, garbage) word is zeroed by
        # the portless mask below anyway.
        prtw[sel] = vg[np.minimum(base + 9, vg.size - 1)]
    if swapped:
        sec = sec.byteswap()
        usec = usec.byteswap()
        orig = orig.byteswap()
    if k and int(orig.max()) > 0x7FFFFFFF:
        # The reference path would overflow int32 conversion; let it
        # produce whatever diagnostic it produces.
        raise FastpathUnsupported("original length exceeds int32", resume)
    if k and int(usec.max()) >= 1_000_000:
        # The reference loop names the record whose field is out of range.
        raise FastpathUnsupported("microsecond field out of range", resume)

    timestamps = sec.astype(np.int64) * 1_000_000 + usec
    sizes = orig.astype(np.int32)
    protocols = data[offs + 25]
    # IP addresses and ports are big-endian on the wire regardless of
    # the capture byte order.
    src_nets = (srcw.byteswap() >> np.uint32(16)).astype(np.uint16)
    dst_nets = (dstw.byteswap() >> np.uint32(16)).astype(np.uint16)
    ports = prtw.byteswap()
    src_ports = (ports >> np.uint32(16)).astype(np.uint16)
    dst_ports = (ports & np.uint32(0xFFFF)).astype(np.uint16)
    # Ports only exist for TCP/UDP records that captured at least the
    # first transport word; everything else reads as 0, matching the
    # reference loop (the gathered words there are padding/garbage).
    portless = np.flatnonzero(
        ~(((protocols == IPPROTO_TCP) | (protocols == IPPROTO_UDP)) & (lens >= 24))
    )
    src_ports[portless] = 0
    dst_ports[portless] = 0
    return timestamps, sizes, protocols, src_nets, dst_nets, src_ports, dst_ports


def iter_decoded_columns(
    payload: Union[bytes, np.ndarray],
    swapped: bool,
    block_bytes: Optional[int] = None,
) -> Iterator[_ColumnTuple]:
    """Yield decoded column tuples for a pcap record payload, block by
    block.

    ``payload`` is everything after the 24-byte global header, as bytes
    or a ``uint8`` array (e.g. a memory map) — neither is copied;
    ``swapped`` selects big-endian record headers.  Raises
    :class:`FastpathUnsupported` (with the resume offset) as soon as
    any block cannot be verified; records already yielded are exact.
    """
    block = DEFAULT_BLOCK_BYTES if block_bytes is None else max(block_bytes, _MIN_RECORD)
    if isinstance(payload, np.ndarray):
        data = payload.reshape(-1).view(np.uint8)
    else:
        data = np.frombuffer(payload, dtype=np.uint8)
    n = int(data.size)
    if n == 0:
        return
    views = _phase_views(data)
    scratch = np.empty(min(block, n), dtype=bool)
    cursor = 0
    while cursor < n:
        end = min(cursor + block, n)
        offs, lens = _block_offsets(data, views, cursor, end, n, swapped, scratch)
        yield _decode_block(data, views, offs, lens, swapped, cursor)
        cursor = int(offs[-1] + 16 + lens[-1])


# ----------------------------------------------------------------------
# vectorized encoder
# ----------------------------------------------------------------------


def _scatter_u16be(out: np.ndarray, at: np.ndarray, values: np.ndarray) -> None:
    out[at] = (values >> 8) & 0xFF
    out[at + 1] = values & 0xFF


def encode_trace(trace: Trace, snaplen: int) -> Optional[bytes]:
    """Serialize ``trace`` to classic pcap bytes, vectorized.

    Returns ``None`` when any field falls outside the reference
    writer's struct ranges (negative or 32-bit-overflowing timestamps,
    sizes outside the IPv4 total-length field); the caller then runs
    the per-record reference loop, which raises the exact historical
    error.  Output is byte-identical to the reference writer.
    """
    n = len(trace)
    ts = trace.timestamps_us.astype(np.int64, copy=False)
    sizes = trace.sizes.astype(np.int64)
    if n:
        if int(ts.min()) < 0 or int(ts.max()) // 1_000_000 > 0xFFFFFFFF:
            return None
        if int(sizes.min()) < 0 or int(sizes.max()) > 0xFFFF:
            return None
    proto = trace.protocols.astype(np.int64)
    net_s = trace.src_nets.astype(np.int64)
    net_d = trace.dst_nets.astype(np.int64)
    sp = trace.src_ports.astype(np.int64)
    dp = trace.dst_ports.astype(np.int64)

    # Captured length: IP header + transport header, padded out to
    # min(size, snaplen) — the exact arithmetic of the reference's
    # _build_packet_bytes (snaplen >= 40 guarantees headers fit).
    thl = np.zeros(n, dtype=np.int64)
    thl[proto == IPPROTO_TCP] = 20
    thl[(proto == IPPROTO_UDP) | (proto == IPPROTO_ICMP)] = 8
    cap = np.maximum(20 + thl, np.minimum(sizes, snaplen))

    rec = 16 + cap
    starts = np.empty(n, dtype=np.int64)
    if n:
        starts[0] = 0
        np.cumsum(rec[:-1], out=starts[1:])
        starts += 24
    total = 24 + int(rec.sum())
    out = np.zeros(total, dtype=np.uint8)
    out[:24] = np.frombuffer(
        _GLOBAL_HEADER.pack(_PCAP_MAGIC, 2, 4, 0, 0, snaplen, _LINKTYPE_RAW),
        dtype=np.uint8,
    )
    if not n:
        return out.tobytes()

    # Record header (little-endian u32s).
    sec = ts // 1_000_000
    usec = ts % 1_000_000
    for off, vals in ((0, sec), (4, usec), (8, cap), (12, sizes)):
        out[starts + off] = vals & 0xFF
        out[starts + off + 1] = (vals >> 8) & 0xFF
        out[starts + off + 2] = (vals >> 16) & 0xFF
        out[starts + off + 3] = (vals >> 24) & 0xFF

    # IPv4 header: version/IHL 0x45, TTL 64, host part of each address
    # fixed at 1; identification, flags, and TOS are zero (the buffer
    # is zero-initialized, so only nonzero bytes are scattered).
    out[starts + 16] = 0x45
    _scatter_u16be(out, starts + 18, sizes)
    out[starts + 24] = 64
    out[starts + 25] = proto
    # RFC 1071 checksum over the ten header words; the maximum possible
    # sum fits after two folds.
    csum = 0x4500 + sizes + 0x4000 + proto + net_s + 1 + net_d + 1
    csum = (csum & 0xFFFF) + (csum >> 16)
    csum = (csum & 0xFFFF) + (csum >> 16)
    csum = ~csum & 0xFFFF
    _scatter_u16be(out, starts + 26, csum)
    _scatter_u16be(out, starts + 28, net_s)
    out[starts + 31] = 1
    _scatter_u16be(out, starts + 32, net_d)
    out[starts + 35] = 1

    # Transport headers at record offset 36.
    tcp = np.flatnonzero(proto == IPPROTO_TCP)
    if tcp.size:
        at = starts[tcp]
        _scatter_u16be(out, at + 36, sp[tcp])
        _scatter_u16be(out, at + 38, dp[tcp])
        out[at + 48] = 0x50  # data offset 5 words
        out[at + 49] = 0x10  # ACK flag
        out[at + 50] = 0x20  # window 8192, high byte
    udp = np.flatnonzero(proto == IPPROTO_UDP)
    if udp.size:
        at = starts[udp]
        _scatter_u16be(out, at + 36, sp[udp])
        _scatter_u16be(out, at + 38, dp[udp])
        _scatter_u16be(out, at + 40, np.maximum(8, sizes[udp] - 20))
    icmp = np.flatnonzero(proto == IPPROTO_ICMP)
    if icmp.size:
        out[starts[icmp] + 36] = 8  # echo request type
    return out.tobytes()


# ----------------------------------------------------------------------
# on-disk columnar store
# ----------------------------------------------------------------------


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        while True:
            block = stream.read(1 << 20)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


class TraceStore:
    """Content-addressed, memory-mapped cache of decoded traces.

    Each source capture gets one entry directory under ``root``, named
    by a digest of the absolute source path.  The entry holds one raw
    little-endian binary file per trace column plus ``manifest.json``
    (schema version, source size/mtime/sha256, per-column dtype, count,
    and digest).  Columns are written to temporary files and renamed
    into place with the manifest last, so a torn build always reads as
    a cache miss — never as wrong data.

    :meth:`load` validates the manifest structurally (schema, source
    size + mtime_ns, column file sizes) and maps columns read-only; the
    full content digests are only rechecked by :meth:`verify`.  Mapped
    columns stay valid for the lifetime of the arrays viewing them —
    the OS keeps the mapping alive even if the entry is cleared, but a
    rebuilt entry is a *new* file, so long-lived traces never observe
    mutation.

    ``obs`` takes an :class:`~repro.obs.instrument.Instrumentation`;
    hits, misses, and bytes served from cache are counted as
    ``trace_cache_hit`` / ``trace_cache_miss`` / ``trace_cache_bytes``.
    """

    def __init__(self, root: Union[str, "os.PathLike[str]"], obs: Any = NULL_OBS) -> None:
        self.root = os.fspath(root)
        self.obs = obs

    def entry_dir(self, source: str) -> str:
        """The cache entry directory for ``source`` (may not exist)."""
        key = hashlib.sha256(os.path.abspath(source).encode("utf-8")).hexdigest()[:16]
        return os.path.join(self.root, key)

    # -- read side -----------------------------------------------------

    def load(self, source: str) -> Optional[Trace]:
        """Map the cached columns for ``source``, or ``None`` on miss.

        Any defect — missing or unparseable manifest, schema mismatch,
        source size/mtime drift, short column files — reads as a miss.
        """
        entry = self.entry_dir(source)
        manifest = self._read_manifest(entry)
        if manifest is None:
            return None
        try:
            stat = os.stat(source)
        except OSError:
            return None
        if manifest.get("source_size") != int(stat.st_size):
            return None
        if manifest.get("source_mtime_ns") != int(stat.st_mtime_ns):
            return None
        trace = self._map_columns(entry, manifest)
        if trace is None:
            return None
        self.obs.counter("trace_cache_hit").inc()
        self.obs.counter("trace_cache_bytes").inc(
            sum(getattr(trace, name).nbytes for name, _ in _STORE_COLUMNS)
        )
        return trace

    def load_or_build(self, source: str) -> Trace:
        """Return the cached trace, building the entry on a miss."""
        trace = self.load(source)
        if trace is not None:
            return trace
        self.obs.counter("trace_cache_miss").inc()
        return self.build(source)

    # -- write side ----------------------------------------------------

    def build(self, source: str) -> Trace:
        """Decode ``source`` and (re)write its cache entry.

        Returns the freshly mapped trace (memmap-backed), so a build
        immediately behaves like a hit for downstream consumers.
        """
        from repro.trace.pcap import read_pcap  # deferred: import cycle

        trace = read_pcap(source)
        stat = os.stat(source)
        entry = self.entry_dir(source)
        os.makedirs(entry, exist_ok=True)
        manifest_path = os.path.join(entry, _MANIFEST_NAME)
        # Drop the old manifest first: if this build tears partway, the
        # entry must read as a miss, never as stale metadata over a
        # mixed set of column files.
        try:
            os.unlink(manifest_path)
        except OSError:
            pass
        token = ".tmp-%d" % os.getpid()
        columns: Dict[str, Dict[str, Any]] = {}
        for name, dtype_str in _STORE_COLUMNS:
            array = np.ascontiguousarray(getattr(trace, name), dtype=np.dtype(dtype_str))
            filename = name + ".bin"
            tmp_path = os.path.join(entry, filename + token)
            array.tofile(tmp_path)
            os.replace(tmp_path, os.path.join(entry, filename))
            columns[name] = {
                "file": filename,
                "dtype": dtype_str,
                "count": int(array.size),
                "sha256": hashlib.sha256(array.tobytes()).hexdigest(),
            }
        manifest: Dict[str, Any] = {
            "schema": _SCHEMA_VERSION,
            "source_path": os.path.abspath(source),
            "source_size": int(stat.st_size),
            "source_mtime_ns": int(stat.st_mtime_ns),
            "source_sha256": _file_sha256(source),
            "n_packets": len(trace),
            "columns": columns,
        }
        tmp_manifest = manifest_path + token
        with open(tmp_manifest, "w") as stream:
            json.dump(manifest, stream, indent=2, sort_keys=True)
            stream.write("\n")
        os.replace(tmp_manifest, manifest_path)
        mapped = self._map_columns(entry, manifest)
        return mapped if mapped is not None else trace

    # -- maintenance ---------------------------------------------------

    def info(self, source: str) -> Optional[Dict[str, Any]]:
        """The manifest for ``source`` plus its entry path, or ``None``."""
        entry = self.entry_dir(source)
        manifest = self._read_manifest(entry)
        if manifest is None:
            return None
        manifest = dict(manifest)
        manifest["entry_dir"] = entry
        return manifest

    def verify(self, source: str) -> List[str]:
        """Recheck the full content digests of an entry.

        Returns a list of problems (empty means the entry is intact and
        still matches the source file, byte for byte).
        """
        entry = self.entry_dir(source)
        manifest = self._read_manifest(entry)
        if manifest is None:
            return ["no cache entry (or unreadable manifest) at %s" % entry]
        problems: List[str] = []
        try:
            if _file_sha256(source) != manifest.get("source_sha256"):
                problems.append("source file digest changed: %s" % source)
        except OSError as exc:
            problems.append("source file unreadable: %s" % exc)
        columns = manifest.get("columns")
        if not isinstance(columns, dict):
            return problems + ["manifest has no column table"]
        for name, dtype_str in _STORE_COLUMNS:
            meta = columns.get(name)
            if not isinstance(meta, dict):
                problems.append("column %s missing from manifest" % name)
                continue
            path = os.path.join(entry, str(meta.get("file")))
            try:
                if _file_sha256(path) != meta.get("sha256"):
                    problems.append("column %s digest mismatch" % name)
            except OSError:
                problems.append("column %s file missing" % name)
        return problems

    def clear(self, source: Optional[str] = None) -> int:
        """Remove one entry (or every entry); returns entries removed."""
        if source is not None:
            entry = self.entry_dir(source)
            if not os.path.isdir(entry):
                return 0
            shutil.rmtree(entry)
            return 1
        if not os.path.isdir(self.root):
            return 0
        removed = 0
        for child in os.listdir(self.root):
            path = os.path.join(self.root, child)
            if os.path.isdir(path) and os.path.exists(
                os.path.join(path, _MANIFEST_NAME)
            ):
                shutil.rmtree(path)
                removed += 1
        return removed

    # -- internals -----------------------------------------------------

    @staticmethod
    def _read_manifest(entry: str) -> Optional[Dict[str, Any]]:
        try:
            with open(os.path.join(entry, _MANIFEST_NAME)) as stream:
                manifest = json.load(stream)
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict) or manifest.get("schema") != _SCHEMA_VERSION:
            return None
        return manifest

    @staticmethod
    def _map_columns(entry: str, manifest: Dict[str, Any]) -> Optional[Trace]:
        columns = manifest.get("columns")
        n = manifest.get("n_packets")
        if not isinstance(columns, dict) or not isinstance(n, int) or n < 0:
            return None
        arrays: Dict[str, np.ndarray] = {}
        for name, dtype_str in _STORE_COLUMNS:
            meta = columns.get(name)
            if not isinstance(meta, dict):
                return None
            dtype = np.dtype(dtype_str)
            path = os.path.join(entry, str(meta.get("file")))
            try:
                if os.path.getsize(path) != n * dtype.itemsize:
                    return None
                if n:
                    arrays[name] = np.memmap(path, dtype=dtype, mode="r", shape=(n,))
                else:
                    arrays[name] = np.empty(0, dtype=dtype)
            except (OSError, ValueError):
                return None
        try:
            return Trace(**arrays)
        except ValueError:
            return None
