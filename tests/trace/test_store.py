"""Vectorized pcap codec + columnar trace store (repro.trace.store).

The vectorized decoder and writer are pinned bit-identical to the
per-packet reference loop on every edge the reference handles: both
byte orders, truncated-snaplen captures, torn final records, empty
captures, and arbitrary chunk/block boundary placements.  The
TraceStore cache must behave like a pure function of the source file:
any defect — torn build, corrupt column, schema drift, source mutation
— reads as a miss and a rebuild, never as wrong data.
"""

import io
import json
import os
import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.instrument import Instrumentation
from repro.trace import store
from repro.trace.pcap import (
    LINKTYPE_RAW,
    PCAP_MAGIC,
    PcapError,
    iter_pcap,
    read_pcap,
    write_pcap,
)
from repro.trace.store import (
    FastpathUnsupported,
    TraceStore,
    iter_decoded_columns,
)
from repro.trace.trace import Trace
from repro.workload.generator import nsfnet_hour_trace


@pytest.fixture(params=["on", "off"])
def codec(request, per_packet):
    """The codec a ``both_paths`` test runs on: the vectorized one
    ("on"), or both directions forced onto the per-record reference
    ("off") through the codec's own fallback seams."""
    stages = ("decode", "encode") if request.param == "off" else ()
    with per_packet(*stages):
        yield


both_paths = pytest.mark.usefixtures("codec")

#: The default decoder, then the per-record reference it falls back to.
DECODERS = ((), ("decode",))


def pcap_bytes(trace: Trace, **kwargs) -> bytes:
    buffer = io.BytesIO()
    write_pcap(trace, buffer, **kwargs)
    return buffer.getvalue()


def as_big_endian(raw: bytes) -> bytes:
    """Re-serialize a little-endian pcap with big-endian headers."""
    fields = struct.unpack("<IHHiIII", raw[:24])
    out = struct.pack(">IHHiIII", *fields)
    offset = 24
    while offset < len(raw):
        sec, usec, incl, orig = struct.unpack("<IIII", raw[offset : offset + 16])
        out += struct.pack(">IIII", sec, usec, incl, orig)
        out += raw[offset + 16 : offset + 16 + incl]
        offset += 16 + incl
    return out


class TestCodecIdentity:
    """The block-scan decoder against the per-packet reference."""

    @both_paths
    def test_tiny_trace(self, tiny_trace):
        data = pcap_bytes(tiny_trace)
        assert read_pcap(io.BytesIO(data)) == tiny_trace

    @both_paths
    def test_synthetic_subset(self, minute_trace):
        subset = minute_trace.slice_packets(0, 3000)
        data = pcap_bytes(subset)
        assert read_pcap(io.BytesIO(data)) == subset

    @both_paths
    def test_big_endian_magic(self, minute_trace):
        subset = minute_trace.slice_packets(0, 500)
        data = as_big_endian(pcap_bytes(subset))
        assert read_pcap(io.BytesIO(data)) == subset

    @both_paths
    def test_truncated_snaplen_capture(self, minute_trace):
        # snaplen=64 clips most payloads; original sizes must survive.
        subset = minute_trace.slice_packets(0, 500)
        data = pcap_bytes(subset, snaplen=64)
        assert read_pcap(io.BytesIO(data)) == subset

    @both_paths
    def test_empty_capture(self):
        data = pcap_bytes(Trace.empty())
        assert read_pcap(io.BytesIO(data)) == Trace.empty()

    @both_paths
    def test_file_path_input(self, tmp_path, tiny_trace):
        # The fast path memory-maps real files; identity must hold there.
        path = str(tmp_path / "t.pcap")
        write_pcap(tiny_trace, path)
        assert read_pcap(path) == tiny_trace

    def test_torn_final_record_error_parity(self, tiny_trace, per_packet):
        clipped = pcap_bytes(tiny_trace)[:-5]
        errors = []
        for stages in DECODERS:
            with per_packet(*stages), pytest.raises(PcapError) as excinfo:
                read_pcap(io.BytesIO(clipped))
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        assert "truncated" in errors[0]

    def test_torn_final_record_error_parity_on_path(
        self, tmp_path, tiny_trace, per_packet
    ):
        path = str(tmp_path / "torn.pcap")
        with open(path, "wb") as stream:
            stream.write(pcap_bytes(tiny_trace)[:-5])
        errors = []
        for stages in DECODERS:
            with per_packet(*stages), pytest.raises(PcapError) as excinfo:
                read_pcap(path)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_torn_stream_delivers_complete_chunks_first(self, tiny_trace):
        clipped = pcap_bytes(tiny_trace)[:-5]
        delivered = []
        with pytest.raises(PcapError):
            for chunk in iter_pcap(io.BytesIO(clipped), chunk_packets=3):
                delivered.append(chunk)
        assert Trace.concat(delivered) == tiny_trace.slice_packets(0, 9)

    def test_non_ipv4_error_parity(self, per_packet):
        head = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 64, LINKTYPE_RAW)
        payload = b"\x60" + b"\x00" * 19  # IPv6 version nibble
        data = head + struct.pack("<IIII", 0, 0, len(payload), 40) + payload
        for stages in DECODERS:
            with per_packet(*stages), pytest.raises(PcapError, match="non-IPv4"):
                read_pcap(io.BytesIO(data))

    def test_below_ip_header_error_parity(self, per_packet):
        head = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 64, LINKTYPE_RAW)
        data = head + struct.pack("<IIII", 0, 0, 8, 40) + b"\x45" + b"\x00" * 7
        for stages in DECODERS:
            with per_packet(*stages), pytest.raises(
                PcapError, match="below IP header"
            ):
                read_pcap(io.BytesIO(data))

    @pytest.mark.parametrize(
        "chunk_packets", [4, 10, 1 << 62], ids=["in-chunk", "seam", "whole"]
    )
    def test_out_of_order_record_error_parity(
        self, chunk_packets, tiny_trace, per_packet
    ):
        # Record 10 repeats record 0, so time goes backwards there:
        # inside a chunk, at a chunk seam, and in a whole-file read.
        raw = pcap_bytes(tiny_trace)
        first_record = raw[24 : 24 + 16 + struct.unpack_from("<I", raw, 32)[0]]
        errors = []
        for stages in DECODERS:
            with per_packet(*stages), pytest.raises(PcapError) as excinfo:
                list(
                    iter_pcap(
                        io.BytesIO(raw + first_record),
                        chunk_packets=chunk_packets,
                    )
                )
            errors.append(str(excinfo.value))
        assert errors == [
            "time goes backwards at record index 10: 0 us after 7200 us"
        ] * 2

    @pytest.mark.parametrize("where", ["first", "mid", "seam"])
    def test_microsecond_overflow_error_parity(
        self, where, tiny_trace, monkeypatch, per_packet
    ):
        # A microsecond field >= 10**6 is malformed: both decoders name
        # the record carrying it (not its successor, which would seem to
        # go back in time) — as the first record, mid-file, and as the
        # first record of a later vectorized block.
        raw = bytearray(pcap_bytes(tiny_trace))
        offsets = [24]
        for _ in range(len(tiny_trace) - 1):
            incl = struct.unpack_from("<I", raw, offsets[-1] + 8)[0]
            offsets.append(offsets[-1] + 16 + incl)
        if where == "seam":
            monkeypatch.setattr("repro.trace.store.DEFAULT_BLOCK_BYTES", 200)
            blocks = iter_decoded_columns(bytes(raw[24:]), False)
            index = len(next(blocks)[0])
            assert 0 < index < len(tiny_trace)
        else:
            index = {"first": 0, "mid": 5}[where]
        struct.pack_into("<I", raw, offsets[index] + 4, 1_500_000)
        errors = []
        for stages in DECODERS:
            with per_packet(*stages), pytest.raises(PcapError) as excinfo:
                read_pcap(io.BytesIO(bytes(raw)))
            errors.append(str(excinfo.value))
        assert errors == [
            "microsecond field out of range at record index %d: 1500000"
            % index
        ] * 2

    @settings(max_examples=30, deadline=None)
    @given(chunk_packets=st.integers(min_value=1, max_value=60))
    def test_chunking_invariance(self, chunk_packets, minute_trace, per_packet):
        # Decoder parity with the reference at arbitrary chunk sizes:
        # the chunk seams must land in the same places with the same
        # contents no matter which decoder fills them.
        subset = minute_trace.slice_packets(0, 400)
        data = pcap_bytes(subset)
        fast = list(iter_pcap(io.BytesIO(data), chunk_packets=chunk_packets))
        with per_packet("decode"):
            ref = list(iter_pcap(io.BytesIO(data), chunk_packets=chunk_packets))
        assert len(fast) == len(ref)
        for got, want in zip(fast, ref):
            assert got == want


#: One damage to a capture's records, as ``(kind, where, value)``: XOR
#: a byte with ``value``, plant a 0x45 byte (a false IPv4 header start
#: for the chain walk), rewrite a record's ``incl_len`` word to
#: ``value``, or cut the file.  ``where`` is taken modulo the record
#: bytes or the records; the global header stays intact.
MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255)),
    st.tuples(st.just("plant"), st.integers(0, 1 << 20), st.just(0x45)),
    st.tuples(
        st.just("incl_len"),
        st.integers(0, 1 << 20),
        st.one_of(st.integers(0, 200), st.integers(0, (1 << 32) - 1)),
    ),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 20), st.just(0)),
)


def mutate(raw: bytes, mutations) -> bytes:
    """``raw`` (a little-endian capture) with ``mutations`` applied."""
    offsets = [24]
    while offsets[-1] < len(raw):
        offsets.append(offsets[-1] + 16 + struct.unpack_from("<I", raw, offsets[-1] + 8)[0])
    records = offsets[:-1]
    data = bytearray(raw)
    for kind, where, value in mutations:
        if kind == "incl_len":
            at = records[where % len(records)] + 8
            if at + 4 <= len(data):
                struct.pack_into("<I", data, at, value)
        elif len(data) == 24:
            continue
        elif kind == "truncate":
            del data[24 + where % (len(data) - 24) :]
        else:
            position = 24 + where % (len(data) - 24)
            data[position] = data[position] ^ value if kind == "flip" else value
    return bytes(data)


def decode_outcome(data: bytes):
    """The 64-packet chunks a decode delivers, then the type and message
    of its error (``None`` when it reads to the end)."""
    chunks = []
    try:
        for chunk in iter_pcap(io.BytesIO(data), chunk_packets=64):
            chunks.append(chunk)
    except Exception as error:
        return chunks, (type(error), str(error))
    return chunks, None


@pytest.fixture(scope="module")
def second_capture() -> bytes:
    """One synthetic second (~400 records) as a little-endian pcap."""
    return pcap_bytes(nsfnet_hour_trace(seed=23, duration_s=1))


class TestChainWalkProperty:
    """The block scan's chain walk on damaged captures, at any block
    size, against the per-record reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        mutations=st.lists(MUTATION, min_size=1, max_size=4),
        block_bytes=st.integers(min_value=17, max_value=3000),
    )
    def test_mutated_capture_decodes_like_reference(
        self, second_capture, per_packet, mutations, block_bytes
    ):
        data = mutate(second_capture, mutations)
        with per_packet("decode"):
            expected = decode_outcome(data)
        with mock.patch.object(store, "DEFAULT_BLOCK_BYTES", block_bytes):
            assert decode_outcome(data) == expected


class TestBlockBoundaries:
    """iter_decoded_columns must be invariant to block placement."""

    def column_concat(self, blocks):
        return [np.concatenate(cols) for cols in zip(*blocks)]

    def test_tiny_blocks_match_single_block(self, minute_trace):
        subset = minute_trace.slice_packets(0, 800)
        payload = pcap_bytes(subset)[24:]
        whole = self.column_concat(list(iter_decoded_columns(payload, False)))
        # 64-byte blocks put a boundary inside nearly every record.
        split = self.column_concat(
            list(iter_decoded_columns(payload, False, block_bytes=64))
        )
        for got, want in zip(split, whole):
            np.testing.assert_array_equal(got, want)

    def test_every_column_matches_reference(self, tiny_trace):
        payload = pcap_bytes(tiny_trace)[24:]
        cols = self.column_concat(list(iter_decoded_columns(payload, False)))
        names = ("timestamps_us", "sizes", "protocols", "src_nets",
                 "dst_nets", "src_ports", "dst_ports")
        for name, got in zip(names, cols):
            np.testing.assert_array_equal(
                got, getattr(tiny_trace, name), err_msg=name
            )

    def test_ndarray_payload_accepted(self, tiny_trace):
        payload = np.frombuffer(pcap_bytes(tiny_trace)[24:], dtype=np.uint8)
        cols = self.column_concat(list(iter_decoded_columns(payload, False)))
        np.testing.assert_array_equal(cols[0], tiny_trace.timestamps_us)

    def test_empty_payload_yields_nothing(self):
        assert list(iter_decoded_columns(b"", False)) == []


class TestFastpathFallback:
    """Unverifiable captures must fall back to the reference, exactly."""

    def dense_capture(self, n_packets=40, incl=120):
        """Every payload byte is 0x45: a worst case for the block scan."""
        out = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 65535, LINKTYPE_RAW)
        payload = b"\x45" * incl
        for i in range(n_packets):
            out += struct.pack("<IIII", i, 0, incl, incl) + payload
        return out

    def test_dense_payload_raises_unsupported(self):
        data = self.dense_capture()
        with pytest.raises(FastpathUnsupported, match="density"):
            list(iter_decoded_columns(data[24:], False))

    def test_dense_payload_auto_matches_reference(self, per_packet):
        data = self.dense_capture()
        with per_packet("decode"):
            reference = read_pcap(io.BytesIO(data))
        assert read_pcap(io.BytesIO(data)) == reference

    def test_unusual_ihl_midstream_matches_reference(self, tiny_trace, per_packet):
        # An IHL != 5 record breaks the verified chain mid-stream; the
        # resume handoff must keep the output identical to the
        # reference loop (which also assumes a 20-byte IP header).
        raw = bytearray(pcap_bytes(tiny_trace))
        offset = 24
        for _ in range(5):  # walk to the sixth record
            incl = struct.unpack("<I", raw[offset + 8 : offset + 12])[0]
            offset += 16 + incl
        assert raw[offset + 16] == 0x45
        raw[offset + 16] = 0x46  # version 4, IHL 6
        data = bytes(raw)
        with per_packet("decode"):
            reference = read_pcap(io.BytesIO(data))
        assert read_pcap(io.BytesIO(data)) == reference

    def test_resume_offset_is_exact(self):
        data = self.dense_capture(n_packets=3)
        with pytest.raises(FastpathUnsupported) as excinfo:
            list(iter_decoded_columns(data[24:], False))
        assert excinfo.value.resume_offset == 0

    @both_paths
    def test_bad_magic_parity(self):
        with pytest.raises(PcapError, match="magic"):
            read_pcap(io.BytesIO(b"\x00" * 24))


class TestVectorizedWriter:
    """write_pcap's vectorized encoder against the per-packet loop."""

    @both_paths
    def test_roundtrip(self, tiny_trace):
        data = pcap_bytes(tiny_trace)
        assert read_pcap(io.BytesIO(data)) == tiny_trace

    def test_byte_identity_tiny(self, tiny_trace, per_packet):
        fast = pcap_bytes(tiny_trace)
        with per_packet("encode"):
            assert pcap_bytes(tiny_trace) == fast

    def test_byte_identity_synthetic(self, minute_trace, per_packet):
        subset = minute_trace.slice_packets(0, 2000)
        fast = pcap_bytes(subset)
        with per_packet("encode"):
            assert pcap_bytes(subset) == fast

    def test_byte_identity_custom_snaplen(self, minute_trace, per_packet):
        subset = minute_trace.slice_packets(0, 500)
        fast = pcap_bytes(subset, snaplen=64)
        with per_packet("encode"):
            assert pcap_bytes(subset, snaplen=64) == fast

    def test_byte_identity_empty(self, per_packet):
        fast = pcap_bytes(Trace.empty())
        with per_packet("encode"):
            assert pcap_bytes(Trace.empty()) == fast


class TestTraceStore:
    @pytest.fixture()
    def source(self, tmp_path, minute_trace):
        subset = minute_trace.slice_packets(0, 1500)
        path = str(tmp_path / "capture.pcap")
        write_pcap(subset, path)
        return path, subset

    def test_cold_load_is_a_miss(self, tmp_path, source):
        path, _ = source
        store = TraceStore(str(tmp_path / "cache"))
        assert store.load(path) is None

    def test_build_then_hit(self, tmp_path, source):
        path, subset = source
        store = TraceStore(str(tmp_path / "cache"))
        assert store.load_or_build(path) == subset
        cached = store.load(path)
        assert cached == subset

    def test_hit_is_memmap_backed(self, tmp_path, source):
        path, _ = source
        store = TraceStore(str(tmp_path / "cache"))
        store.build(path)
        cached = store.load(path)
        base = cached.sizes
        while base is not None and not isinstance(base, np.memmap):
            base = getattr(base, "base", None)
        assert isinstance(base, np.memmap)

    def test_counters(self, tmp_path, source):
        path, _ = source
        obs = Instrumentation()
        store = TraceStore(str(tmp_path / "cache"), obs=obs)
        store.load_or_build(path)  # miss
        store.load_or_build(path)  # hit
        counters = obs.snapshot()["counters"]
        assert counters["trace_cache_miss"] == 1
        assert counters["trace_cache_hit"] == 1
        assert counters["trace_cache_bytes"] > 0

    def test_source_mtime_change_invalidates(self, tmp_path, source):
        path, _ = source
        store = TraceStore(str(tmp_path / "cache"))
        store.build(path)
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))
        assert store.load(path) is None

    def test_source_rewrite_invalidates_and_rebuilds(self, tmp_path, source):
        path, subset = source
        store = TraceStore(str(tmp_path / "cache"))
        store.build(path)
        shorter = subset.slice_packets(0, 700)
        write_pcap(shorter, path)
        assert store.load(path) is None
        assert store.load_or_build(path) == shorter

    def test_torn_column_reads_as_miss(self, tmp_path, source):
        path, subset = source
        store = TraceStore(str(tmp_path / "cache"))
        store.build(path)
        sizes_bin = os.path.join(store.entry_dir(path), "sizes.bin")
        with open(sizes_bin, "r+b") as stream:
            stream.truncate(os.path.getsize(sizes_bin) - 4)
        assert store.load(path) is None
        assert store.load_or_build(path) == subset  # rebuilt

    def test_schema_bump_reads_as_miss(self, tmp_path, source):
        path, _ = source
        store = TraceStore(str(tmp_path / "cache"))
        store.build(path)
        manifest_path = os.path.join(store.entry_dir(path), "manifest.json")
        with open(manifest_path) as stream:
            manifest = json.load(stream)
        manifest["schema"] = 999
        with open(manifest_path, "w") as stream:
            json.dump(manifest, stream)
        assert store.load(path) is None

    def test_garbage_manifest_reads_as_miss(self, tmp_path, source):
        path, _ = source
        store = TraceStore(str(tmp_path / "cache"))
        store.build(path)
        manifest_path = os.path.join(store.entry_dir(path), "manifest.json")
        with open(manifest_path, "w") as stream:
            stream.write("{ not json")
        assert store.load(path) is None

    def test_verify_clean_entry(self, tmp_path, source):
        path, _ = source
        store = TraceStore(str(tmp_path / "cache"))
        store.build(path)
        assert store.verify(path) == []

    def test_verify_catches_silent_corruption(self, tmp_path, source):
        # A same-size bit flip passes the structural load checks (by
        # design — load is cheap) but must not pass verify.
        path, _ = source
        store = TraceStore(str(tmp_path / "cache"))
        store.build(path)
        sizes_bin = os.path.join(store.entry_dir(path), "sizes.bin")
        with open(sizes_bin, "r+b") as stream:
            stream.seek(0)
            first = stream.read(1)
            stream.seek(0)
            stream.write(bytes([first[0] ^ 0xFF]))
        assert store.load(path) is not None
        problems = store.verify(path)
        assert any("sizes" in p and "digest" in p for p in problems)

    def test_verify_missing_entry(self, tmp_path, source):
        path, _ = source
        store = TraceStore(str(tmp_path / "cache"))
        problems = store.verify(path)
        assert problems and "no cache entry" in problems[0]

    def test_clear_single_entry(self, tmp_path, source):
        path, _ = source
        store = TraceStore(str(tmp_path / "cache"))
        store.build(path)
        assert store.clear(path) == 1
        assert store.load(path) is None
        assert store.clear(path) == 0

    def test_clear_all_entries(self, tmp_path, source):
        path, _ = source
        other = str(tmp_path / "other.pcap")
        write_pcap(Trace.empty(), other)
        store = TraceStore(str(tmp_path / "cache"))
        store.build(path)
        store.build(other)
        assert store.clear() == 2
        assert store.clear() == 0

    def test_empty_capture_entry(self, tmp_path):
        path = str(tmp_path / "empty.pcap")
        write_pcap(Trace.empty(), path)
        store = TraceStore(str(tmp_path / "cache"))
        assert store.load_or_build(path) == Trace.empty()
        assert len(store.load(path)) == 0

    def test_info_reports_manifest(self, tmp_path, source):
        path, subset = source
        store = TraceStore(str(tmp_path / "cache"))
        assert store.info(path) is None
        store.build(path)
        info = store.info(path)
        assert info["n_packets"] == len(subset)
        assert info["entry_dir"] == store.entry_dir(path)
        assert set(info["columns"]) == {
            "timestamps_us", "sizes", "protocols", "src_nets",
            "dst_nets", "src_ports", "dst_ports",
        }

    def test_missing_source_is_a_miss(self, tmp_path):
        store = TraceStore(str(tmp_path / "cache"))
        assert store.load(str(tmp_path / "nope.pcap")) is None
