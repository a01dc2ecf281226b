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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.instrument import Instrumentation
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

both_paths = pytest.mark.parametrize("fastpath", ["on", "off"])


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
    def test_tiny_trace(self, fastpath, tiny_trace):
        data = pcap_bytes(tiny_trace)
        assert read_pcap(io.BytesIO(data), fastpath=fastpath) == tiny_trace

    @both_paths
    def test_synthetic_subset(self, fastpath, minute_trace):
        subset = minute_trace.slice_packets(0, 3000)
        data = pcap_bytes(subset)
        assert read_pcap(io.BytesIO(data), fastpath=fastpath) == subset

    @both_paths
    def test_big_endian_magic(self, fastpath, minute_trace):
        subset = minute_trace.slice_packets(0, 500)
        data = as_big_endian(pcap_bytes(subset))
        assert read_pcap(io.BytesIO(data), fastpath=fastpath) == subset

    @both_paths
    def test_truncated_snaplen_capture(self, fastpath, minute_trace):
        # snaplen=64 clips most payloads; original sizes must survive.
        subset = minute_trace.slice_packets(0, 500)
        data = pcap_bytes(subset, snaplen=64)
        assert read_pcap(io.BytesIO(data), fastpath=fastpath) == subset

    @both_paths
    def test_empty_capture(self, fastpath):
        data = pcap_bytes(Trace.empty())
        assert read_pcap(io.BytesIO(data), fastpath=fastpath) == Trace.empty()

    @both_paths
    def test_file_path_input(self, fastpath, tmp_path, tiny_trace):
        # The fast path memory-maps real files; identity must hold there.
        path = str(tmp_path / "t.pcap")
        write_pcap(tiny_trace, path)
        assert read_pcap(path, fastpath=fastpath) == tiny_trace

    def test_torn_final_record_error_parity(self, tiny_trace):
        clipped = pcap_bytes(tiny_trace)[:-5]
        errors = []
        for fastpath in ("on", "off"):
            with pytest.raises(PcapError) as excinfo:
                read_pcap(io.BytesIO(clipped), fastpath=fastpath)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        assert "truncated" in errors[0]

    def test_torn_final_record_error_parity_on_path(self, tmp_path, tiny_trace):
        path = str(tmp_path / "torn.pcap")
        with open(path, "wb") as stream:
            stream.write(pcap_bytes(tiny_trace)[:-5])
        errors = []
        for fastpath in ("on", "off"):
            with pytest.raises(PcapError) as excinfo:
                read_pcap(path, fastpath=fastpath)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]

    def test_torn_stream_delivers_complete_chunks_first(self, tiny_trace):
        clipped = pcap_bytes(tiny_trace)[:-5]
        delivered = []
        with pytest.raises(PcapError):
            for chunk in iter_pcap(io.BytesIO(clipped), chunk_packets=3,
                                   fastpath="on"):
                delivered.append(chunk)
        assert Trace.concat(delivered) == tiny_trace.slice_packets(0, 9)

    def test_non_ipv4_error_parity(self):
        head = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 64, LINKTYPE_RAW)
        payload = b"\x60" + b"\x00" * 19  # IPv6 version nibble
        data = head + struct.pack("<IIII", 0, 0, len(payload), 40) + payload
        for fastpath in ("on", "off"):
            with pytest.raises(PcapError, match="non-IPv4"):
                read_pcap(io.BytesIO(data), fastpath=fastpath)

    def test_below_ip_header_error_parity(self):
        head = struct.pack("<IHHiIII", PCAP_MAGIC, 2, 4, 0, 0, 64, LINKTYPE_RAW)
        data = head + struct.pack("<IIII", 0, 0, 8, 40) + b"\x45" + b"\x00" * 7
        for fastpath in ("on", "off"):
            with pytest.raises(PcapError, match="below IP header"):
                read_pcap(io.BytesIO(data), fastpath=fastpath)

    @pytest.mark.parametrize(
        "chunk_packets", [4, 10, 1 << 62], ids=["in-chunk", "seam", "whole"]
    )
    def test_out_of_order_record_error_parity(self, chunk_packets, tiny_trace):
        # Record 10 repeats record 0, so time goes backwards there:
        # inside a chunk, at a chunk seam, and in a whole-file read.
        raw = pcap_bytes(tiny_trace)
        first_record = raw[24 : 24 + 16 + struct.unpack_from("<I", raw, 32)[0]]
        errors = []
        for fastpath in ("on", "off"):
            with pytest.raises(PcapError) as excinfo:
                list(
                    iter_pcap(
                        io.BytesIO(raw + first_record),
                        chunk_packets=chunk_packets,
                        fastpath=fastpath,
                    )
                )
            errors.append(str(excinfo.value))
        assert errors == [
            "time goes backwards at record index 10: 0 us after 7200 us"
        ] * 2

    @pytest.mark.parametrize("where", ["first", "mid", "seam"])
    def test_microsecond_overflow_error_parity(
        self, where, tiny_trace, monkeypatch
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
        for fastpath in ("on", "off"):
            with pytest.raises(PcapError) as excinfo:
                read_pcap(io.BytesIO(bytes(raw)), fastpath=fastpath)
            errors.append(str(excinfo.value))
        assert errors == [
            "microsecond field out of range at record index %d: 1500000"
            % index
        ] * 2

    @settings(max_examples=30, deadline=None)
    @given(chunk_packets=st.integers(min_value=1, max_value=60))
    def test_chunking_invariance(self, chunk_packets, minute_trace):
        # Decoder parity with the reference at arbitrary chunk sizes:
        # the chunk seams must land in the same places with the same
        # contents no matter which decoder fills them.
        subset = minute_trace.slice_packets(0, 400)
        data = pcap_bytes(subset)
        fast = list(
            iter_pcap(io.BytesIO(data), chunk_packets=chunk_packets, fastpath="on")
        )
        ref = list(
            iter_pcap(io.BytesIO(data), chunk_packets=chunk_packets, fastpath="off")
        )
        assert len(fast) == len(ref)
        for got, want in zip(fast, ref):
            assert got == want


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

    def test_dense_payload_auto_matches_reference(self):
        data = self.dense_capture()
        assert read_pcap(io.BytesIO(data), fastpath="auto") == read_pcap(
            io.BytesIO(data), fastpath="off"
        )

    def test_unusual_ihl_midstream_matches_reference(self, tiny_trace):
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
        assert read_pcap(io.BytesIO(data), fastpath="auto") == read_pcap(
            io.BytesIO(data), fastpath="off"
        )

    def test_resume_offset_is_exact(self):
        data = self.dense_capture(n_packets=3)
        with pytest.raises(FastpathUnsupported) as excinfo:
            list(iter_decoded_columns(data[24:], False))
        assert excinfo.value.resume_offset == 0

    @both_paths
    def test_bad_magic_parity(self, fastpath):
        with pytest.raises(PcapError, match="magic"):
            read_pcap(io.BytesIO(b"\x00" * 24), fastpath=fastpath)


class TestVectorizedWriter:
    """write_pcap's vectorized encoder against the per-packet loop."""

    @both_paths
    def test_roundtrip(self, fastpath, tiny_trace):
        data = pcap_bytes(tiny_trace, fastpath=fastpath)
        assert read_pcap(io.BytesIO(data)) == tiny_trace

    def test_byte_identity_tiny(self, tiny_trace):
        assert pcap_bytes(tiny_trace, fastpath="on") == pcap_bytes(
            tiny_trace, fastpath="off"
        )

    def test_byte_identity_synthetic(self, minute_trace):
        subset = minute_trace.slice_packets(0, 2000)
        assert pcap_bytes(subset, fastpath="on") == pcap_bytes(
            subset, fastpath="off"
        )

    def test_byte_identity_custom_snaplen(self, minute_trace):
        subset = minute_trace.slice_packets(0, 500)
        assert pcap_bytes(subset, snaplen=64, fastpath="on") == pcap_bytes(
            subset, snaplen=64, fastpath="off"
        )

    def test_byte_identity_empty(self):
        assert pcap_bytes(Trace.empty(), fastpath="on") == pcap_bytes(
            Trace.empty(), fastpath="off"
        )


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
