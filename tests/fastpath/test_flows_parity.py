"""Flow-accounting parity: vectorized chunks vs the per-packet table.

:func:`repro.flows.chunked.account_chunk` must leave the flow table —
entries, LRU order, counters, last timestamp — and the exported record
stream bit-identical to per-packet :meth:`FlowTable.observe` calls, for
any chunking.  Idle and active timeouts are reconstructed vectorially;
:class:`TestActiveTimeouts` forbids the per-packet fallback outright.
Only an emergency eviction (or time going backwards) may fall back, so
the eviction cases below exercise fallback correctness.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fastpath import DEFAULT_CHUNK_PACKETS
from repro.fastpath.flows import FlowAccountantKernel
from repro.flows import chunked
from repro.flows.chunked import (
    account_chunk,
    encode_flow_keys,
    fast_aggregate_trace,
)
from repro.flows.sampled import StreamFlowAccountant
from repro.flows.table import FlowTable, aggregate_trace, iter_flow_keys
from repro.trace.trace import Trace


def feed_per_packet(table: FlowTable, trace: Trace):
    records = []
    for timestamp_us, size, key in iter_flow_keys(trace):
        records.extend(table.observe(timestamp_us, size, key))
    return records


def iter_chunk_records(table: FlowTable, trace: Trace, chunk_sizes):
    """``(start, records)`` per :func:`account_chunk` call over ragged
    chunks of ``chunk_sizes`` packets, the remainder last."""
    keys = encode_flow_keys(trace)
    start = 0
    for size in list(chunk_sizes) + [len(trace)]:
        stop = min(start + size, len(trace))
        yield start, account_chunk(
            table,
            trace.timestamps_us[start:stop],
            trace.sizes[start:stop],
            keys[start:stop],
        )
        start = stop
        if start >= len(trace):
            break


def feed_chunked(table: FlowTable, trace: Trace, chunk_sizes):
    return [
        record
        for _start, records in iter_chunk_records(table, trace, chunk_sizes)
        for record in records
    ]


def no_fallback(*_args):
    raise AssertionError("account_chunk replayed a chunk per packet")


def assert_tables_identical(reference: FlowTable, subject: FlowTable):
    assert subject.stats() == reference.stats()
    assert subject._last_timestamp == reference._last_timestamp
    # Same entries in the same LRU order, field for field.
    assert list(subject._entries.keys()) == list(reference._entries.keys())
    for key, expected in reference._entries.items():
        entry = subject._entries[key]
        assert (entry.packets, entry.bytes, entry.first_us, entry.last_us) == (
            expected.packets,
            expected.bytes,
            expected.first_us,
            expected.last_us,
        )


def flow_trace(n: int, seed: int, keys: int = 40, gap_hi: int = 5000) -> Trace:
    """A synthetic stream over a small 5-tuple population."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, gap_hi, size=n)
    which = rng.integers(0, keys, size=n)
    return Trace(
        timestamps_us=np.cumsum(gaps).astype(np.int64),
        sizes=rng.integers(28, 1500, size=n).astype(np.int32),
        protocols=np.where(which % 3 == 0, 17, 6).astype(np.int64),
        src_nets=(which % 7).astype(np.int64),
        dst_nets=(1000 + which % 11).astype(np.int64),
        src_ports=(1024 + which).astype(np.int64),
        dst_ports=np.where(which % 3 == 0, 53, 23).astype(np.int64),
    )


class TestEventFreeChunks:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=400),
        seed=st.integers(min_value=0, max_value=9999),
        chunk_sizes=st.lists(
            st.integers(min_value=0, max_value=80), max_size=30
        ),
    )
    def test_chunking_invariance(self, n, seed, chunk_sizes):
        trace = flow_trace(n, seed)
        reference, subject = FlowTable(), FlowTable()
        expected = feed_per_packet(reference, trace)
        actual = feed_chunked(subject, trace, chunk_sizes)
        assert actual == expected
        assert_tables_identical(reference, subject)
        assert subject.flush() == reference.flush()

    def test_event_free_chunk_exports_nothing(self):
        trace = flow_trace(200, seed=1)
        table = FlowTable()
        records = account_chunk(
            table, trace.timestamps_us, trace.sizes, encode_flow_keys(trace)
        )
        assert records == []

    def test_repeat_packets_accumulate(self, tiny_trace):
        reference, subject = FlowTable(), FlowTable()
        expected = feed_per_packet(reference, tiny_trace)
        actual = feed_chunked(subject, tiny_trace, [1] * len(tiny_trace))
        assert actual == expected
        assert_tables_identical(reference, subject)


#: Property inputs that reach each active-timeout case of the kernel.
ACTIVE_CASES = {
    "cut twice in one chunk": dict(
        n=10, seed=77, keys=1, gap_hi=400_000, idle_us=500_000,
        active_us=1_000_000, chunk_sizes=[20],
    ),
    "cut at a carried-over key's first packet": dict(
        n=11, seed=67, keys=3, gap_hi=400_000, idle_us=1_000_000,
        active_us=1_500_000, chunk_sizes=[10, 10],
    ),
    "idle and active at one arrival": dict(
        n=9, seed=38, keys=2, gap_hi=400_000, idle_us=500_000,
        active_us=750_000, chunk_sizes=[40],
    ),
}


def active_cases_reached(n, seed, keys, gap_hi, idle_us, active_us,
                         chunk_sizes):
    """The :data:`ACTIVE_CASES` names that one property input reaches."""
    trace = flow_trace(n, seed, keys=keys, gap_hi=gap_hi)
    timeouts = dict(
        idle_timeout_us=idle_us, active_timeout_us=max(active_us, idle_us)
    )
    reached = set()
    reference = FlowTable(**timeouts)
    for timestamp_us, size, key in iter_flow_keys(trace):
        reasons = {r.reason for r in reference.observe(timestamp_us, size, key)}
        if reasons >= {"idle", "active"}:
            reached.add("idle and active at one arrival")
    for start, records in iter_chunk_records(
        FlowTable(**timeouts), trace, chunk_sizes
    ):
        active = [r for r in records if r.reason == "active"]
        if not active:
            continue
        chunk_first_us = int(trace.timestamps_us[start])
        # A record whose last packet precedes the chunk is a carried
        # entry, exported as it stands at its key's first packet.
        if any(r.last_us < chunk_first_us for r in active):
            reached.add("cut at a carried-over key's first packet")
        inside = [r.key for r in active if r.last_us >= chunk_first_us]
        if len(inside) > len(set(inside)):
            reached.add("cut twice in one chunk")
    return reached


class TestActiveTimeouts:
    """Active timeouts are reconstructed exactly, never replayed."""

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=9999),
        keys=st.integers(min_value=1, max_value=12),
        gap_hi=st.integers(min_value=1, max_value=400_000),
        idle_us=st.integers(min_value=1_000, max_value=3_000_000),
        active_us=st.integers(min_value=1_000, max_value=20_000_000),
        chunk_sizes=st.lists(
            st.integers(min_value=0, max_value=80), max_size=30
        ),
    )
    @example(**ACTIVE_CASES["cut twice in one chunk"])
    @example(**ACTIVE_CASES["cut at a carried-over key's first packet"])
    @example(**ACTIVE_CASES["idle and active at one arrival"])
    def test_matches_reference_without_fallback(
        self, n, seed, keys, gap_hi, idle_us, active_us, chunk_sizes
    ):
        trace = flow_trace(n, seed, keys=keys, gap_hi=gap_hi)
        # The active timeout ranges from the idle timeout up to 20 s;
        # keys <= 12 keep the default max_flows out of reach.
        timeouts = dict(
            idle_timeout_us=idle_us,
            active_timeout_us=max(active_us, idle_us),
        )
        reference, subject = FlowTable(**timeouts), FlowTable(**timeouts)
        expected = feed_per_packet(reference, trace)
        with mock.patch.object(chunked, "_fallback", no_fallback):
            actual = feed_chunked(subject, trace, chunk_sizes)
        assert actual == expected
        assert_tables_identical(reference, subject)
        assert subject.flush() == reference.flush()

    @pytest.mark.parametrize("case", sorted(ACTIVE_CASES))
    def test_example_reaches_its_case(self, case):
        assert case in active_cases_reached(**ACTIVE_CASES[case])


class TestEventfulFallback:
    """Eventful chunks: timeouts are reconstructed, evictions replayed.

    Idle and active exports stay on the vectorized path; a chunk whose
    occupancy would cross ``max_flows`` takes the reference path whole.
    """

    def test_idle_expiry_interleaved(self):
        # Gaps larger than the idle timeout force intra-chunk expiries.
        trace = flow_trace(300, seed=2, gap_hi=400_000)
        timeouts = dict(idle_timeout_us=1_000_000, active_timeout_us=10**9)
        reference = FlowTable(**timeouts)
        subject = FlowTable(**timeouts)
        expected = feed_per_packet(reference, trace)
        actual = feed_chunked(subject, trace, [37] * 9)
        assert actual == expected
        assert_tables_identical(reference, subject)

    def test_active_timeout(self):
        trace = flow_trace(300, seed=3, keys=5, gap_hi=50_000)
        timeouts = dict(idle_timeout_us=2_000_000, active_timeout_us=2_000_000)
        reference = FlowTable(**timeouts)
        subject = FlowTable(**timeouts)
        expected = feed_per_packet(reference, trace)
        actual = feed_chunked(subject, trace, [64] * 5)
        assert actual == expected
        assert_tables_identical(reference, subject)

    def test_lru_eviction_at_capacity(self):
        trace = flow_trace(400, seed=4, keys=60)
        reference = FlowTable(max_flows=16)
        subject = FlowTable(max_flows=16)
        expected = feed_per_packet(reference, trace)
        actual = feed_chunked(subject, trace, [50] * 8)
        assert actual == expected
        assert_tables_identical(reference, subject)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=9999),
        chunk=st.integers(min_value=1, max_value=120),
        max_flows=st.integers(min_value=2, max_value=30),
        idle_ms=st.integers(min_value=50, max_value=2000),
    )
    def test_eventful_property(self, seed, chunk, max_flows, idle_ms):
        trace = flow_trace(250, seed=seed, gap_hi=100_000)
        kwargs = dict(
            idle_timeout_us=idle_ms * 1000,
            active_timeout_us=5_000_000,
            max_flows=max_flows,
        )
        reference = FlowTable(**kwargs)
        subject = FlowTable(**kwargs)
        expected = feed_per_packet(reference, trace)
        actual = feed_chunked(subject, trace, [chunk] * (250 // chunk + 1))
        assert actual == expected
        assert_tables_identical(reference, subject)


class TestFastAggregateTrace:
    @pytest.mark.parametrize("chunk_packets", [1, 7, 1000, 10**9])
    def test_matches_reference(self, chunk_packets, tiny_trace):
        assert fast_aggregate_trace(
            tiny_trace, chunk_packets=chunk_packets
        ) == aggregate_trace(tiny_trace)

    def test_minute_trace_with_table_stats(self, minute_trace):
        subset = minute_trace.slice_packets(0, 8000)
        reference, subject = FlowTable(), FlowTable()
        expected = aggregate_trace(subset, table=reference)
        actual = fast_aggregate_trace(
            subset, table=subject, chunk_packets=1024
        )
        assert actual == expected
        assert subject.stats() == reference.stats()

    def test_rejects_bad_chunk(self, tiny_trace):
        with pytest.raises(ValueError, match="chunk_packets"):
            fast_aggregate_trace(tiny_trace, chunk_packets=0)

    def test_empty_trace(self):
        assert fast_aggregate_trace(Trace.empty()) == []


class TestAccountantKernel:
    def _run(self, trace: Trace, kept: np.ndarray, chunk: int, **tables):
        reference = StreamFlowAccountant(**tables)
        for i, (timestamp_us, size, key) in enumerate(iter_flow_keys(trace)):
            reference.observe(timestamp_us, size, key, bool(kept[i]))
        reference.flush()

        subject = StreamFlowAccountant(**tables)
        kernel = FlowAccountantKernel(subject)
        for start in range(0, len(trace), chunk):
            stop = start + chunk
            kernel.observe_chunk(
                trace.slice_packets(start, min(stop, len(trace))),
                kept[start:stop],
            )
        kernel.flush()
        return reference, subject

    @pytest.mark.parametrize("chunk", [1, 13, 500])
    def test_records_and_metrics_identical(self, chunk):
        trace = flow_trace(500, seed=6)
        kept = np.arange(len(trace)) % 10 == 3
        reference, subject = self._run(trace, kept, chunk)
        assert subject.parent() == reference.parent()
        assert subject.sampled() == reference.sampled()
        assert subject.store.snapshot() == reference.store.snapshot()

    def test_active_timeouts_stay_vectorized(self, five_minute_trace):
        # A 60 s active timeout over five minutes exports hundreds of
        # parent flows as active (and a few dozen sampled ones) without
        # a single chunk replayed per packet.
        kept = np.arange(len(five_minute_trace)) % 50 == 7
        with mock.patch.object(chunked, "_fallback", no_fallback):
            reference, subject = self._run(
                five_minute_trace,
                kept,
                DEFAULT_CHUNK_PACKETS,
                active_timeout_us=60_000_000,
            )
        assert reference.parent_table.exported["active"] > 0
        assert reference.sampled_table.exported["active"] > 0
        assert subject.parent() == reference.parent()
        assert subject.sampled() == reference.sampled()
        assert subject.store.snapshot() == reference.store.snapshot()

    def test_eventful_side_falls_back(self):
        trace = flow_trace(400, seed=7, gap_hi=300_000)
        kept = np.ones(len(trace), dtype=bool)
        reference = StreamFlowAccountant(
            idle_timeout_us=500_000, max_flows=8
        )
        for i, (timestamp_us, size, key) in enumerate(iter_flow_keys(trace)):
            reference.observe(timestamp_us, size, key, True)
        subject = StreamFlowAccountant(idle_timeout_us=500_000, max_flows=8)
        kernel = FlowAccountantKernel(subject)
        for start in range(0, len(trace), 64):
            kernel.observe_chunk(
                trace.slice_packets(start, min(start + 64, len(trace))),
                kept[start : start + 64],
            )
        assert subject.parent() == reference.parent()
        assert subject.store.snapshot() == reference.store.snapshot()

    def test_mask_shape_checked(self, tiny_trace):
        kernel = FlowAccountantKernel(StreamFlowAccountant())
        with pytest.raises(ValueError, match="keep mask"):
            kernel.observe_chunk(tiny_trace, np.ones(3, dtype=bool))
