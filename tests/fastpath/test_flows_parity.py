"""Flow-accounting parity: vectorized chunks vs the per-packet table.

:func:`repro.flows.chunked.account_chunk` must leave the flow table —
entries, LRU order, counters, last timestamp — and the exported record
stream bit-identical to per-packet :meth:`FlowTable.observe` calls, for
any chunking.  Idle and active timeouts are reconstructed vectorially;
:class:`TestActiveTimeouts` forbids the per-packet fallback outright.
Only an emergency eviction may fall back, so the eviction cases below
exercise fallback correctness.  Time going backwards raises the
per-packet table's error instead (:class:`TestBackwardsTime`).

The kernel exports columns (:class:`~repro.flows.batch.FlowBatch`);
every comparison with the reference's records goes through the one
``to_records()``, and every batch the kernel returns is checked
against the batch contract (:func:`check_batch`) on the way.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sampling.streaming import StreamingStratified
from repro.fastpath import (
    DEFAULT_CHUNK_PACKETS,
    chunk_kernel_for,
    iter_trace_chunks,
    run_monitor,
)
from repro.flows import chunked
from repro.flows.batch import REASON_CODES, REASONS, FlowBatch
from repro.flows.chunked import (
    account_chunk,
    encode_flow_keys,
    fast_aggregate_trace,
)
from repro.flows.sampled import StreamFlowAccountant
from repro.flows.table import (
    REASON_ACTIVE,
    REASON_EVICTED,
    REASON_FLUSH,
    REASON_IDLE,
    FlowRecord,
    FlowTable,
    aggregate_trace,
    iter_flow_keys,
)
from repro.obs.live.monitor import QualityMonitor
from repro.trace.trace import Trace


def feed_per_packet(table: FlowTable, trace: Trace):
    records = []
    for timestamp_us, size, key in iter_flow_keys(trace):
        records.extend(table.observe(timestamp_us, size, key))
    return records


def check_batch(batch: FlowBatch) -> FlowBatch:
    """The batch contract: column dtypes, the ``(n, 5)`` key block,
    equal lengths, and a lossless round trip through records."""
    n = len(batch)
    assert batch.keys.dtype == np.uint16 and batch.keys.shape == (n, 5)
    for column in (batch.packets, batch.bytes, batch.first_us, batch.last_us):
        assert column.dtype == np.int64 and column.shape == (n,)
    assert batch.reasons.dtype == np.uint8 and batch.reasons.shape == (n,)
    assert FlowBatch.from_records(batch.to_records()) == batch
    return batch


def iter_chunk_batches(table: FlowTable, trace: Trace, chunk_sizes):
    """``(start, batch)`` per :func:`account_chunk` call over ragged
    chunks of ``chunk_sizes`` packets, the remainder last."""
    keys = encode_flow_keys(trace)
    start = 0
    for size in list(chunk_sizes) + [len(trace)]:
        stop = min(start + size, len(trace))
        yield start, check_batch(
            account_chunk(
                table,
                trace.timestamps_us[start:stop],
                trace.sizes[start:stop],
                keys[start:stop],
            )
        )
        start = stop
        if start >= len(trace):
            break


def feed_chunked(table: FlowTable, trace: Trace, chunk_sizes):
    """The chunks' exports as records: every chunk's batch, empty ones
    included, concatenated in order, then materialized."""
    batches = [
        batch for _start, batch in iter_chunk_batches(table, trace, chunk_sizes)
    ]
    return check_batch(FlowBatch.concat(batches)).to_records()


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
        batch = account_chunk(
            table, trace.timestamps_us, trace.sizes, encode_flow_keys(trace)
        )
        assert check_batch(batch).to_records() == []
        # No batches at all concatenate to the same empty batch.
        assert check_batch(FlowBatch.concat(())) == batch

    def test_repeat_packets_accumulate(self, tiny_trace):
        reference, subject = FlowTable(), FlowTable()
        expected = feed_per_packet(reference, tiny_trace)
        actual = feed_chunked(subject, tiny_trace, [1] * len(tiny_trace))
        assert actual == expected
        assert_tables_identical(reference, subject)


class TestBackwardsTime:
    """A decreasing timestamp raises the per-packet table's error, with
    the same two numbers, and leaves the table as the chunk found it
    (the per-packet table has applied the packets before the bad one
    when it raises)."""

    @staticmethod
    def state(table: FlowTable):
        entries = [
            (key, entry.packets, entry.bytes, entry.first_us, entry.last_us)
            for key, entry in table._entries.items()
        ]
        return entries, table.stats(), table._last_timestamp

    def check(self, timestamps, start, stop, expected):
        """Feed packets ``[0, start)``, then ``[start, stop)`` as one
        chunk, which must fail with ``expected`` like the reference."""
        trace = flow_trace(300, seed=8)
        keys = encode_flow_keys(trace)
        sizes = trace.sizes
        errors = []
        for feed in (chunked._fallback, account_chunk):
            table = FlowTable()
            account_chunk(table, timestamps[:start], sizes[:start], keys[:start])
            before = self.state(table)
            with pytest.raises(ValueError) as excinfo:
                feed(
                    table,
                    timestamps[start:stop],
                    sizes[start:stop],
                    keys[start:stop],
                )
            errors.append(str(excinfo.value))
        assert errors == [expected, expected]
        # The kernel's table, fed last, is as the chunk found it.
        assert self.state(table) == before

    def test_chunk_starting_before_the_table(self):
        # The chunk [50, 100) is offered after packet 199.
        timestamps = flow_trace(300, seed=8).timestamps_us
        reordered = np.concatenate((timestamps[:200], timestamps[50:100]))
        self.check(
            reordered,
            200,
            250,
            "time went backwards: %d after %d"
            % (timestamps[50], timestamps[199]),
        )

    def test_decrease_inside_a_chunk(self):
        timestamps = flow_trace(300, seed=8).timestamps_us.copy()
        timestamps[130] = timestamps[129] - 1
        self.check(
            timestamps,
            100,
            200,
            "time went backwards: %d after %d"
            % (timestamps[130], timestamps[129]),
        )


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
    for start, batch in iter_chunk_batches(
        FlowTable(**timeouts), trace, chunk_sizes
    ):
        active = [r for r in batch.to_records() if r.reason == "active"]
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


class TestFlowBatch:
    def test_reason_codes_are_one_to_one(self):
        assert sorted(REASONS) == sorted(
            (REASON_IDLE, REASON_ACTIVE, REASON_EVICTED, REASON_FLUSH)
        )
        assert {REASONS[code]: code for code in REASON_CODES.values()} == (
            REASON_CODES
        )
        assert sorted(REASON_CODES.values()) == list(range(len(REASONS)))


class TestFastAggregateTrace:
    @pytest.mark.parametrize("chunk_packets", [1, 7, 1000, 10**9])
    def test_matches_reference(self, chunk_packets, tiny_trace):
        batch = fast_aggregate_trace(tiny_trace, chunk_packets=chunk_packets)
        assert check_batch(batch).to_records() == aggregate_trace(tiny_trace)

    def test_minute_trace_with_table_stats(self, minute_trace):
        subset = minute_trace.slice_packets(0, 8000)
        reference, subject = FlowTable(), FlowTable()
        expected = aggregate_trace(subset, table=reference)
        actual = fast_aggregate_trace(
            subset, table=subject, chunk_packets=1024
        )
        assert check_batch(actual).to_records() == expected
        assert subject.stats() == reference.stats()

    def test_rejects_bad_chunk(self, tiny_trace):
        with pytest.raises(ValueError, match="chunk_packets"):
            fast_aggregate_trace(tiny_trace, chunk_packets=0)

    def test_empty_trace(self):
        assert check_batch(fast_aggregate_trace(Trace.empty())).to_records() == []


class TestAccountantKernel:
    def _run(self, trace: Trace, kept: np.ndarray, chunk: int, **tables):
        reference = StreamFlowAccountant(**tables)
        for i, (timestamp_us, size, key) in enumerate(iter_flow_keys(trace)):
            reference.observe(timestamp_us, size, key, bool(kept[i]))
        reference.flush()

        subject = StreamFlowAccountant(**tables)
        for start in range(0, len(trace), chunk):
            stop = start + chunk
            subject.observe_chunk(
                trace.slice_packets(start, min(stop, len(trace))),
                kept[start:stop],
            )
        subject.flush()
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
        for start in range(0, len(trace), 64):
            subject.observe_chunk(
                trace.slice_packets(start, min(start + 64, len(trace))),
                kept[start : start + 64],
            )
        # The table of 8 evicts, so those chunks replay per packet.
        evictions = reference.store.counter("flow_cache_evictions_parent")
        assert evictions.value > 0
        assert subject.parent() == reference.parent()
        assert subject.parent().records == reference.parent().records
        assert subject.store.snapshot() == reference.store.snapshot()

    def test_chunk_path_builds_no_records(self, five_minute_trace):
        """The chunk path exports columns only: with every
        ``FlowRecord`` construction refused, the production loop over
        five minutes leaves the per-packet reference's flows in both
        populations.  A 120 s active timeout makes idle and active
        exports both fire."""

        def refuse(*_args, **_kwargs):
            raise AssertionError("the chunk path built a FlowRecord")

        timeouts = dict(active_timeout_us=120_000_000)

        def selector():
            return StreamingStratified(50, rng=np.random.default_rng(9))

        subject = StreamFlowAccountant(**timeouts)
        with mock.patch.object(FlowRecord, "__init__", refuse):
            run_monitor(
                iter_trace_chunks(five_minute_trace),
                chunk_kernel_for(selector()),
                QualityMonitor(window_us=30_000_000),
                accountant=subject,
            )
        subject.flush()

        reference = StreamFlowAccountant(**timeouts)
        offer = selector().offer
        for timestamp_us, size, key in iter_flow_keys(five_minute_trace):
            reference.observe(timestamp_us, size, key, offer(timestamp_us))
        reference.flush()

        for table in (reference.parent_table, reference.sampled_table):
            assert table.exported["idle"] > 0
            assert table.exported["active"] > 0
        assert subject.parent().records == reference.parent().records
        assert subject.sampled().records == reference.sampled().records
        assert subject.store.snapshot() == reference.store.snapshot()

    def test_flows_seam_forces_the_accountant(self, minute_trace, per_packet):
        """The ``flows`` seam reaches the live accountant: under it,
        ``run_monitor`` sends every chunk of both sides through the
        per-packet ``_fallback``, and the run ends with the default
        run's flows and ``flow_cache_*`` metrics."""

        def run():
            accountant = StreamFlowAccountant()
            spy = mock.Mock(wraps=chunked.account_chunk)
            with mock.patch.object(chunked, "account_chunk", spy):
                run_monitor(
                    iter_trace_chunks(minute_trace, chunk_packets=2048),
                    chunk_kernel_for(StreamingStratified(50, rng=np.random.default_rng(3))),
                    QualityMonitor(window_us=10_000_000),
                    accountant=accountant,
                )
            accountant.flush()
            return accountant, spy.call_count

        default, default_calls = run()
        with per_packet("flows"):
            assert chunked.account_chunk is chunked._fallback
            forced, forced_calls = run()
        chunks = -(-len(minute_trace) // 2048)
        assert forced_calls == default_calls > chunks
        assert forced.parent().records == default.parent().records
        assert forced.sampled().records == default.sampled().records
        assert forced.store.snapshot() == default.store.snapshot()

    def test_mask_shape_checked(self, tiny_trace):
        accountant = StreamFlowAccountant()
        with pytest.raises(ValueError, match="keep mask"):
            accountant.observe_chunk(tiny_trace, np.ones(3, dtype=bool))
