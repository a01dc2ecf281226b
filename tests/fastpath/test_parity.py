"""Differential parity battery: keep_mask() chunks vs per-packet offer().

The fast path's contract is *bit identity*: for every selector, any
chunking of the arrival stream (size-1 chunks, one whole-trace chunk,
arbitrary ragged splits) must produce exactly the keep/skip stream the
per-packet ``offer`` produces, and leave the selector holding the same
state.  Hypothesis drives the chunking-invariance properties;
fixed cases pin the boundary placements that historically break
chunked reimplementations (chunk edge on a bucket edge, timer firing
exactly at a chunk's first arrival, empty chunks).  The batch
agreement properties pin both paths to the batch samplers.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sampling.streaming import (
    StreamingReservoir,
    StreamingStratified,
    StreamingSystematic,
    StreamingTimerSystematic,
)
from repro.core.sampling.stratified import StratifiedRandomSampler
from repro.core.sampling.systematic import SystematicSampler
from repro.core.sampling.timer import TimerSystematicSampler
from repro.fastpath import chunk_kernel_for
from repro.trace.trace import Trace

KINDS = ("systematic", "stratified", "timer")

#: Timer period per unit granularity for re-keys (the timer's k').
UNIT_PERIOD_US = 250.0


def make_streaming(kind: str, seed: int = 0):
    if kind == "systematic":
        return StreamingSystematic(granularity=17, phase=5)
    if kind == "stratified":
        return StreamingStratified(
            granularity=13, rng=np.random.default_rng(seed)
        )
    return StreamingTimerSystematic(period_us=3250.0, phase_us=40.0)


def arrivals(n: int, seed: int = 0) -> np.ndarray:
    """Non-decreasing arrival times with bursts (zero gaps) and lulls."""
    rng = np.random.default_rng(seed)
    gaps = rng.integers(0, 5000, size=n)
    return np.cumsum(gaps).astype(np.int64)


def split(ts: np.ndarray, chunk_sizes) -> list:
    """Split ``ts`` into consecutive chunks; remainder as a final one."""
    chunks, start = [], 0
    for size in chunk_sizes:
        chunks.append(ts[start : start + size])
        start += size
        if start >= len(ts):
            break
    if start < len(ts):
        chunks.append(ts[start:])
    return chunks


def offer_decisions(sampler, ts: np.ndarray) -> np.ndarray:
    return np.asarray([sampler.offer(int(t)) for t in ts], dtype=bool)


def kernel_decisions(kernel, ts: np.ndarray, chunk_sizes) -> np.ndarray:
    parts = [kernel.keep_mask(chunk) for chunk in split(ts, chunk_sizes)]
    if not parts:
        return np.zeros(0, dtype=bool)
    return np.concatenate(parts)


def assert_same_state(kind: str, sampler, kernel) -> None:
    """The kernel must hold the streaming sampler's exact state."""
    if kind == "systematic":
        assert kernel.countdown == sampler.countdown
    elif kind == "stratified":
        assert kernel.position == sampler.position
        assert kernel.keep_offset == sampler.keep_offset
        # Both generators must have consumed the same bit stream.
        probe = int(kernel.rng.integers(0, 1 << 30))
        assert probe == int(sampler.rng.integers(0, 1 << 30))
    else:
        assert kernel.next_firing == sampler.next_firing


class TestChunkingInvariance:
    """Any chunking == per-packet, for every selector."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=600),
        seed=st.integers(min_value=0, max_value=10_000),
        chunk_sizes=st.lists(
            st.integers(min_value=0, max_value=97), max_size=40
        ),
    )
    def test_ragged_chunks_match_offer(self, kind, n, seed, chunk_sizes):
        ts = arrivals(n, seed)
        reference = make_streaming(kind, seed=seed)
        subject = make_streaming(kind, seed=seed)
        kernel = chunk_kernel_for(subject)
        expected = offer_decisions(reference, ts)
        actual = kernel_decisions(kernel, ts, chunk_sizes)
        assert np.array_equal(actual, expected)
        assert_same_state(kind, reference, kernel)

    @pytest.mark.parametrize("kind", KINDS)
    def test_size_one_chunks(self, kind):
        ts = arrivals(257, seed=3)
        reference = make_streaming(kind, seed=3)
        subject = make_streaming(kind, seed=3)
        kernel = chunk_kernel_for(subject)
        expected = offer_decisions(reference, ts)
        actual = kernel_decisions(kernel, ts, [1] * len(ts))
        assert np.array_equal(actual, expected)
        assert_same_state(kind, reference, kernel)

    @pytest.mark.parametrize("kind", KINDS)
    def test_single_whole_stream_chunk(self, kind):
        ts = arrivals(400, seed=4)
        reference = make_streaming(kind, seed=4)
        subject = make_streaming(kind, seed=4)
        kernel = chunk_kernel_for(subject)
        expected = offer_decisions(reference, ts)
        actual = np.asarray(kernel.keep_mask(ts))
        assert np.array_equal(actual, expected)
        assert_same_state(kind, reference, kernel)

    @pytest.mark.parametrize("kind", KINDS)
    def test_empty_chunks_are_inert(self, kind):
        ts = arrivals(60, seed=5)
        reference = make_streaming(kind, seed=5)
        subject = make_streaming(kind, seed=5)
        kernel = chunk_kernel_for(subject)
        expected = offer_decisions(reference, ts)
        actual = kernel_decisions(
            kernel, ts, [0, 20, 0, 0, 20, 0, 20, 0]
        )
        assert np.array_equal(actual, expected)
        assert_same_state(kind, reference, kernel)

    @pytest.mark.parametrize("kind", KINDS)
    def test_minute_trace_chunked(self, kind, minute_trace):
        ts = minute_trace.timestamps_us
        reference = make_streaming(kind, seed=9)
        subject = make_streaming(kind, seed=9)
        kernel = chunk_kernel_for(subject)
        expected = offer_decisions(reference, ts)
        actual = kernel_decisions(kernel, ts, [4096] * 10)
        assert np.array_equal(actual, expected)
        assert_same_state(kind, reference, kernel)


class TestBoundaryPlacements:
    """Chunk edges landing exactly on selector-internal edges."""

    def test_systematic_chunk_edge_on_keep(self):
        # Chunks of exactly k packets: every chunk keeps its first slot.
        kernel = StreamingSystematic(granularity=8, phase=0)
        ts = arrivals(64, seed=1)
        for chunk in split(ts, [8] * 8):
            mask = kernel.keep_mask(chunk)
            assert mask[0] and mask.sum() == 1

    def test_stratified_chunk_edge_on_bucket_edge(self):
        k = 10
        reference = StreamingStratified(k, rng=np.random.default_rng(7))
        kernel = StreamingStratified(k, rng=np.random.default_rng(7))
        ts = arrivals(120, seed=7)
        expected = offer_decisions(reference, ts)
        actual = kernel_decisions(kernel, ts, [k] * 12)
        assert np.array_equal(actual, expected)
        # Exactly one keep per complete bucket.
        assert actual.reshape(12, k).sum(axis=1).tolist() == [1] * 12

    def test_timer_firing_at_chunk_first_arrival(self):
        # Deadline falls exactly on the first arrival of chunk 2.
        kernel = StreamingTimerSystematic(period_us=1000.0)
        reference = StreamingTimerSystematic(period_us=1000.0)
        ts = np.asarray([0, 400, 800, 1000, 1400, 2000], dtype=np.int64)
        expected = offer_decisions(reference, ts)
        actual = kernel_decisions(kernel, ts, [3, 3])
        assert np.array_equal(actual, expected)
        assert kernel.next_firing == reference.next_firing

    def test_timer_long_silence_collapses_to_one_keep(self):
        kernel = StreamingTimerSystematic(period_us=100.0)
        reference = StreamingTimerSystematic(period_us=100.0)
        ts = np.asarray([0, 50, 1_000_000, 1_000_010], dtype=np.int64)
        expected = offer_decisions(reference, ts)
        actual = kernel_decisions(kernel, ts, [2])
        assert np.array_equal(actual, expected)
        assert kernel.next_firing == reference.next_firing


class TestBatchAgreement:
    """Every chunk selector keeps exactly its batch sampler's packets.

    Systematic and timer selection agree packet for packet: per-packet
    ``offer``, ragged-chunk ``keep_mask`` and the batch sampler.
    Stratified selection agrees in every complete bucket, where both
    draw ``int(random() * k)`` from a generator seeded alike; in a
    partial final bucket the batch sampler picks within the bucket,
    while the selector may keep nothing.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=600),
        k=st.integers(min_value=1, max_value=50),
        phase_seed=st.integers(min_value=0, max_value=999),
        chunk_sizes=st.lists(
            st.integers(min_value=0, max_value=97), max_size=40
        ),
    )
    def test_systematic_three_way(self, n, k, phase_seed, chunk_sizes):
        phase = phase_seed % k
        ts = arrivals(n, phase_seed)
        batch = SystematicSampler(granularity=k, phase=phase).sample_indices(
            Trace(timestamps_us=ts, sizes=[40] * n)
        )
        offered = StreamingSystematic(k, phase=phase).offer_all(ts)
        chunked = kernel_decisions(
            StreamingSystematic(k, phase=phase), ts, chunk_sizes
        )
        assert np.array_equal(offered, batch)
        assert np.array_equal(np.flatnonzero(chunked), batch)

    @settings(max_examples=80, deadline=None)
    @given(
        gaps=st.lists(st.integers(min_value=0, max_value=3), max_size=600),
        period_tenths=st.integers(min_value=1, max_value=60),
        phase_tenths=st.integers(min_value=0, max_value=59),
        chunk_sizes=st.lists(
            st.integers(min_value=0, max_value=97), max_size=40
        ),
    )
    # np.arange(2000) at a 1.1 us period: float rounding of the firing
    # grid once put 212 positions out of step with the batch sampler.
    @example(gaps=[1] * 1999, period_tenths=11, phase_tenths=0, chunk_sizes=[])
    def test_timer_three_way(
        self, gaps, period_tenths, phase_tenths, chunk_sizes
    ):
        ts = np.cumsum([0] + gaps).astype(np.int64)
        period = period_tenths / 10
        phase = (phase_tenths % period_tenths) / 10
        batch = TimerSystematicSampler(
            period_us=period, phase_us=phase
        ).sample_indices(Trace(timestamps_us=ts, sizes=[40] * ts.size))
        offered = StreamingTimerSystematic(period, phase).offer_all(ts)
        chunked = kernel_decisions(
            StreamingTimerSystematic(period, phase), ts, chunk_sizes
        )
        assert np.array_equal(offered, batch)
        assert np.array_equal(np.flatnonzero(chunked), batch)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=600),
        k=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=10_000),
        chunk_sizes=st.lists(
            st.integers(min_value=0, max_value=97), max_size=40
        ),
    )
    def test_stratified_every_complete_bucket(self, n, k, seed, chunk_sizes):
        ts = arrivals(n, seed)
        trace = Trace(timestamps_us=ts, sizes=[40] * n)
        batch = StratifiedRandomSampler(granularity=k).sample_indices(
            trace, np.random.default_rng(seed)
        )
        selector = StreamingStratified(k, rng=np.random.default_rng(seed))
        kept = np.flatnonzero(kernel_decisions(selector, ts, chunk_sizes))
        complete = n // k
        assert np.array_equal(kept[kept < complete * k], batch[:complete])


class TestKernelFactory:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        seed=st.integers(min_value=0, max_value=10_000),
        steps=st.lists(
            st.one_of(
                st.tuples(st.just("offer"), st.integers(0, 20)),
                st.tuples(st.just("chunk"), st.integers(0, 40)),
                st.tuples(st.just("rekey"), st.integers(1, 40)),
            ),
            max_size=30,
        ),
    )
    # A re-key below the systematic countdown, then a chunk that ends
    # before the carried countdown expires.
    @example(
        kind="systematic",
        seed=0,
        steps=[("rekey", 3), ("chunk", 1), ("offer", 5)],
    )
    def test_adopts_mid_stream_state(self, kind, seed, steps):
        # One object switches freely between per-packet offers, ragged
        # keep_mask chunks and re-keys; a per-packet twin re-keyed at
        # the same points must make the same decisions and end in the
        # same state.
        ts = arrivals(sum(n for op, n in steps if op != "rekey"), seed)
        reference = make_streaming(kind, seed=seed)
        subject = make_streaming(kind, seed=seed)
        assert chunk_kernel_for(subject) is subject
        expected, actual = [], []
        start = 0
        for op, n in steps:
            if op == "rekey":
                reference.rekey(n, unit_period_us=UNIT_PERIOD_US)
                subject.rekey(n, unit_period_us=UNIT_PERIOD_US)
                continue
            part = ts[start : start + n]
            start += n
            expected.append(offer_decisions(reference, part))
            if op == "offer":
                actual.append(offer_decisions(subject, part))
            else:
                actual.append(subject.keep_mask(part))
        empty = [np.zeros(0, dtype=bool)]
        assert np.array_equal(
            np.concatenate(empty + actual), np.concatenate(empty + expected)
        )
        assert_same_state(kind, reference, subject)

    def test_reservoir_has_no_kernel(self):
        assert chunk_kernel_for(StreamingReservoir(capacity=5)) is None


class TestRekey:
    @pytest.mark.parametrize("kind", KINDS)
    def test_rekey_to_zero_raises(self, kind):
        selector = make_streaming(kind)
        with pytest.raises(ValueError, match="granularity must be >= 1"):
            selector.rekey(0, unit_period_us=UNIT_PERIOD_US)

    def test_timer_rekey_needs_a_unit_period(self):
        timer = make_streaming("timer")
        with pytest.raises(ValueError, match="positive unit period"):
            timer.rekey(4)
        assert timer.period_us == 3250.0
