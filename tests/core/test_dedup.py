"""Hit de-duplication, with ``np.unique`` as the oracle.

Timer firings between two arrivals select the same packet, and byte
selection points inside one packet select it once.  The samplers dedup
their raw hits through :func:`repro.core.sampling.base.unique_hits`;
these properties pin every such sampler to ``np.unique`` of the raw
hits (and its counts, for the byte multiplicities) on traces with
duplicate timestamps, bursts and idle gaps.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling.base import unique_hits
from repro.core.sampling.bytedriven import ByteSystematicSampler
from repro.core.sampling.timer import (
    TimerSampler,
    TimerStratifiedSampler,
    TimerSystematicSampler,
)
from repro.trace.trace import Trace

#: Gaps of 0 µs (duplicate timestamps), a few µs (bursts) and tens of
#: ms (idle stretches several timer periods long).
GAPS_US = st.one_of(st.just(0), st.integers(1, 20), st.integers(1_000, 50_000))


@st.composite
def bursty_traces(draw):
    n = draw(st.integers(1, 300))
    gaps = draw(st.lists(GAPS_US, min_size=n - 1, max_size=n - 1))
    start = draw(st.integers(0, 10**9))
    sizes = draw(st.lists(st.integers(1, 1500), min_size=n, max_size=n))
    return Trace(timestamps_us=start + np.cumsum([0] + gaps), sizes=sizes)


def raw_timer_hits(sampler: TimerSampler, trace: Trace, seed: int) -> np.ndarray:
    """Every firing's packet under the sampler's rule, repeats kept."""
    timestamps = trace.timestamps_us
    firings = sampler._firing_times(
        int(timestamps[0]), int(timestamps[-1]) + 1, np.random.default_rng(seed)
    )
    if sampler.selection_rule == "next":
        hits = np.searchsorted(timestamps, firings, side="left")
        return hits[hits < len(trace)]
    hits = np.searchsorted(timestamps, firings, side="right") - 1
    return hits[hits >= 0]


class TestUniqueHits:
    @settings(max_examples=200, deadline=None)
    @given(hits=st.lists(st.integers(-5, 50), max_size=300))
    def test_equals_np_unique_on_any_order(self, hits):
        arr = np.asarray(hits, dtype=np.int64)
        values, counts = unique_hits(arr, return_counts=True)
        expected_values, expected_counts = np.unique(arr, return_counts=True)
        assert np.array_equal(unique_hits(arr), expected_values)
        assert np.array_equal(values, expected_values)
        assert np.array_equal(counts, expected_counts)
        assert values.dtype == expected_values.dtype
        assert counts.dtype == expected_counts.dtype


class TestTimerDedup:
    @settings(max_examples=150, deadline=None)
    @given(
        trace=bursty_traces(),
        firings=st.integers(1, 3000),
        phase=st.floats(0.0, 0.999),
        rule=st.sampled_from(TimerSampler.SELECTION_RULES),
        seed=st.integers(0, 2**32 - 1),
        stratified=st.booleans(),
    )
    def test_sample_indices_equal_unique_raw_hits(
        self, trace, firings, phase, rule, seed, stratified
    ):
        period = max(trace.duration_us, 1) / firings
        if stratified:
            sampler = TimerStratifiedSampler(period, selection_rule=rule)
        else:
            sampler = TimerSystematicSampler(
                period, phase_us=phase * period, selection_rule=rule
            )
        expected = np.unique(raw_timer_hits(sampler, trace, seed))
        actual = sampler.sample_indices(trace, rng=np.random.default_rng(seed))
        assert actual.dtype == np.int64
        assert np.array_equal(actual, expected)


class TestByteDedup:
    @settings(max_examples=150, deadline=None)
    @given(
        trace=bursty_traces(),
        stride=st.integers(1, 3000),
        phase=st.floats(0.0, 0.999),
    )
    def test_indices_and_multiplicities_equal_np_unique(
        self, trace, stride, phase
    ):
        sampler = ByteSystematicSampler(stride, phase=int(phase * stride))
        hits = sampler._selection_points(trace)
        expected, expected_counts = np.unique(hits, return_counts=True)
        assert np.array_equal(sampler.sample_indices(trace), np.unique(hits))
        indices, multiplicities = sampler.sample_with_multiplicity(trace)
        assert np.array_equal(indices, expected)
        assert np.array_equal(multiplicities, expected_counts)
        assert multiplicities.sum() == hits.size
