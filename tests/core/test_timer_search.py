"""Timer searches with integer needles, against float-needle searches.

Timestamps are integers, so the first arrival at or after a firing is
the first at or after its ceiling, and the last at or before it is the
last at or before its floor.  ``next_arrivals`` and the "previous"
rule of :class:`TimerSampler` search those integer needles; these
properties keep the float-needle ``np.searchsorted`` of the firings
themselves inline as the oracle, on sorted int64 timestamps with ties
and on firings that fall on a timestamp, between two, before the first
arrival or after the last.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling.timer import TimerSampler, next_arrivals
from repro.trace.trace import Trace

#: Ties (0 µs), near gaps and idle stretches.
GAPS_US = st.one_of(st.just(0), st.integers(1, 3), st.integers(4, 5_000))

#: Offsets from a timestamp: none (on it), whole microseconds, and
#: fractions just off, halfway and near a whole microsecond.
OFFSETS_US = st.one_of(
    st.just(0.0),
    st.integers(-3, 3).map(float),
    st.sampled_from([-0.999, -0.5, -1e-6, 1e-6, 0.25, 0.5, 0.999]),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def searches(draw):
    """Sorted int64 timestamps and float firings around them."""
    n = draw(st.integers(1, 120))
    gaps = draw(st.lists(GAPS_US, min_size=n - 1, max_size=n - 1))
    start = draw(st.integers(0, 10**12))
    timestamps = start + np.cumsum([0] + gaps).astype(np.int64)
    anchors = draw(
        st.lists(
            st.one_of(
                st.integers(0, n - 1).map(lambda i: float(timestamps[i])),
                st.floats(1.0, 1e4).map(lambda d: float(timestamps[0]) - d),
                st.floats(1.0, 1e4).map(lambda d: float(timestamps[-1]) + d),
            ),
            max_size=80,
        )
    )
    offsets = draw(st.lists(OFFSETS_US, min_size=len(anchors), max_size=len(anchors)))
    firings = np.sort(np.asarray(anchors, dtype=np.float64) + offsets)
    return timestamps, firings


class _GivenFirings(TimerSampler):
    """A timer whose firings are given, to drive both selection rules."""

    def __init__(self, firings: np.ndarray, selection_rule: str) -> None:
        super().__init__(1.0, selection_rule=selection_rule)
        self.firings = firings

    def _firing_times(self, start_us, stop_us, rng):
        return self.firings


class TestIntegerNeedles:
    @settings(max_examples=400, deadline=None)
    @given(search=searches())
    def test_next_arrivals_equal_float_needles(self, search):
        timestamps, firings = search
        hits = np.searchsorted(timestamps, firings, side="left")
        expected = np.unique(hits[hits < timestamps.size])
        actual = next_arrivals(timestamps, firings)
        assert actual.dtype == np.int64
        assert np.array_equal(actual, expected)

    @settings(max_examples=400, deadline=None)
    @given(search=searches(), rule=st.sampled_from(TimerSampler.SELECTION_RULES))
    def test_both_rules_equal_float_needles(self, search, rule):
        timestamps, firings = search
        trace = Trace(timestamps_us=timestamps, sizes=np.full(timestamps.size, 40))
        if rule == "next":
            hits = np.searchsorted(timestamps, firings, side="left")
            hits = hits[hits < timestamps.size]
        else:
            hits = np.searchsorted(timestamps, firings, side="right") - 1
            hits = hits[hits >= 0]
        actual = _GivenFirings(firings, rule).sample_indices(trace)
        assert actual.dtype == np.int64
        assert np.array_equal(actual, np.unique(hits))

    def test_edge_firings(self):
        """On a timestamp, a hair either side of it, and past both ends."""
        timestamps = np.array([10, 10, 12, 20], dtype=np.int64)
        firings = np.array([9.5, 10.0, 10.000001, 11.999999, 12.0, 19.2, 20.5])
        trace = Trace(timestamps_us=timestamps, sizes=np.full(4, 40))
        assert next_arrivals(timestamps, firings).tolist() == [0, 2, 3]
        previous = _GivenFirings(firings, "previous").sample_indices(trace)
        assert previous.tolist() == [1, 2, 3]
