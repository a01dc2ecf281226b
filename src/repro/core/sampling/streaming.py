"""Streaming (per-packet, stateful) sampler implementations.

The batch samplers in this package select from a stored trace; a
monitor in the forwarding path decides *per packet, online* — the ARTS
firmware sees one packet at a time and must say keep/skip immediately,
with O(1) state.  This module provides streaming counterparts:

* :class:`StreamingSystematic` — counter-based every-k-th selection;
* :class:`StreamingStratified` — one random pick per k-packet bucket,
  chosen by index drawn at bucket start (still one comparison per
  packet);
* :class:`StreamingTimerSystematic` — periodic timer, next-arrival
  rule;
* :class:`StreamingReservoir` — Vitter's reservoir algorithm, the
  streaming analogue of simple random sampling (exact n-of-N without
  knowing N in advance).

The first three are *selectors*: one object decides one packet
(``offer``, the executable reference) or one chunk of arrivals
(``keep_mask``, O(chunk) numpy) over one public state, bit-identically
under any chunking and interleaving (``tests/fastpath/test_parity.py``),
and ``rekey`` changes its granularity between packets.  Systematic and
timer selection match their batch counterparts exactly; reservoir
sampling, which has no batch analogue with matching draws, is tested
for uniformity instead.
"""

from typing import Iterable, List, Optional

import numpy as np

from repro.core.sampling.base import require_rng


def _as_timestamps(timestamps_us: np.ndarray) -> np.ndarray:
    arr = np.asarray(timestamps_us, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("timestamps must be one-dimensional")
    return arr


def _check_granularity(granularity: int) -> None:
    if granularity < 1:
        raise ValueError("granularity must be >= 1, got %d" % granularity)


class StreamingSampler:
    """Interface: one keep/skip decision per offered packet."""

    def offer(self, timestamp_us: int) -> bool:
        """Decide whether the packet arriving now enters the sample."""
        raise NotImplementedError

    def offer_all(self, timestamps_us: Iterable[int]) -> np.ndarray:
        """Offer a whole arrival sequence; return selected positions."""
        selected = [
            position
            for position, timestamp in enumerate(timestamps_us)
            if self.offer(int(timestamp))
        ]
        return np.asarray(selected, dtype=np.int64)


class StreamingSystematic(StreamingSampler):
    """Counter-based every-k-th selection with a phase offset.

    Equivalent to :class:`~repro.core.sampling.SystematicSampler`:
    selects packets at positions ``phase, phase + k, ...`` of the
    offered stream.  This is exactly the T3 firmware's mechanism.
    State is ``countdown``, the packets left before the next keep; a
    chunk of ``n`` packets keeps local positions ``countdown,
    countdown + k, ...`` and advances the countdown by ``n`` modulo
    ``k``.
    """

    def __init__(self, granularity: int, phase: int = 0) -> None:
        _check_granularity(granularity)
        if not 0 <= phase < granularity:
            raise ValueError(
                "phase must be in [0, %d), got %d" % (granularity, phase)
            )
        self.granularity = granularity
        self.countdown = phase

    def offer(self, timestamp_us: int) -> bool:
        keep = self.countdown == 0
        if keep:
            self.countdown = self.granularity - 1
        else:
            self.countdown -= 1
        return keep

    def keep_mask(self, timestamps_us: np.ndarray) -> np.ndarray:
        """Boolean keep/skip vector for the next chunk of arrivals."""
        arrivals = _as_timestamps(timestamps_us)
        n = arrivals.size
        mask = np.zeros(n, dtype=bool)
        if n == 0:
            return mask
        mask[self.countdown :: self.granularity] = True
        self.countdown = (self.countdown - n) % self.granularity
        return mask

    def rekey(self, granularity: int, unit_period_us: float = 0.0) -> None:
        """Switch to 1-in-``granularity``, carrying the countdown mod k'.

        The phase stays continuous across the change; ``unit_period_us``
        is unused (it keeps one call shape for every selector).
        """
        _check_granularity(granularity)
        self.countdown %= granularity
        self.granularity = granularity


class StreamingStratified(StreamingSampler):
    """One uniformly random packet per k-packet bucket, online.

    At each bucket start the kept offset is drawn with one
    ``Generator.integers`` call; subsequent offers compare the bucket
    ``position`` against ``keep_offset``.  Like
    :class:`~repro.core.sampling.StratifiedRandomSampler` it keeps one
    uniform pick per complete bucket, but the two are not
    draw-for-draw equal: the batch sampler draws ``random() * size``
    and always picks inside a partial final bucket, whereas here a
    partial final bucket keeps nothing when its drawn offset lies past
    the end of the stream — a monitor cannot know the bucket will be
    short, so for it that is the honest behaviour.  A chunk draws the
    offsets of the buckets it completes with one vectorized call,
    which consumes the generator exactly as the per-bucket draws do.
    """

    def __init__(
        self, granularity: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        _check_granularity(granularity)
        self.granularity = granularity
        self.rng = require_rng(rng)
        self.position = 0
        self.keep_offset = int(self.rng.integers(0, granularity))

    def offer(self, timestamp_us: int) -> bool:
        keep = self.position == self.keep_offset
        self.position += 1
        if self.position == self.granularity:
            self.position = 0
            self.keep_offset = int(self.rng.integers(0, self.granularity))
        return keep

    def keep_mask(self, timestamps_us: np.ndarray) -> np.ndarray:
        """Boolean keep/skip vector for the next chunk of arrivals."""
        arrivals = _as_timestamps(timestamps_us)
        n = arrivals.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        k = self.granularity
        position = self.position
        completions = (position + n) // k
        # offsets[j] is bucket j's keep position, bucket 0 being the
        # (possibly partial) bucket in progress at chunk start; each
        # completed bucket's wrap draws the next bucket's offset.
        offsets = np.empty(completions + 1, dtype=np.int64)
        offsets[0] = self.keep_offset
        if completions:
            draws = self.rng.integers(0, k, size=completions)
            offsets[1:] = draws
            self.keep_offset = int(draws[-1])
        local = position + np.arange(n, dtype=np.int64)
        mask = np.asarray((local % k) == offsets[local // k])
        self.position = (position + n) % k
        return mask

    def rekey(self, granularity: int, unit_period_us: float = 0.0) -> None:
        """Abandon the bucket in progress; start a fresh k'-bucket.

        Its keep offset is one ``Generator.integers`` draw, so the RNG
        stream stays aligned however the stream around it is chunked.
        """
        _check_granularity(granularity)
        self.granularity = granularity
        self.position = 0
        self.keep_offset = int(self.rng.integers(0, granularity))


class StreamingTimerSystematic(StreamingSampler):
    """Periodic timer with the paper's next-arrival rule, online.

    The timer arms at the first packet's arrival; whenever a packet
    arrives with the timer expired, it is kept and the timer re-arms
    at the *scheduled* expiry (not the selection time), so firing times
    stay on the strict grid — matching
    :class:`~repro.core.sampling.TimerSystematicSampler` exactly,
    including the deduplication of multiple expiries inside one gap.
    State is ``next_firing`` (``None`` until the first arrival).  A
    chunk binary-searches each firing's next arrival and advances the
    deadline with ``offer``'s own float operations, once per *kept*
    packet.
    """

    def __init__(self, period_us: float, phase_us: float = 0.0) -> None:
        if period_us <= 0:
            raise ValueError("timer period must be positive")
        if not 0.0 <= phase_us < period_us:
            raise ValueError("phase must be in [0, period)")
        self.period_us = float(period_us)
        self.phase_us = float(phase_us)
        self.next_firing: Optional[float] = None

    def offer(self, timestamp_us: int) -> bool:
        if self.next_firing is None:
            self.next_firing = timestamp_us + self.phase_us
        if timestamp_us < self.next_firing:
            return False
        # Skip every firing that has already passed: they all select
        # this packet (the next to arrive), collapsed into one keep.
        periods_behind = (timestamp_us - self.next_firing) // self.period_us
        self.next_firing += (periods_behind + 1) * self.period_us
        return True

    def keep_mask(self, timestamps_us: np.ndarray) -> np.ndarray:
        """Boolean keep/skip vector for the next chunk of arrivals."""
        arrivals = _as_timestamps(timestamps_us)
        n = arrivals.size
        mask = np.zeros(n, dtype=bool)
        if n == 0:
            return mask
        if self.next_firing is None:
            self.next_firing = int(arrivals[0]) + self.phase_us
        deadline = self.next_firing
        period = self.period_us
        start = 0
        while True:
            index = int(
                np.searchsorted(arrivals[start:], deadline, side="left")
            )
            if index >= n - start:
                break
            index += start
            mask[index] = True
            kept_at = int(arrivals[index])
            periods_behind = (kept_at - deadline) // period
            deadline += (periods_behind + 1) * period
            start = index + 1
        self.next_firing = deadline
        return mask

    def rekey(self, granularity: int, unit_period_us: float = 0.0) -> None:
        """Re-derive the period as ``unit_period_us * granularity``.

        The pending scheduled firing stands, so the firing grid bends
        without a discontinuity.
        """
        _check_granularity(granularity)
        if unit_period_us <= 0:
            raise ValueError("timer re-key needs a positive unit period")
        self.period_us = float(unit_period_us) * granularity


class StreamingReservoir(StreamingSampler):
    """Vitter's algorithm R: a uniform n-of-N sample from a stream.

    Unlike the other streaming samplers this one revises its past
    choices (a reservoir slot may be overwritten), so the ``offer``
    verdict is *admission* — ``True`` when the arriving packet enters
    the reservoir now (possibly displacing an earlier pick), ``False``
    when it is rejected outright — and :meth:`offer_all` reports the
    reservoir's *final* positions rather than the admission stream.  It
    is the online analogue of simple random sampling: after offering N
    packets, every n-subset is equally likely.  Having no fixed
    keep/skip stream, it has no chunk path.
    """

    def __init__(
        self, capacity: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        if capacity < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self.capacity = capacity
        self._rng = require_rng(rng)
        self._positions: List[int] = []
        self._seen = 0

    def offer(self, timestamp_us: int) -> bool:
        """Admit or reject the next packet (timestamp unused).

        The return value reports admission *at offer time*; a ``True``
        packet may still be displaced by a later arrival.
        """
        position = self._seen
        self._seen += 1
        if len(self._positions) < self.capacity:
            self._positions.append(position)
            return True
        slot = int(self._rng.integers(0, self._seen))
        if slot < self.capacity:
            self._positions[slot] = position
            return True
        return False

    def offer_all(self, timestamps_us: Iterable[int]) -> np.ndarray:
        """Offer a whole sequence; return the final sorted positions."""
        for timestamp in timestamps_us:
            self.offer(int(timestamp))
        return self.positions()

    def positions(self) -> np.ndarray:
        """The currently held sample, as sorted stream positions."""
        return np.sort(np.asarray(self._positions, dtype=np.int64))

    @property
    def seen(self) -> int:
        """Packets offered so far."""
        return self._seen
