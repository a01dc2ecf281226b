"""Streaming (per-packet, stateful) sampler implementations.

The batch samplers in this package select from a stored trace; a
monitor in the forwarding path decides *per packet, online* — the ARTS
firmware sees one packet at a time and must say keep/skip immediately,
with O(1) state.  This module provides streaming counterparts:

* :class:`StreamingSystematic` — counter-based every-k-th selection;
* :class:`StreamingStratified` — one random pick per k-packet bucket,
  drawn at the bucket's first packet (still one comparison per
  packet);
* :class:`StreamingTimerSystematic` — periodic timer, next-arrival
  rule;
* :class:`StreamingReservoir` — Vitter's reservoir algorithm, the
  streaming analogue of simple random sampling (exact n-of-N without
  knowing N in advance).

The first three are :class:`ChunkSelector` s, each owning its method's
one selection kernel: ``keep_mask`` decides a chunk through it, the
systematic and stratified batch samplers run it over the whole trace,
and the timer kernel is built from the batch timer's own arithmetic.
``offer``, the executable reference, decides one packet.  It and
``keep_mask`` agree under any chunking and ``rekey`` interleaving, and
both keep the batch sampler's packets (stratified: in every complete
bucket), as ``tests/fastpath/test_parity.py`` pins.  Reservoir
sampling, which has no batch analogue with matching draws, is tested
for uniformity instead.
"""

from typing import Iterable, List, Optional

import numpy as np

from repro.core.sampling.base import require_rng
from repro.core.sampling.timer import next_arrivals, periodic_firings


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


class ChunkSelector(StreamingSampler):
    """A selector that also decides a whole chunk of arrivals at once."""

    def kept_positions(self, arrivals: np.ndarray) -> np.ndarray:
        """The selection kernel: sorted positions kept among the next
        ``arrivals`` (int64 µs), advancing the state ``offer`` does."""
        raise NotImplementedError

    def keep_mask(self, timestamps_us: np.ndarray) -> np.ndarray:
        """Boolean keep/skip vector for the next chunk of arrivals."""
        arrivals = np.asarray(timestamps_us, dtype=np.int64)
        if arrivals.ndim != 1:
            raise ValueError("timestamps must be one-dimensional")
        mask = np.zeros(arrivals.size, dtype=bool)
        mask[self.kept_positions(arrivals)] = True
        return mask

    def rekey(self, granularity: int, unit_period_us: float = 0.0) -> None:
        """Switch to 1-in-``granularity`` between two packets
        (``unit_period_us``, the timer period per unit granularity, is
        ignored by the packet-driven selectors)."""
        raise NotImplementedError


class StreamingSystematic(ChunkSelector):
    """Counter-based every-k-th selection with a phase offset.

    Selects packets at positions ``phase, phase + k, ...`` of the
    offered stream, which is exactly the T3 firmware's mechanism and
    what :class:`~repro.core.sampling.SystematicSampler` runs over a
    whole trace.  State is ``countdown``, the packets left before the
    next keep; a chunk of ``n`` packets keeps local positions
    ``countdown, countdown + k, ...`` and advances the countdown by
    ``n`` modulo ``k``.
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

    def kept_positions(self, arrivals: np.ndarray) -> np.ndarray:
        n = arrivals.size
        kept = np.arange(self.countdown, n, self.granularity, dtype=np.int64)
        self.countdown = (self.countdown - n) % self.granularity
        return kept

    def rekey(self, granularity: int, unit_period_us: float = 0.0) -> None:
        """Switch to 1-in-``granularity``, carrying the countdown mod k'.

        The phase stays continuous across the change.
        """
        _check_granularity(granularity)
        self.countdown %= granularity
        self.granularity = granularity


class StreamingStratified(ChunkSelector):
    """One uniformly random packet per k-packet bucket, online.

    At each bucket's first packet the kept offset is drawn as
    ``int(rng.random() * k)``, the draw
    :class:`~repro.core.sampling.StratifiedRandomSampler` makes, and
    later offers compare the bucket ``position`` against
    ``keep_offset``.  With a generator seeded alike, both keep the same
    packet in every complete bucket.  In a partial final bucket the
    batch sampler picks within the bucket, whereas here nothing is kept
    when the drawn offset lies past the end of the stream — a monitor
    cannot know the bucket will be short, so for it that is the honest
    behaviour.  A chunk draws the offsets of the buckets it starts with
    one vectorized call, which consumes the generator exactly as the
    per-bucket draws do.
    """

    def __init__(
        self, granularity: int, rng: Optional[np.random.Generator] = None
    ) -> None:
        _check_granularity(granularity)
        self.granularity = granularity
        self.rng = require_rng(rng)
        self.position = 0
        self.keep_offset = 0

    def offer(self, timestamp_us: int) -> bool:
        if self.position == 0:
            self.keep_offset = int(self.rng.random() * self.granularity)
        keep = self.position == self.keep_offset
        self.position = (self.position + 1) % self.granularity
        return keep

    def kept_positions(self, arrivals: np.ndarray) -> np.ndarray:
        n, k = arrivals.size, self.granularity
        # Bucket starts local to the chunk; a negative first one is the
        # bucket in progress, which keeps its drawn offset.
        starts = np.arange(-self.position, n, k, dtype=np.int64)
        fresh = starts.size - (self.position > 0)
        offsets = np.full(starts.size, self.keep_offset, dtype=np.int64)
        if fresh:
            offsets[-fresh:] = (self.rng.random(fresh) * k).astype(np.int64)
            self.keep_offset = int(offsets[-1])
        self.position = (self.position + n) % k
        kept = np.add(starts, offsets, out=starts)
        return kept[(kept >= 0) & (kept < n)]

    def rekey(self, granularity: int, unit_period_us: float = 0.0) -> None:
        """Abandon the bucket in progress; start a fresh k'-bucket.

        Its keep offset is drawn at its first packet, so the RNG stream
        stays aligned however the stream around it is chunked.
        """
        _check_granularity(granularity)
        self.granularity = granularity
        self.position = 0


class StreamingTimerSystematic(ChunkSelector):
    """Periodic timer with the paper's next-arrival rule, online.

    The timer's origin is the first packet's arrival plus ``phase_us``,
    and firing ``j`` is at ``origin_us + period_us * j``, a strict grid.
    Each firing keeps the next packet to arrive, once however many
    firings land in one gap.  The arithmetic and the search are
    :class:`~repro.core.sampling.TimerSystematicSampler`'s own, so both
    keep exactly the same packets.  State is ``origin_us`` (``None``
    until the first arrival) and ``fired``, the firings at or before
    the latest arrival; ``next_firing`` is the pending one.
    """

    def __init__(self, period_us: float, phase_us: float = 0.0) -> None:
        if period_us <= 0:
            raise ValueError("timer period must be positive")
        if not 0.0 <= phase_us < period_us:
            raise ValueError("phase must be in [0, period)")
        self.period_us = float(period_us)
        self.phase_us = float(phase_us)
        self.origin_us: Optional[float] = None
        self.fired = 0

    @property
    def next_firing(self) -> Optional[float]:
        """The pending firing time (``None`` until the first arrival)."""
        if self.origin_us is None:
            return None
        return self.origin_us + self.period_us * self.fired

    def offer(self, timestamp_us: int) -> bool:
        if self.origin_us is None:
            self.origin_us = timestamp_us + self.phase_us
        # Every firing that has passed selects this packet, once.
        keep = False
        while self.origin_us + self.period_us * self.fired <= timestamp_us:
            self.fired += 1
            keep = True
        return keep

    def kept_positions(self, arrivals: np.ndarray) -> np.ndarray:
        if arrivals.size == 0:
            return np.empty(0, dtype=np.int64)
        if self.origin_us is None:
            self.origin_us = int(arrivals[0]) + self.phase_us
        last = int(arrivals[-1])
        firings = periodic_firings(
            self.origin_us, self.period_us, last + 1, start=self.fired
        )
        due = int(np.searchsorted(firings, last, side="right"))
        self.fired += due
        return next_arrivals(arrivals, firings[:due])

    def rekey(self, granularity: int, unit_period_us: float = 0.0) -> None:
        """Re-derive the period as ``unit_period_us * granularity``.

        The pending firing stands as the new grid's origin, so the
        firing grid bends without a discontinuity.
        """
        _check_granularity(granularity)
        if unit_period_us <= 0:
            raise ValueError("timer re-key needs a positive unit period")
        self.origin_us = self.next_firing
        self.fired = 0
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
