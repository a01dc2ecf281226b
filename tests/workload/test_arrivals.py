"""Train-structured arrival process."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workload.arrivals import TrainArrivalModel
from repro.workload.mix import fixwest_mix, nsfnet_mix
from repro.workload.modulation import MixModulator

_US_PER_S = 1_000_000.0


def _reference_batch(model, n_trains, mu_inter, rng, train_probs):
    """One batch of trains, drawn as the per-second reference loop draws it.

    Per-packet (gap, component): the components by ``rng.choice``, then
    the geometric train lengths component by component, then the
    exponential gaps, then one gamma inter-train gap per train.
    """
    mix = model.mix
    comp_idx = rng.choice(len(mix.components), size=n_trains, p=train_probs)
    lengths = np.empty(n_trains, dtype=np.int64)
    for c, component in enumerate(mix.components):
        mask = comp_idx == c
        count = int(mask.sum())
        if count:
            if component.mean_train_length == 1.0:
                lengths[mask] = np.ones(count, dtype=np.int64)
            else:
                p = 1.0 / component.mean_train_length
                lengths[mask] = rng.geometric(p, size=count).astype(np.int64)
    np.clip(lengths, 1, model.max_train_length, out=lengths)

    total = int(lengths.sum())
    packet_comp = np.repeat(comp_idx, lengths)
    is_first = np.zeros(total, dtype=bool)
    is_first[np.concatenate(([0], np.cumsum(lengths)[:-1]))] = True

    gaps = rng.exponential(model.intra_gap_mean_us, size=total)
    n_first = int(is_first.sum())
    gaps[is_first] = rng.gamma(
        model.inter_gap_shape,
        mu_inter / model.inter_gap_shape,
        size=n_first,
    )
    return gaps, packet_comp


def reference_generate(model, rates_pps, rng, train_probs_per_second=None):
    """The per-second reference loop :meth:`TrainArrivalModel.generate` must
    reproduce draw for draw: every second re-derives its mean train length
    and inter-train mean and draws whole batches until it is covered."""
    rates = np.asarray(rates_pps, dtype=np.float64)
    probs_matrix = None
    if train_probs_per_second is not None:
        probs_matrix = np.asarray(train_probs_per_second, dtype=np.float64)
    mix = model.mix

    time_chunks = []
    comp_chunks = []
    t = 0.0
    for second, rate in enumerate(rates):
        end = (second + 1) * _US_PER_S
        if probs_matrix is None:
            probs = mix.train_probabilities
        else:
            probs = probs_matrix[second]
        means = np.array(
            [c.mean_train_length for c in mix.components], dtype=np.float64
        )
        g = float(np.dot(probs, means))
        f_intra = (g - 1.0) / g
        f_inter = 1.0 / g
        mean_gap = _US_PER_S / float(rate)
        mu_inter = (mean_gap - f_intra * model.intra_gap_mean_us) / f_inter
        mu_inter = max(mu_inter, model.min_inter_gap_mean_us)
        while t < end:
            expected_packets = max((end - t) * rate / _US_PER_S, 1.0)
            n_trains = max(4, int(expected_packets / g * 1.25) + 4)
            gaps, packet_comp = _reference_batch(
                model, n_trains, mu_inter, rng, probs
            )
            arrivals = t + np.cumsum(gaps)
            cut = int(np.searchsorted(arrivals, end, side="left"))
            if cut < len(arrivals):
                cut += 1
            time_chunks.append(arrivals[:cut])
            comp_chunks.append(packet_comp[:cut])
            t = float(arrivals[cut - 1])

    if not time_chunks:
        return np.empty(0), np.empty(0, dtype=np.int64)
    return np.concatenate(time_chunks), np.concatenate(comp_chunks)


@pytest.fixture()
def model() -> TrainArrivalModel:
    return TrainArrivalModel(mix=nsfnet_mix())


class TestInterGapDerivation:
    def test_solves_target_rate(self, model):
        mu = model.inter_gap_mean_us(424.0)
        g = model.mix.mean_train_length()
        f_intra = (g - 1) / g
        # f_intra * mu_intra + f_inter * mu_inter = 1e6 / rate.
        realized = f_intra * model.intra_gap_mean_us + (1 / g) * mu
        assert realized == pytest.approx(1e6 / 424.0, rel=1e-9)

    def test_floor_for_extreme_rates(self, model):
        assert model.inter_gap_mean_us(1e9) == model.min_inter_gap_mean_us

    def test_rejects_non_positive_rate(self, model):
        with pytest.raises(ValueError):
            model.inter_gap_mean_us(0.0)

    def test_elementwise_over_rates_and_train_lengths(self, model):
        """The per-second form ``generate`` uses: one entry per (rate, g)
        pair, each equal to the scalar call, the floor included."""
        rates = np.array([0.3, 424.0, 2e5, 1e9])
        g = np.array([1.0, 1.7, 2.5, 1.2])
        means = model.inter_gap_mean_us(rates, g)
        for rate, g_s, mean in zip(rates, g, means):
            assert model.inter_gap_mean_us(rate, g_s) == mean
        assert means[-1] == model.min_inter_gap_mean_us
        with pytest.raises(ValueError):
            model.inter_gap_mean_us(np.array([424.0, -1.0]), g[:2])


class TestGeneration:
    def test_timestamps_strictly_increasing(self, model, rng):
        ts, _comp = model.generate(np.full(10, 400.0), rng)
        assert np.all(np.diff(ts) > 0)

    def test_rate_tracking(self, model, rng):
        rates = np.full(60, 424.0)
        ts, _ = model.generate(rates, rng)
        realized = len(ts) / 60.0
        assert realized == pytest.approx(424.0, rel=0.05)

    def test_rate_changes_tracked_per_second(self, model, rng):
        rates = np.array([100.0] * 20 + [800.0] * 20)
        ts, _ = model.generate(rates, rng)
        seconds = (ts // 1e6).astype(int)
        counts = np.bincount(seconds, minlength=40)[:40]
        assert counts[:20].mean() == pytest.approx(100.0, rel=0.2)
        assert counts[20:40].mean() == pytest.approx(800.0, rel=0.2)

    def test_component_indices_valid(self, model, rng):
        _, comp = model.generate(np.full(5, 400.0), rng)
        assert comp.min() >= 0
        assert comp.max() < len(model.mix.components)

    def test_burst_structure_present(self, model, rng):
        """A noticeable share of gaps should be sub-millisecond."""
        ts, _ = model.generate(np.full(30, 424.0), rng)
        gaps = np.diff(ts)
        assert (gaps < 800).mean() > 0.2
        assert gaps.mean() == pytest.approx(1e6 / 424.0, rel=0.1)

    def test_empty_rates(self, model, rng):
        ts, comp = model.generate(np.empty(0), rng)
        assert ts.size == 0
        assert comp.size == 0
        # The component column is compact: uint8 holds the mix's indices.
        assert (ts.dtype, comp.dtype) == (np.float64, np.uint8)

    def test_component_probs_override(self, rng):
        mix = nsfnet_mix()
        model = TrainArrivalModel(mix=mix)
        n_comp = len(mix.components)
        probs = np.zeros((5, n_comp))
        probs[:, 0] = 1.0  # all trains from component 0
        _, comp = model.generate(np.full(5, 300.0), rng, probs)
        assert np.all(comp == 0)

    def test_probs_matrix_shape_validated(self, model, rng):
        with pytest.raises(ValueError, match="n_seconds"):
            model.generate(np.full(5, 300.0), rng, np.ones((3, 2)))

    def test_non_positive_rate_rejected(self, model, rng):
        with pytest.raises(ValueError, match="positive"):
            model.generate(np.array([100.0, 0.0]), rng)

    def test_rates_must_be_1d(self, model, rng):
        with pytest.raises(ValueError, match="one-dimensional"):
            model.generate(np.ones((2, 2)), rng)

    @pytest.mark.parametrize(
        "bad",
        [
            [-0.1, 0.5, 0.3, 0.1, 0.1, 0.1],
            [np.nan, 0.5, 0.3, 0.1, 0.05, 0.05],
            [np.inf, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.2, 0.2, 0.2, 0.2, 0.2, 0.2],
            [0.5, 0.5, 0.0, 0.0, 0.0, 1e-7],
        ],
        ids=["negative", "nan", "inf", "sums-to-1.2", "sums-past-sqrt-eps"],
    )
    def test_bad_probability_row_rejected_before_any_draw(self, model, bad):
        probs = np.tile(model.mix.train_probabilities, (4, 1))
        probs[2] = bad
        rng = np.random.default_rng(11)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="second 2"):
            model.generate(np.full(4, 300.0), rng, probs)
        assert rng.bit_generator.state == state

    def test_row_within_sqrt_eps_of_one_accepted(self, model, rng):
        probs = np.tile(model.mix.train_probabilities, (2, 1))
        probs[1, 0] += 1e-9
        ts, _ = model.generate(np.full(2, 300.0), rng, probs)
        assert ts.size > 0


class TestValidation:
    def test_bad_parameters(self):
        mix = nsfnet_mix()
        with pytest.raises(ValueError):
            TrainArrivalModel(mix=mix, intra_gap_mean_us=0.0)
        with pytest.raises(ValueError):
            TrainArrivalModel(mix=mix, inter_gap_shape=0.0)
        with pytest.raises(ValueError):
            TrainArrivalModel(mix=mix, max_train_length=0)

    @staticmethod
    def _train_runs(max_train_length):
        """Packets per train, read back from the gaps of ``generate``.

        Intra-train gaps (exponential, mean 1 us) and inter-train gaps
        (gamma with shape 50 around ~2 ms) are separated by the 100 us
        threshold with overwhelming probability, so every gap above it
        opens a train.
        """
        model = TrainArrivalModel(
            mix=nsfnet_mix(),
            intra_gap_mean_us=1.0,
            inter_gap_shape=50.0,
            max_train_length=max_train_length,
        )
        ts, _ = model.generate(np.full(20, 1000.0), np.random.default_rng(5))
        gaps = np.diff(np.concatenate(([0.0], ts)))
        starts = np.flatnonzero(gaps > 100.0)
        assert starts[0] == 0
        return np.diff(np.concatenate((starts, [ts.size])))

    def test_train_length_cap(self):
        runs = self._train_runs(max_train_length=2)
        assert runs.max() == 2

    def test_train_lengths_uncapped_by_default(self):
        assert self._train_runs(max_train_length=64).max() > 2


_MIXES = {"nsfnet": nsfnet_mix(), "fixwest": fixwest_mix()}


@st.composite
def _arrival_cases(draw):
    """A model, per-second rates, optional per-second probabilities, a seed.

    Rates span 0.01 pps (a batch of four trains spans many seconds) to
    1e6 pps (the ``min_inter_gap_mean_us`` floor, one batch covering far
    more than its second); probabilities are the mix's own, the
    modulator's, or hand-made rows with zero entries.
    """
    mix = _MIXES[draw(st.sampled_from(sorted(_MIXES)))]
    n_seconds = draw(st.integers(1, 4))
    exponents = draw(
        st.lists(st.floats(-2.0, 6.0), min_size=n_seconds, max_size=n_seconds)
    )
    rates = 10.0 ** np.array(exponents)
    model = TrainArrivalModel(
        mix=mix, max_train_length=draw(st.integers(1, 64))
    )
    n_comp = len(mix.components)
    kind = draw(st.sampled_from(["base", "modulated", "rows"]))
    probs = None
    if kind == "modulated":
        innovations = np.random.default_rng(
            draw(st.integers(0, 2**16))
        ).standard_normal(n_seconds)
        probs = MixModulator(mix=mix).probabilities(
            innovations, np.random.default_rng(draw(st.integers(0, 2**16)))
        )
    elif kind == "rows":
        weight = st.sampled_from([0.0, 0.0, 0.05, 0.5, 1.0, 3.0])
        rows = draw(
            st.lists(
                st.lists(weight, min_size=n_comp, max_size=n_comp).filter(any),
                min_size=n_seconds,
                max_size=n_seconds,
            )
        )
        probs = np.array(rows, dtype=np.float64)
        probs /= probs.sum(axis=1, keepdims=True)
    return model, rates, probs, draw(st.integers(0, 2**32 - 1))


class TestReferenceEquivalence:
    """``generate`` draws exactly what the per-second reference loop draws."""

    @staticmethod
    def _assert_same_stream(model, rates, probs, seed):
        fast_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        ts, comp = model.generate(rates, fast_rng, probs)
        ref_ts, ref_comp = reference_generate(model, rates, ref_rng, probs)
        assert ts.dtype == ref_ts.dtype
        # The reference keeps int64 components; generate returns the
        # compact column, equal index for index.
        assert comp.dtype == np.min_scalar_type(len(model.mix.components) - 1)
        np.testing.assert_array_equal(ts, ref_ts)
        np.testing.assert_array_equal(comp, ref_comp)
        assert fast_rng.bit_generator.state == ref_rng.bit_generator.state

    @settings(max_examples=60, deadline=None)
    @given(_arrival_cases())
    @example(
        (
            TrainArrivalModel(mix=nsfnet_mix()),
            np.array([0.3, 5.0, 1e6, 2e5, 0.01]),
            None,
            1993,
        )
    )
    def test_matches_reference_loop(self, case):
        model, rates, probs, seed = case
        self._assert_same_stream(model, rates, probs, seed)

    @pytest.mark.parametrize("max_train_length", [1, 2, 64])
    def test_modulated_minute_matches_reference_loop(self, max_train_length):
        mix = nsfnet_mix()
        rng = np.random.default_rng(8)
        innovations = rng.standard_normal(60)
        probs = MixModulator(mix=mix).probabilities(innovations, rng)
        rates = 424.0 * np.exp(0.2 * innovations)
        model = TrainArrivalModel(mix=mix, max_train_length=max_train_length)
        self._assert_same_stream(model, rates, probs, 9)

    def test_seconds_that_take_several_batches(self):
        """Now and then a batch falls short of its second and the retry
        loop draws another; at 20 pps that happens within 200 seconds."""
        model = TrainArrivalModel(mix=nsfnet_mix())
        rates = np.full(200, 20.0)
        counting = _BatchCounter(np.random.default_rng(4))
        model.generate(rates, counting)
        assert counting.batches > rates.size
        self._assert_same_stream(model, rates, None, 4)


class _BatchCounter:
    """A generator that counts batches: one ``random`` call each."""

    def __init__(self, rng):
        self._rng = rng
        self.batches = 0

    def random(self, size):
        self.batches += 1
        return self._rng.random(size)

    def __getattr__(self, name):
        return getattr(self._rng, name)
