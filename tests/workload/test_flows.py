"""Flow-identity assignment."""

import numpy as np
import pytest

from repro.workload.flows import (
    DST_NET_BASE,
    EPHEMERAL_PORT_BASE,
    EPHEMERAL_PORT_SPAN,
    SRC_NET_BASE,
    FlowPool,
    zipf_probabilities,
)
from repro.workload.mix import nsfnet_mix


class TestZipf:
    def test_normalized(self):
        probs = zipf_probabilities(100)
        assert probs.sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        probs = zipf_probabilities(50, exponent=1.2)
        assert np.all(np.diff(probs) < 0)

    def test_exponent_zero_is_uniform(self):
        probs = zipf_probabilities(10, exponent=0.0)
        assert np.allclose(probs, 0.1)

    def test_needs_positive_n(self):
        with pytest.raises(ValueError):
            zipf_probabilities(0)

    def test_single_rank_is_certain(self):
        """n=1 must degenerate to probability one, any exponent."""
        for exponent in (0.0, 1.0, 5.0, -2.0):
            probs = zipf_probabilities(1, exponent=exponent)
            assert probs.shape == (1,)
            assert probs[0] == pytest.approx(1.0)

    def test_extreme_positive_exponent_concentrates(self):
        """A huge exponent puts essentially all mass on rank 1."""
        probs = zipf_probabilities(100, exponent=50.0)
        assert probs[0] == pytest.approx(1.0)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(np.isfinite(probs))

    def test_extreme_negative_exponent_favors_last_rank(self):
        """Negative exponents invert the skew but stay normalized."""
        probs = zipf_probabilities(50, exponent=-30.0)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(np.isfinite(probs))
        assert probs[-1] == probs.max()
        assert np.all(np.diff(probs) > 0)

    def test_large_n_stays_normalized_and_finite(self):
        probs = zipf_probabilities(100_000, exponent=1.2)
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs > 0)


class TestFlowPool:
    @pytest.fixture()
    def pool(self) -> FlowPool:
        return FlowPool(nsfnet_mix(), rng=np.random.default_rng(42))

    def test_assign_shapes(self, pool, rng):
        comp = np.array([0, 0, 1, 1, 1, 4, 4])
        src, dst, sport, dport = pool.assign(comp, rng)
        assert src.shape == comp.shape
        assert dst.shape == comp.shape

    def test_trains_share_conversation(self, pool, rng):
        comp = np.array([4, 4, 4, 4, 0, 0])
        src, dst, sport, dport = pool.assign(comp, rng)
        # First four packets (one bulk train) share all identity fields.
        assert len(set(src[:4])) == 1
        assert len(set(dst[:4])) == 1
        assert len(set(sport[:4])) == 1

    def test_network_number_ranges(self, pool, rng):
        comp = np.zeros(500, dtype=np.int64)
        comp[::2] = 1  # alternate to split trains
        src, dst, _sport, _dport = pool.assign(comp, rng)
        assert src.min() >= SRC_NET_BASE
        assert dst.min() >= DST_NET_BASE

    def test_server_ports_match_component(self, pool, rng):
        mix = nsfnet_mix()
        telnet_index = [c.name for c in mix.components].index("telnet")
        comp = np.full(10, telnet_index)
        _src, _dst, _sport, dport = pool.assign(comp, rng)
        assert np.all(dport == 23)

    def test_icmp_has_no_ports(self, pool, rng):
        mix = nsfnet_mix()
        icmp_index = [c.name for c in mix.components].index("icmp")
        comp = np.full(5, icmp_index)
        _src, _dst, sport, dport = pool.assign(comp, rng)
        assert np.all(sport == 0)
        assert np.all(dport == 0)

    def test_popularity_skew(self, pool, rng):
        """Zipf selection should concentrate traffic on few dst nets."""
        comp = np.arange(40_000) % 2  # alternating singleton trains
        _src, dst, _sport, _dport = pool.assign(comp, rng)
        _values, counts = np.unique(dst, return_counts=True)
        shares = np.sort(counts)[::-1] / counts.sum()
        assert shares[:5].sum() > 0.3

    def test_empty_assignment(self, pool, rng):
        src, dst, sport, dport = pool.assign(np.empty(0, dtype=np.int64), rng)
        assert src.size == 0

    def test_deterministic_tables(self, rng):
        mix = nsfnet_mix()
        a = FlowPool(mix, rng=np.random.default_rng(7))
        b = FlowPool(mix, rng=np.random.default_rng(7))
        comp = np.array([0, 1, 2, 3])
        out_a = a.assign(comp, np.random.default_rng(9))
        out_b = b.assign(comp, np.random.default_rng(9))
        for col_a, col_b in zip(out_a, out_b):
            assert np.array_equal(col_a, col_b)

    def test_ephemeral_ports_within_range(self, pool, rng):
        """TCP/UDP source ports stay in [BASE, BASE + SPAN)."""
        mix = nsfnet_mix()
        ported = [
            i
            for i, c in enumerate(mix.components)
            if c.name != "icmp"
        ]
        comp = np.asarray(ported * 200, dtype=np.int64)
        src, _dst, sport, _dport = pool.assign(comp, rng)
        assert sport.min() >= EPHEMERAL_PORT_BASE
        assert sport.max() < EPHEMERAL_PORT_BASE + EPHEMERAL_PORT_SPAN

    def test_ephemeral_range_never_collides_with_server_ports(self):
        """Every well-known server port sits below the ephemeral base."""
        mix = nsfnet_mix()
        server_ports = {c.server_port for c in mix.components}
        assert all(p < EPHEMERAL_PORT_BASE for p in server_ports)

    def test_conversation_assignment_deterministic_under_seed(self):
        """Same pool seed + same assign seed => identical identities."""
        mix = nsfnet_mix()
        comp = np.asarray([0, 0, 1, 2, 2, 2, 3, 0, 4, 4], dtype=np.int64)
        outputs = []
        for _ in range(2):
            pool = FlowPool(mix, rng=np.random.default_rng(1234))
            outputs.append(pool.assign(comp, np.random.default_rng(99)))
        for col_a, col_b in zip(*outputs):
            assert np.array_equal(col_a, col_b)

    def test_different_assign_seed_changes_conversations(self):
        """Selection randomness comes from the per-call rng."""
        mix = nsfnet_mix()
        pool = FlowPool(mix, rng=np.random.default_rng(1234))
        comp = (np.arange(4000) % 3).astype(np.int64)
        out_a = pool.assign(comp, np.random.default_rng(1))
        out_b = pool.assign(comp, np.random.default_rng(2))
        assert any(
            not np.array_equal(a, b) for a, b in zip(out_a, out_b)
        )

    @pytest.mark.parametrize(
        "k, exponent",
        [(256, 1.0), (50, 0.3), (1, 1.0), (300, 1.5), (4096, 2.0)],
        ids=["default", "flat", "one", "steep", "steeper"],
    )
    def test_conversations_are_what_choice_draws(self, k, exponent):
        """The conversation draw picks what ``rng.choice`` picks."""
        mix = nsfnet_mix()
        pool = FlowPool(
            mix, conversations_per_component=k, zipf_exponent=exponent,
            rng=np.random.default_rng(3),
        )
        comp = np.random.default_rng(4).integers(0, len(mix.components), 50_000)
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        got = pool.assign(comp, ours)
        starts = np.flatnonzero(np.diff(comp, prepend=-1) != 0)
        conv = theirs.choice(k, size=starts.size, p=zipf_probabilities(k, exponent))
        lengths = np.diff(np.append(starts, comp.size))
        expected = np.repeat(pool._src_nets[comp[starts], conv], lengths)
        np.testing.assert_array_equal(got[0], expected)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_validation(self):
        mix = nsfnet_mix()
        with pytest.raises(ValueError):
            FlowPool(mix, n_src_nets=0)
        with pytest.raises(ValueError):
            FlowPool(mix, n_dst_nets=0)
        with pytest.raises(ValueError):
            FlowPool(mix, conversations_per_component=0)
