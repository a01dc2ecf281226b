"""Application mix composition and the calibrated NSFNET mix."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.packet import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP
from repro.workload.mix import (
    ApplicationComponent,
    ApplicationMix,
    nsfnet_mix,
    selection_cdf,
)
from repro.workload.sizes import ConstantSize


def two_component_mix() -> ApplicationMix:
    return ApplicationMix(
        [
            ApplicationComponent(
                name="small",
                packet_fraction=0.6,
                sizes=ConstantSize(40),
                mean_train_length=1.0,
            ),
            ApplicationComponent(
                name="big",
                packet_fraction=0.4,
                sizes=ConstantSize(552),
                mean_train_length=4.0,
            ),
        ]
    )


class TestApplicationComponent:
    def test_train_length_mean(self, rng):
        comp = ApplicationComponent(
            name="bulk",
            packet_fraction=0.3,
            sizes=ConstantSize(552),
            mean_train_length=4.0,
        )
        lengths = comp.draw_train_lengths(20_000, rng)
        assert lengths.min() >= 1
        assert lengths.mean() == pytest.approx(4.0, rel=0.05)

    def test_unit_train_length(self, rng):
        comp = ApplicationComponent(
            name="dns",
            packet_fraction=0.1,
            sizes=ConstantSize(100),
            mean_train_length=1.0,
        )
        assert np.all(comp.draw_train_lengths(100, rng) == 1)

    def test_validation(self):
        with pytest.raises(ValueError, match="fraction"):
            ApplicationComponent("x", 0.0, ConstantSize(40), 1.0)
        with pytest.raises(ValueError, match="train length"):
            ApplicationComponent("x", 0.5, ConstantSize(40), 0.5)


class TestApplicationMix:
    def test_packet_fractions_normalized(self):
        mix = two_component_mix()
        fractions = mix.packet_fractions
        assert fractions["small"] == pytest.approx(0.6)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_train_probabilities_derived(self):
        mix = two_component_mix()
        probs = mix.train_probabilities
        # Train weights are fraction / mean length: 0.6 vs 0.1.
        assert probs[0] == pytest.approx(0.6 / 0.7)
        assert probs.sum() == pytest.approx(1.0)

    def test_mean_train_length(self):
        mix = two_component_mix()
        expected = (0.6 / 0.7) * 1.0 + (0.1 / 0.7) * 4.0
        assert mix.mean_train_length() == pytest.approx(expected)

    def test_mean_train_length_with_override_probs(self):
        mix = two_component_mix()
        assert mix.mean_train_length(np.array([0.0, 1.0])) == pytest.approx(4.0)

    def test_mean_packet_size(self):
        mix = two_component_mix()
        assert mix.mean_packet_size() == pytest.approx(0.6 * 40 + 0.4 * 552)

    def test_empty_mix_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ApplicationMix([])

    def test_duplicate_names_rejected(self):
        comp = ApplicationComponent("x", 0.5, ConstantSize(40), 1.0)
        with pytest.raises(ValueError, match="unique"):
            ApplicationMix([comp, comp])


class TestSelectionCdf:
    @staticmethod
    def _draw(probs, n, rng):
        return selection_cdf(probs).searchsorted(rng.random(n), side="right")

    def test_draws_train_probabilities(self, rng):
        mix = two_component_mix()
        drawn = self._draw(mix.train_probabilities, 50_000, rng)
        share = (drawn == 0).mean()
        assert share == pytest.approx(mix.train_probabilities[0], abs=0.01)

    def test_zero_probability_never_drawn(self, rng):
        drawn = self._draw(np.array([1.0, 0.0]), 100, rng)
        assert np.all(drawn == 0)

    def test_rows_are_independent(self):
        probs = np.array([[0.2, 0.3, 0.5], [0.0, 0.0, 1.0]])
        np.testing.assert_array_equal(selection_cdf(probs)[0], selection_cdf(probs[0]))
        np.testing.assert_array_equal(selection_cdf(probs)[1], [0.0, 0.0, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 1e-9, 0.01, 0.3, 1.0, 7.0]), min_size=1, max_size=12)
        .filter(any),
        st.integers(0, 300),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_generator_choice(self, weights, n, seed):
        """Draw for draw what ``rng.choice`` draws, leaving the same state."""
        probs = np.array(weights) / np.sum(weights)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = self._draw(probs, n, ours)
        expected = theirs.choice(probs.size, size=n, p=probs)
        assert drawn.dtype == expected.dtype
        np.testing.assert_array_equal(drawn, expected)
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestNsfnetMix:
    def test_component_names(self):
        names = [c.name for c in nsfnet_mix().components]
        assert names == ["ack", "telnet", "dns", "smtp", "bulk", "icmp"]

    def test_calibrated_moments(self):
        """The mix solves the Table 3 moment equations."""
        mix = nsfnet_mix()
        assert mix.mean_packet_size() == pytest.approx(232, abs=3)

    def test_protocols(self):
        by_name = {c.name: c for c in nsfnet_mix().components}
        assert by_name["dns"].protocol == IPPROTO_UDP
        assert by_name["icmp"].protocol == IPPROTO_ICMP
        assert by_name["bulk"].protocol == IPPROTO_TCP

    def test_well_known_ports(self):
        by_name = {c.name: c for c in nsfnet_mix().components}
        assert by_name["telnet"].server_port == 23
        assert by_name["dns"].server_port == 53
        assert by_name["smtp"].server_port == 25
        assert by_name["icmp"].server_port == 0

    def test_bulk_dominates_large_sizes(self):
        by_name = {c.name: c for c in nsfnet_mix().components}
        assert by_name["bulk"].sizes.mean() > 500
        assert by_name["bulk"].mean_train_length > 2
