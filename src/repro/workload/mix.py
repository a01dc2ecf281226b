"""The application mix behind the packet-size population.

Traffic enters the backbone as *packet trains*: short runs of packets
from one application conversation (a bulk-transfer window, a telnet
keystroke echo and its acknowledgement, a lone DNS query).  Each
:class:`ApplicationComponent` describes one traffic class — its
transport protocol, well-known port, train-length distribution, and
packet-size distribution.  :class:`ApplicationMix` weights the
components so that the aggregate packet population reproduces the
paper's Table 3 size distribution: strongly bimodal around 40-byte
acknowledgements and 552-byte bulk-data segments, mean 232, standard
deviation 236.

Weights are specified as *packet* fractions (the calibratable,
observable quantity); train-level selection probabilities are derived
by dividing out each component's mean train length.
"""

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.trace.packet import IPPROTO_ICMP, IPPROTO_TCP, IPPROTO_UDP
from repro.workload.sizes import (
    ConstantSize,
    DiscreteSize,
    SizeDistribution,
    UniformSize,
)

#: Well-known ports of the early-1990s application mix.
PORT_FTP_DATA = 20
PORT_TELNET = 23
PORT_SMTP = 25
PORT_DNS = 53
PORT_NNTP = 119


@dataclass(frozen=True)
class ApplicationComponent:
    """One traffic class of the mix.

    Attributes
    ----------
    name:
        Identifier (e.g. ``"bulk"``).
    packet_fraction:
        Fraction of all *packets* this component contributes.
    sizes:
        Packet-size distribution of the component.
    mean_train_length:
        Mean of the geometric train-length distribution (>= 1).  Bulk
        transfer sends long trains (windows of segments); interactive
        and query traffic sends mostly singletons.
    protocol:
        IP protocol number.
    server_port:
        Well-known destination port (0 for portless protocols).
    """

    name: str
    packet_fraction: float
    sizes: SizeDistribution
    mean_train_length: float
    protocol: int = IPPROTO_TCP
    server_port: int = 0

    def __post_init__(self) -> None:
        if self.packet_fraction <= 0:
            raise ValueError(
                "component %s needs a positive packet fraction" % self.name
            )
        if self.mean_train_length < 1.0:
            raise ValueError(
                "component %s mean train length must be >= 1" % self.name
            )

    def draw_train_lengths(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` train lengths: 1 + Geometric(mean - 1) packets."""
        if self.mean_train_length == 1.0:
            return np.ones(n, dtype=np.int64)
        # A shifted geometric on {1, 2, ...} with the requested mean:
        # success probability p gives mean 1/p for numpy's geometric on
        # {1, 2, ...}.
        p = 1.0 / self.mean_train_length
        return rng.geometric(p, size=n).astype(np.int64, copy=False)


def selection_cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative selection probabilities along the last axis, built as
    ``Generator.choice`` builds them: ``cdf.searchsorted(rng.random(n),
    side="right")`` draws what ``rng.choice(len(p), size=n, p=p)`` draws,
    without re-validating ``p`` on every call."""
    cdf = np.cumsum(probs, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


class ApplicationMix:
    """A weighted set of application components.

    The mix exposes train-level selection probabilities (packet
    fraction divided by mean train length, renormalized) and the
    aggregate mean train length, which the arrival model needs to
    convert a packet rate into a train rate.
    """

    def __init__(self, components: Sequence[ApplicationComponent]) -> None:
        if not components:
            raise ValueError("an application mix needs at least one component")
        names = [c.name for c in components]
        if len(set(names)) != len(names):
            raise ValueError("component names must be unique: %r" % (names,))
        total = sum(c.packet_fraction for c in components)
        self.components: Tuple[ApplicationComponent, ...] = tuple(components)
        self._packet_fractions = np.array(
            [c.packet_fraction / total for c in components], dtype=np.float64
        )
        self._train_length_means = np.array(
            [c.mean_train_length for c in components], dtype=np.float64
        )
        train_weights = self._packet_fractions / self._train_length_means
        self._train_probs = train_weights / train_weights.sum()

    @property
    def packet_fractions(self) -> Dict[str, float]:
        """Normalized packet fraction per component name."""
        return {
            c.name: float(f)
            for c, f in zip(self.components, self._packet_fractions)
        }

    @property
    def train_probabilities(self) -> np.ndarray:
        """Probability that a new train belongs to each component."""
        return self._train_probs.copy()

    def mean_train_length(self, train_probs: np.ndarray = None) -> float:
        """Expected packets per train.

        ``train_probs`` overrides the mix's own train-selection
        probabilities (used by per-second mix modulation); by default
        the base mix probabilities apply.
        """
        probs = self._train_probs if train_probs is None else np.asarray(train_probs)
        return float(np.dot(probs, self._train_length_means))

    def mean_packet_size(self) -> float:
        """Expected packet size of the aggregate population."""
        means = np.array([c.sizes.mean() for c in self.components])
        return float(np.dot(self._packet_fractions, means))


def nsfnet_mix() -> ApplicationMix:
    """The calibrated 1993 NSFNET-entrance application mix.

    Packet fractions solve the first two moment equations of the
    published Table 3 targets exactly (mean 232, standard deviation
    236) while preserving its quantile structure (25% = 40, 75% = 95%
    = 552, min 28, max 1500); see ``repro.workload.calibration``:

    =========== ======== =====================================
    component   fraction sizes (bytes)
    =========== ======== =====================================
    ack           44.0%  40 (pure TCP acknowledgements)
    telnet         6.2%  41-80 (echoed keystrokes + headers)
    dns            4.0%  81-180 queries/responses (UDP)
    smtp          12.7%  181-551 mail/transaction segments
    bulk          29.1%  552 full segments, 296 partial finals,
                         occasional 1500 full-MTU
    icmp           4.0%  28-40 (pings, unreachables)
    =========== ======== =====================================
    """
    return ApplicationMix(
        [
            ApplicationComponent(
                name="ack",
                packet_fraction=0.440,
                sizes=ConstantSize(40),
                mean_train_length=1.3,
                protocol=IPPROTO_TCP,
                server_port=PORT_FTP_DATA,
            ),
            ApplicationComponent(
                name="telnet",
                packet_fraction=0.062,
                sizes=UniformSize(41, 80),
                mean_train_length=1.2,
                protocol=IPPROTO_TCP,
                server_port=PORT_TELNET,
            ),
            ApplicationComponent(
                name="dns",
                packet_fraction=0.040,
                sizes=UniformSize(81, 180),
                mean_train_length=1.0,
                protocol=IPPROTO_UDP,
                server_port=PORT_DNS,
            ),
            ApplicationComponent(
                name="smtp",
                packet_fraction=0.127,
                sizes=UniformSize(181, 551),
                mean_train_length=1.5,
                protocol=IPPROTO_TCP,
                server_port=PORT_SMTP,
            ),
            ApplicationComponent(
                name="bulk",
                packet_fraction=0.291,
                sizes=DiscreteSize(
                    sizes=(552, 296, 1500),
                    weights=(0.91, 0.08, 0.01),
                ),
                mean_train_length=4.0,
                protocol=IPPROTO_TCP,
                server_port=PORT_NNTP,
            ),
            ApplicationComponent(
                name="icmp",
                packet_fraction=0.040,
                sizes=UniformSize(28, 40),
                mean_train_length=1.0,
                protocol=IPPROTO_ICMP,
                server_port=0,
            ),
        ]
    )


def fixwest_mix() -> ApplicationMix:
    """An interexchange-point variant of the mix (FIX-West).

    The paper's preliminary experiments used a trace from the FIX-West
    interexchange point at Moffett Field (footnote 3): "The results of
    the two data sets were quite similar."  No statistics were
    published for it, so this preset is a *plausible* exchange-point
    mix — the same bimodal ACK/bulk structure with a heavier share of
    transit bulk (news feeds crossed exchanges), more DNS and ICMP,
    and less interactive traffic — used by the environment-comparison
    example and tests to check the methodology's conclusions are not
    an artifact of one traffic blend.
    """
    return ApplicationMix(
        [
            ApplicationComponent(
                name="ack",
                packet_fraction=0.400,
                sizes=ConstantSize(40),
                mean_train_length=1.3,
                protocol=IPPROTO_TCP,
                server_port=PORT_FTP_DATA,
            ),
            ApplicationComponent(
                name="telnet",
                packet_fraction=0.040,
                sizes=UniformSize(41, 80),
                mean_train_length=1.2,
                protocol=IPPROTO_TCP,
                server_port=PORT_TELNET,
            ),
            ApplicationComponent(
                name="dns",
                packet_fraction=0.080,
                sizes=UniformSize(61, 200),
                mean_train_length=1.0,
                protocol=IPPROTO_UDP,
                server_port=PORT_DNS,
            ),
            ApplicationComponent(
                name="smtp",
                packet_fraction=0.090,
                sizes=UniformSize(181, 551),
                mean_train_length=1.6,
                protocol=IPPROTO_TCP,
                server_port=PORT_SMTP,
            ),
            ApplicationComponent(
                name="nntp",
                packet_fraction=0.330,
                sizes=DiscreteSize(
                    sizes=(552, 512, 296, 1500),
                    weights=(0.72, 0.18, 0.08, 0.02),
                ),
                mean_train_length=5.0,
                protocol=IPPROTO_TCP,
                server_port=PORT_NNTP,
            ),
            ApplicationComponent(
                name="icmp",
                packet_fraction=0.060,
                sizes=UniformSize(28, 56),
                mean_train_length=1.0,
                protocol=IPPROTO_ICMP,
                server_port=0,
            ),
        ]
    )
